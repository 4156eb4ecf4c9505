"""What ``src/`` imports: no unused module-level import, and no SciPy.

The unused-import check reads each module with the stdlib ``ast`` module,
so it needs no linter.  A name counts as used when the module reads it
anywhere (including inside a quoted annotation) or lists it in
``__all__``.  Package ``__init__`` modules are exempt: their imports are
the package's re-exports.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(
    path for path in SRC.rglob("*.py") if path.name != "__init__.py"
)


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name a module-level import binds, with its line number."""
    names: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                names[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, quoted annotations and ``__all__`` too."""
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                read |= _read_names(ast.parse(annotation.value, mode="eval"))
        if (
            isinstance(node, ast.Assign)
            and any(getattr(target, "id", None) == "__all__" for target in node.targets)
        ):
            read |= set(ast.literal_eval(node.value))
    return read


def unused_imports(source: str) -> list[str]:
    """Module-level imports of ``source`` that the module never reads."""
    tree = ast.parse(source)
    read = _read_names(tree)
    return [
        f"line {line}: {name}"
        for name, line in _imported_names(tree).items()
        if name not in read
    ]


@pytest.mark.parametrize(
    "module", MODULES, ids=lambda path: str(path.relative_to(SRC))
)
def test_src_module_uses_every_import(module):
    assert unused_imports(module.read_text()) == []


def test_the_check_flags_a_planted_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from dataclasses import dataclass, field\n"
        "from typing import Sequence\n"
        "@dataclass\n"
        "class Shape:\n"
        "    sizes: 'Sequence[int]'\n"
        "    def depth(self) -> int:\n"
        "        return os.path.sep.count('/')\n"
    )
    assert unused_imports(source) == ["line 2: math", "line 4: field"]


def test_every_module_imports_without_scipy():
    # CI installs NumPy but not SciPy, so no module may need SciPy.
    script = (
        "import pkgutil, sys\n"
        "sys.modules['scipy'] = None\n"
        "import repro\n"
        "for module in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    __import__(module.name)\n"
        "from repro.model.gelu import gelu_exact\n"
        "assert abs(float(gelu_exact(1.0)) - 0.8413447) < 1e-6\n"
    )
    environment = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    completed = subprocess.run(
        [sys.executable, "-c", script], env=environment,
        capture_output=True, text=True, check=False,
    )
    assert completed.returncode == 0, completed.stderr

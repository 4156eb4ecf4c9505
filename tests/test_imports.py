"""What ``src/`` imports: no unused module-level import, no SciPy, and a
reference model that imports nothing from the engine.

The import checks read each module with the stdlib ``ast`` module, so they
need no linter.  A name counts as used when the module reads it anywhere
(including inside a quoted annotation) or lists it in ``__all__``.
Package ``__init__`` modules are exempt from the unused-import check: their
imports are the package's re-exports.

The reference model in ``repro.model`` is the oracle the functional engine
is checked against, so no import anywhere in it, at module level or inside
a function, may name the engine's packages (``ENGINE_PACKAGES``).
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
MODEL_MODULES = sorted((SRC / "model").glob("*.py"))
ENGINE_PACKAGES = ("repro.core", "repro.isa", "repro.parallel", "repro.runtime")


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


def dotted_imports(source: str, package: str) -> list[tuple[int, str]]:
    """``(line, dotted name)`` of everything any import in ``source`` binds.

    ``from a import b`` names ``a.b``, and a relative import resolves
    against ``package``, the package the module lives in.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                anchor = ".".join(parts[: len(parts) - node.level + 1])
                base = f"{anchor}.{base}" if base else anchor
            found += [(node.lineno, f"{base}.{alias.name}") for alias in node.names]
    return sorted(found)


def engine_imports(source: str, package: str) -> list[str]:
    """Imports in ``source`` that name a module of ``ENGINE_PACKAGES``."""
    return [
        f"line {line}: {name}"
        for line, name in dotted_imports(source, package)
        if any(name == engine or name.startswith(engine + ".") for engine in ENGINE_PACKAGES)
    ]


@pytest.mark.parametrize(
    "module", MODEL_MODULES, ids=lambda path: str(path.relative_to(SRC))
)
def test_reference_model_imports_nothing_from_the_engine(module):
    assert engine_imports(module.read_text(), "repro.model") == []


def test_the_check_flags_a_planted_engine_import():
    source = (
        "import numpy as np\n"
        "from repro import errors\n"
        "from repro.model.layers import linear\n"
        "import repro.isa.compiler\n"
        "from repro import runtime, runtime_notes\n"
        "def stage(weights):\n"
        "    from repro.core.functional import DFXFunctionalSimulator\n"
        "    from ..parallel import partitioner\n"
        "    from . import numerics\n"
        "    return weights\n"
    )
    assert engine_imports(source, "repro.model") == [
        "line 4: repro.isa.compiler",
        "line 5: repro.runtime",
        "line 7: repro.core.functional.DFXFunctionalSimulator",
        "line 8: repro.parallel.partitioner",
    ]


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

"""``python -m repro.cli`` ends bad input in one ``error:`` line and exit 2.

``main()`` still raises (the in-process boundary cases in
``tests/test_boundaries.py`` call it directly); only the process entry turns
``ConfigurationError`` and ``PartitioningError`` into a usage-style exit.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize(
    "arguments, field",
    [
        ("run --model 345m --devices 4 --input 32 --output 0", "output_tokens"),
        ("run --model 345m --devices 3 --input 32 --output 32", "attention heads"),
        ("run --model 345m --devices 4 --input 1000 --output 100", "context window"),
        ("serve --rate nan", "arrival_rate_per_s"),
    ],
)
def test_input_error_exits_2_with_one_line(arguments, field):
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", *arguments.split()],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=False, timeout=120,
    )
    assert completed.returncode == 2, completed.stderr
    assert "Traceback" not in completed.stderr
    lines = completed.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), completed.stderr
    assert field in lines[0]
    assert completed.stdout == ""

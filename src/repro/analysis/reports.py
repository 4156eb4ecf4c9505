"""Plain-text report formatting for the scorecard, the CLI and examples.

The paper scorecard, the CLI and the examples print the same rows and series
the paper's tables and figures report; these helpers keep that formatting
consistent and dependency free (no plotting libraries are available offline).
"""

from __future__ import annotations

from typing import Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    float_format: str = "{:.2f}",
) -> str:
    """Render a simple fixed-width text table."""
    def render(cell: object) -> str:
        if isinstance(cell, float):
            return float_format.format(cell)
        return str(cell)

    rendered_rows = [[render(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def format_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[index]) for index, cell in enumerate(cells))

    lines = [format_row(list(headers)), format_row(["-" * width for width in widths])]
    lines.extend(format_row(row) for row in rendered_rows)
    return "\n".join(lines)


def format_fractions(fractions: dict[str, float]) -> str:
    """Render a phase -> share mapping as ``phase: 12.3%`` lines."""
    lines = []
    for phase, value in sorted(fractions.items(), key=lambda item: -item[1]):
        lines.append(f"{phase:>24s}: {value * 100:5.1f}%")
    return "\n".join(lines)

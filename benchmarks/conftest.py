"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table, figure-level claim or ablation from
the paper's evaluation (see DESIGN.md's experiment index) and prints the
reproduced rows next to the paper's reported values, so the textual output
of ``pytest benchmarks/ --benchmark-only`` doubles as the reproduction
report recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, Iterable, Sequence

import pytest

# The per-symbol reference paths live with the tests that use them
# (tests/reference_paths.py); the datapath speedup gates here time them.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Print an aligned table to stdout (captured by pytest -s / benchmark logs)."""
    rows = [tuple(str(cell) for cell in row) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    line = " | ".join(header.ljust(widths[i]) for i, header in enumerate(headers))
    separator = "-+-".join("-" * widths[i] for i in range(len(headers)))
    print()
    print(f"=== {title} ===")
    print(line)
    print(separator)
    for row in rows:
        print(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))


def relative_error(measured: float, reported: float) -> float:
    """Relative error of a measured value against the paper's reported value."""
    if reported == 0:
        return abs(measured)
    return abs(measured - reported) / abs(reported)


@pytest.fixture
def table_printer():
    """Fixture exposing :func:`print_table` to benchmarks."""
    return print_table

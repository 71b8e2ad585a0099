"""Shared helpers for the experiment scripts.

Every experiment module exposes ``run(scale=1.0, seeds=(...)) -> dict``
returning its rendered tables plus the boolean claim checks, and prints
them when executed directly.  The pytest wrappers in
``test_experiments.py`` call ``run`` at reduced scale and assert the
claim checks, so the whole suite is exercised by
``pytest benchmarks/test_experiments.py``.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Sequence

from repro.analysis.parallel import parallel_starmap, run_cells
from repro.analysis.tables import Table, banner

__all__ = [
    "Table", "banner", "emit", "experiment_main",
    "parallel_starmap", "run_cells", "avg_rows",
]


def avg_rows(rows: Sequence[dict]) -> dict:
    """Average per-seed measurement dicts field by field."""
    return {key: sum(r[key] for r in rows) / len(rows) for key in rows[0]}


def emit(result: dict) -> None:
    """Print an experiment's tables and claim verdicts."""
    print(banner(result["title"]))
    if result.get("note"):
        print(result["note"])
        print()
    for table in result["tables"]:
        print(table.render())
        print()
    print("claims:")
    for name, ok in result["claims"].items():
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
    print()


def experiment_main(run: Callable[..., dict]) -> None:
    """Standard __main__ entry: full scale, print, exit 1 on claim failure."""
    result = run()
    emit(result)
    if not all(result["claims"].values()):
        sys.exit(1)

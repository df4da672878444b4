"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one table or figure of the paper.  Results are
printed to stdout (so ``pytest benchmarks/ --benchmark-only -s`` shows the
regenerated rows/series) and also written to ``results/`` as plain-text
files.  Whole-campaign speed is measured separately, by ``perfbench/``
(see ``perfbench/README.md``).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
KERNEL_JSON = "BENCH_kernel.json"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where benchmarks drop their regenerated tables/series."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def save_result(results_dir):
    """Callable that writes one experiment's textual output to results/<name>.txt."""

    def _save(name: str, text: str) -> Path:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\n# --- {name} ---\n{text}\n")
        return path

    return _save


@pytest.fixture()
def save_kernel_json(results_dir):
    """Callable merging one benchmark section into results/BENCH_kernel.json
    (the machine-readable artifact the CI perf-regression job consumes)."""

    def _save(section: str, payload: dict) -> Path:
        path = results_dir / KERNEL_JSON
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            document = {"schema_version": 1}
        document[section] = payload
        path.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return path

    return _save

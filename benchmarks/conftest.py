"""Benchmark harness plumbing.

Each benchmark regenerates one of the paper's tables or figures and emits
the same rows/series the paper reports.  Tables are printed in the pytest
terminal summary (so they survive output capture) and also written to
``benchmarks/results/<name>.txt`` for later inspection.

Scale is controlled by the REPRO_BENCH_* environment variables documented
in :mod:`repro.experiments.config`; the defaults finish the full suite in a
few minutes on a laptop.

Observability: set ``REPRO_BENCH_LOG_LEVEL`` (e.g. ``info``/``debug``) to
see structured logs from the simulation stack, and ``REPRO_BENCH_JOURNAL``
to a path to capture the whole bench run as a JSONL journal (readable with
``python -m repro journal <path>``).  A metrics snapshot is appended to the
terminal summary after every run.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.exec.executor import BACKEND_ENV_VAR, WORKERS_ENV_VAR
from repro.experiments.config import ExperimentConfig
from repro.obs import (
    RunJournal,
    attach_journal,
    configure_logging,
    detach_journal,
    get_registry,
    metrics_snapshot,
)
from repro.utils.charts import ascii_chart, series_from_rows
from repro.utils.tables import format_table, write_csv

_RESULTS_DIR = Path(__file__).parent / "results"
_REPORTS: list[str] = []


@pytest.fixture(scope="session")
def config() -> ExperimentConfig:
    """One shared configuration (and graph cache) for the whole bench run."""
    return ExperimentConfig()


@pytest.fixture(scope="session", autouse=True)
def observability():
    """Wire REPRO_BENCH_LOG_LEVEL / REPRO_BENCH_JOURNAL into the obs layer."""
    level = os.environ.get("REPRO_BENCH_LOG_LEVEL")
    if level:
        configure_logging(level)
    path = os.environ.get("REPRO_BENCH_JOURNAL")
    if not path:
        yield None
        return
    journal = RunJournal(path)
    attach_journal(journal)
    try:
        yield journal
    finally:
        detach_journal(journal)
        journal.close()


@pytest.fixture
def report():
    """Emit a named table: shown in the terminal summary + saved to disk."""

    def emit(
        name: str,
        rows,
        columns=None,
        note: str | None = None,
        chart: tuple[str, str, str] | None = None,
    ) -> None:
        text = format_table(rows, columns=columns, title=name)
        if note:
            text += f"\n  note: {note}"
        if chart and rows:
            x_key, y_key, group_key = chart
            series = series_from_rows(rows, x_key, y_key, group_key)
            text += "\n\n" + ascii_chart(series, title=f"{name} [chart]")
        _REPORTS.append(text)
        _RESULTS_DIR.mkdir(exist_ok=True)
        safe = name.lower().replace(" ", "_").replace("/", "-")
        (_RESULTS_DIR / f"{safe}.txt").write_text(text + "\n")
        if rows:
            write_csv(rows, _RESULTS_DIR / f"{safe}.csv")
        payload = {
            "name": name,
            "backend": os.environ.get(BACKEND_ENV_VAR, "").strip() or "serial",
            "workers": int(os.environ.get(WORKERS_ENV_VAR) or 0) or None,
            "note": note,
            "rows": rows,
            # Full telemetry at emit time (cumulative over the bench run):
            # worker metric harvesting makes these backend-invariant, so a
            # benchmark row can be audited for how much simulation work
            # (jobs, cache traffic) actually produced it.
            "metrics": metrics_snapshot(),
        }
        (_RESULTS_DIR / f"{safe}.json").write_text(
            json.dumps(payload, indent=2, default=str) + "\n"
        )

    return emit


def pytest_terminal_summary(terminalreporter):
    if not _REPORTS:
        return
    terminalreporter.section("paper tables & figures (reproduced)")
    for text in _REPORTS:
        terminalreporter.write_line("")
        for line in text.splitlines():
            terminalreporter.write_line(line)
    metric_rows = get_registry().rows()
    if metric_rows:
        terminalreporter.write_line("")
        for line in format_table(
            metric_rows, title="observability metrics (this run)"
        ).splitlines():
            terminalreporter.write_line(line)

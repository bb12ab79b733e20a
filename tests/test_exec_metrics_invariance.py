"""Cross-backend telemetry invariance.

The worker metric harvest ships each process-backend job's registry delta
back to the submitting process, so ``metrics.snapshot()`` must report the
same simulation work no matter which backend ran it.  These tests run an
identical workload on serial/thread/process backends and compare the
work-proportional counters, and check that spans opened inside workers
journal with correct parentage (the acceptance criteria of the tracing
refactor).
"""

import json

import pytest

from repro.cascade.ic import IndependentCascade
from repro.cascade.simulate import estimate_competitive_spread, estimate_spread
from repro.exec.executor import Executor
from repro.obs import metrics
from repro.obs.journal import RunJournal, attach_journal, detach_journal
from repro.obs.tracetree import build_traces

#: Counters that must be backend-invariant: they count *work done*, not
#: scheduling details (queue waits and per-backend timings naturally vary).
WORK_COUNTERS = (
    "cascade.simulations",
    "estimate.spread_calls",
    "exec.batches",
    "exec.jobs_submitted",
    "exec.jobs_completed",
)


@pytest.fixture(autouse=True)
def _clean_registry():
    metrics.reset()
    yield
    metrics.reset()


def _run_workload(backend, karate):
    with Executor(backend, workers=2) as executor:
        estimate_spread(
            karate,
            IndependentCascade(0.2),
            [0, 5],
            rounds=6,
            rng=123,
            executor=executor,
        )
        estimate_competitive_spread(
            karate,
            IndependentCascade(0.2),
            [[0], [33]],
            rounds=4,
            rng=7,
            executor=executor,
        )


def _work_profile(backend, karate):
    metrics.reset()
    _run_workload(backend, karate)
    snap = metrics.snapshot()
    counters = {
        name: snap["counters"].get(name, 0) for name in WORK_COUNTERS
    }
    histogram_counts = {
        name: stats["count"]
        for name, stats in snap["histograms"].items()
        if name.startswith(("cascade.", "span.exec.job"))
    }
    return counters, histogram_counts


class TestBackendInvariance:
    def test_serial_thread_process_report_identical_work(self, karate):
        serial = _work_profile("serial", karate)
        thread = _work_profile("thread", karate)
        process = _work_profile("process", karate)
        assert serial == thread
        assert serial == process
        # Sanity: the workload actually did something.
        counters = serial[0]
        assert counters["cascade.simulations"] == 10
        assert counters["exec.jobs_completed"] == counters["exec.jobs_submitted"] > 0

    def test_process_histogram_merge_preserves_moments(self, karate):
        metrics.reset()
        _run_workload("serial", karate)
        serial = metrics.snapshot()["histograms"]["cascade.group1.spread"]
        metrics.reset()
        _run_workload("process", karate)
        merged = metrics.snapshot()["histograms"]["cascade.group1.spread"]
        # Same seeds → bit-identical simulations; the merged worker deltas
        # must reproduce the serial histogram's aggregates.
        assert merged["count"] == serial["count"]
        assert merged["total"] == pytest.approx(serial["total"])
        assert merged["mean"] == pytest.approx(serial["mean"])
        assert merged["std"] == pytest.approx(serial["std"], abs=1e-9)
        assert merged["min"] == serial["min"]
        assert merged["max"] == serial["max"]


class TestCrossBoundaryTracing:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_job_spans_parent_under_batch_span(self, backend, karate, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        attach_journal(journal)
        try:
            with Executor(backend, workers=2) as executor:
                estimate_spread(
                    karate,
                    IndependentCascade(0.2),
                    [0],
                    rounds=5,
                    rng=1,
                    executor=executor,
                )
            journal.close()
        finally:
            detach_journal(journal)
        events = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line.strip()
        ]
        (trace,) = build_traces(events)
        (root,) = trace.roots
        assert root.name == "exec.batch"
        assert not root.orphaned
        job_names = [child.name for child in root.children]
        assert job_names == ["exec.job"]  # one job: rounds ride inside it
        job = root.children[0]
        assert job.record["trace_id"] == root.record["trace_id"]
        assert job.record["parent_id"] == root.record["span_id"]

    def test_journals_identical_shape_across_backends(self, karate, tmp_path):
        shapes = {}
        for backend in ("serial", "thread", "process"):
            path = tmp_path / f"{backend}.jsonl"
            journal = RunJournal(path)
            attach_journal(journal)
            try:
                with Executor(backend, workers=2) as executor:
                    estimate_competitive_spread(
                        karate,
                        IndependentCascade(0.2),
                        [[0], [33]],
                        rounds=4,
                        rng=7,
                        executor=executor,
                    )
                journal.close()
            finally:
                detach_journal(journal)
            events = [
                json.loads(line)
                for line in path.read_text().splitlines()
                if line.strip()
            ]
            shapes[backend] = sorted(
                (e["event"], e.get("name", "")) for e in events
            )
        assert shapes["serial"] == shapes["thread"] == shapes["process"]

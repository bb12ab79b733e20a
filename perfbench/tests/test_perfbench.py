"""The benchmark's own checks, on seconds-scale copies of its workloads.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import hostspeed, layers, oracle
from perfbench.make_reference import reference_for
from perfbench.run import END_TO_END, SETUP_REPEATS, measure, summary
from perfbench.tracer import ENTRY_POINTS, EntryPoint, Tracer
from perfbench.workloads import WORKLOADS, tiny

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def hep_ic():
    workload = tiny(WORKLOADS["hep-ic"])
    return workload, reference_for(workload, 6)


def _names(section: str) -> list[tuple[str, str]]:
    return [(m["name"], m["unit"]) for m in BENCHMARK[section]]


def test_declared_metrics_match_benchmark_json():
    assert list(END_TO_END) == _names("end_to_end")
    assert [(m.name, m.unit) for m in layers.LAYER_METRICS] == _names("per_layer")
    assert sorted(WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("traced", [False, True])
def test_printed_metric_names_match_benchmark_json(hep_ic, traced):
    workload, reference = hep_ic
    run, result = measure(workload, seed=3, seconds=0, traced=traced, reference=reference)
    assert run.problems == []
    assert result["correct"] and result["failed"] == 0
    section = "per_layer" if traced else "end_to_end"
    printed = [(name, m["unit"]) for name, m in result["metrics"].items()]
    assert printed == _names(section)
    if not traced:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_delta_stream_prints_every_end_to_end_metric():
    run, result = measure(tiny(WORKLOADS["delta-stream"]), seed=3, seconds=0, traced=False)
    assert run.problems == []
    assert list(result["metrics"]) == [name for name, _ in END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_times_are_scaled_by_the_host_probe_around_them():
    reference = hostspeed.REFERENCE_PROBE_S
    assert hostspeed.Timing(2.0, reference).seconds == pytest.approx(2.0)
    # A host running the probe twice as slow halves the reported time.
    assert hostspeed.Timing(2.0, 2 * reference).seconds == pytest.approx(1.0)
    assert hostspeed.probe() > 0
    run, _ = measure(tiny(WORKLOADS["hep-ic"]), seed=2, seconds=0, traced=False, reference=None)
    for name, values in run.samples.items():
        assert len(values) == len(run.wall[name])
    # Two probes per timed op and per set-up repetition.
    assert len(run.probes) == 2 * (run.attempted + SETUP_REPEATS)


def test_spans_nest_and_self_time_is_never_negative(hep_ic):
    workload, reference = hep_ic
    run, _ = measure(workload, seed=4, seconds=0, traced=True, reference=reference)
    spans = run.tracer.spans
    assert any(span.name == "reach" for span in spans)
    for span in spans:
        assert span.end >= span.start
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
    assert min(run.tracer.self_times()) >= 0.0


def test_percentile_needs_ten_samples_beyond_it():
    assert layers.tail_percentile(list(range(1, 101)), 90) == 90
    assert layers.tail_percentile(list(range(1, 100)), 90) is None
    assert layers.tail_percentile([], 90) is None
    run, _ = measure(tiny(WORKLOADS["delta-stream"]), seed=5, seconds=0, traced=False)
    facts = summary(run)
    assert facts["deltas"] == 3 and facts["delta_p90_s"] is None
    assert facts["delta_p50_s"] > 0


def test_guard_reports_a_missing_wrapper_as_missing_not_zero(hep_ic):
    workload, reference = hep_ic
    renamed = tuple(
        EntryPoint(ep.module, "all_reach_sizes_renamed", ep.span, ep.attrs)
        if ep.span == "reach"
        else ep
        for ep in ENTRY_POINTS
    )
    run, result = measure(
        workload, seed=3, seconds=0, traced=True, reference=reference, entry_points=renamed
    )
    reach = {"reach.calls", "reach.self_s", "reach.nodes_per_s"}
    assert reach <= set(run.notes["missing"])
    assert not reach & set(result["metrics"])
    assert result["correct"] is False


def test_guard_flags_an_expected_layer_that_was_never_called():
    tracer = Tracer()
    assert "reach" not in tracer.absent and tracer.calls["reach"] == 0
    counters = layers.COUNTERS
    assert "reach.calls" in layers.missing_metrics(tracer, ["reach"], counters)
    assert "reach.calls" not in layers.missing_metrics(tracer, [], counters)
    assert "cache.hit_ratio" in layers.missing_metrics(tracer, [], ["cache.hits"])


def test_tracer_restores_the_program():
    from repro.cascade import reachability
    from repro.exec import jobs

    original = reachability.all_reach_sizes
    tracer = Tracer()
    with tracer.installed():
        assert jobs.all_reach_sizes is not original
        assert reachability.all_reach_sizes is jobs.all_reach_sizes
    assert jobs.all_reach_sizes is original and reachability.all_reach_sizes is original
    assert not tracer.absent


def test_oracle_recomputes_the_equilibrium_independently():
    import repro
    from repro.core.getreal import symmetrize

    rng = np.random.default_rng(0)
    payoffs = rng.uniform(0, 10, size=(3, 3, 3, 3))
    game = repro.NormalFormGame(payoffs)
    assert np.allclose(oracle.symmetrized_payoff(payoffs), symmetrize(game).payoffs[..., 0])
    mixture = repro.symmetric_mixed_equilibrium(symmetrize(game))
    assert oracle.check_equilibrium(payoffs, mixture) == []
    # Prisoner's dilemma: cooperating (action 0) is dominated.
    dilemma = np.array([[[3, 3], [0, 5]], [[5, 0], [1, 1]]], dtype=float)
    assert oracle.check_equilibrium(dilemma, [0.0, 1.0]) == []
    assert oracle.check_equilibrium(dilemma, [1.0, 0.0]) != []


def test_oracle_sanity_and_reference_checks():
    payoffs = np.array([[[3.0, 4.0], [2.0, 6.0]], [[6.0, 2.0], [4.0, 4.0]]])
    assert oracle.check_sanity(payoffs, num_nodes=10) == []
    assert oracle.check_sanity(payoffs, num_nodes=7) != []
    assert oracle.check_sanity(-payoffs, num_nodes=10) != []
    sym = oracle.symmetrized_payoff(payoffs)
    reference = {"mean": sym.tolist(), "sd": np.ones_like(sym).tolist(), "seeds": [1] * 12}
    quiet, noisy = np.zeros_like(payoffs), np.full_like(payoffs, 3.0)
    assert oracle.check_reference(payoffs + 1.0, quiet, reference) == []
    assert len(oracle.check_reference(payoffs + 10.0, quiet, reference)) == sym.size
    # An answer whose own Monte-Carlo stderr is larger widens its interval.
    assert oracle.check_reference(payoffs + 10.0, noisy, reference) == []
    assert oracle.check_reference(payoffs[..., :1], quiet, reference) != []


def test_symmetrized_cells_count_their_pooled_cells():
    assert oracle.pooled_cells((2, 2)).tolist() == [[2, 2], [2, 2]]
    counts = oracle.pooled_cells((3, 3, 3))
    assert counts[0, 1, 1] == 3 and counts[0, 1, 2] == 6 and counts[0, 0, 0] == 3


def test_runner_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    args = [*BENCHMARK["command"], "--workload", "hep-ic", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable if a == "python3" else a for a in args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_identity_check_is_bitwise_on_the_tensor_only():
    from types import SimpleNamespace

    def result(payoffs, mixture):
        return SimpleNamespace(
            game=SimpleNamespace(payoffs=np.asarray(payoffs)),
            mixture=SimpleNamespace(probabilities=np.asarray(mixture)),
        )

    base = result([[1.0, 2.0]], [0.25, 0.75])
    assert oracle.check_identical(base, result([[1.0, 2.0]], [0.25 + 5e-14, 0.75 - 5e-14]), "x") == []
    assert oracle.check_identical(base, result([[1.0, 2.0 + 1e-15]], [0.25, 0.75]), "x") != []
    assert oracle.check_identical(base, result([[1.0, 2.0]], [0.3, 0.7]), "x") != []

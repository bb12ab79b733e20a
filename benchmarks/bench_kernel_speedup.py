"""Kernel speedup on the Figure-5 (hep) competitive-spread workload.

Times the two-group hep competitive diffusions behind the Figure 5 curves,
run by the frontier-batched numpy kernel that every simulation uses
(``run_competitive_cascade`` / ``run_competitive_threshold``) and by the
private python reference walks of :mod:`repro.cascade.kernels`, called
directly, for each diffusion model (IC, WC, LT).  Two properties are
asserted:

* **speedup** — the numpy kernel is at least 5x faster than the python
  reference on every model (the vectorization's reason to exist);
* **equivalence** — the two walks' spread means agree within a loose
  band (the exact 3-pooled-stderr contract is pinned by
  ``tests/test_kernel_equivalence.py``; the bench check only guards against
  gross semantic drift at bench scale).

Seed selection runs once outside the timed section, so the timings compare
pure simulation work on one core; kernel and backend speedups compose (see
``bench_exec_scaling.py``).
"""

import numpy as np

from repro.algorithms import DegreeDiscount, SingleDiscount
from repro.cascade.competitive import ClaimRule, TieBreakRule, assign_initiators
from repro.cascade.kernels import (
    _competitive_cascade_python,
    _competitive_threshold_python,
    run_competitive_cascade,
    run_competitive_threshold,
)
from repro.cascade.lt import LinearThreshold
from repro.utils.rng import as_rng
from repro.utils.timing import Stopwatch

#: (cascade walk, threshold walk) per implementation.
WALKS = {
    "python": (_competitive_cascade_python, _competitive_threshold_python),
    "numpy": (run_competitive_cascade, run_competitive_threshold),
}

DATASET = "hep"
MIN_SPEEDUP = 5.0
# Below this node count (smoke runs with a tiny REPRO_BENCH_NODES) the
# per-round vectorization overhead is not amortized; only numpy > python
# is asserted there, the 5x floor applies from the default scale up.
FULL_ASSERT_NODES = 1000


def _models(config):
    return [
        ("ic", config.model("ic")),
        ("wc", config.model("wc")),
        ("lt", LinearThreshold()),
    ]


def _mean_spreads(graph, model, profile, rounds, seed, kernel):
    """Per-group mean spreads of *rounds* competitive diffusions."""
    cascade_walk, threshold_walk = WALKS[kernel]
    threshold = isinstance(model, LinearThreshold)
    probs = None if threshold else model.edge_probabilities(graph)
    rng = as_rng(seed)
    spreads = np.zeros((rounds, len(profile)))
    for i in range(rounds):
        initiators = assign_initiators(
            graph.num_nodes, profile, TieBreakRule.UNIFORM, rng
        )
        if threshold:
            owner, _, _ = threshold_walk(graph, initiators, ClaimRule.PROPORTIONAL, rng)
        else:
            owner, _, _ = cascade_walk(
                graph, probs, initiators, ClaimRule.PROPORTIONAL, rng
            )
        spreads[i] = np.bincount(owner[owner >= 0], minlength=len(profile))
    return spreads.mean(axis=0).tolist()


def _timed_estimate(config, graph, model, profile, kernel):
    # Warm code paths and the graph's CSR caches outside the clock.
    _mean_spreads(graph, model, profile, 2, 1, kernel)
    watch = Stopwatch()
    with watch:
        means = _mean_spreads(
            graph, model, profile, max(40, config.rounds), config.seed, kernel
        )
    return watch.elapsed, means


def test_kernel_speedup_hep(config, report):
    graph = config.load(DATASET)
    rng = as_rng(config.seed)
    k = min(20, max(config.ks))
    profile = [
        DegreeDiscount(config.ic_probability).select(graph, k, rng),
        SingleDiscount().select(graph, k, rng),
    ]

    rows = []
    speedups = {}
    for name, model in _models(config):
        seconds = {}
        means = {}
        for kernel in ("python", "numpy"):
            seconds[kernel], means[kernel] = _timed_estimate(
                config, graph, model, profile, kernel
            )
        speedup = seconds["python"] / seconds["numpy"]
        speedups[name] = speedup
        rows.append(
            {
                "model": name,
                "python_s": round(seconds["python"], 3),
                "numpy_s": round(seconds["numpy"], 3),
                "speedup": round(speedup, 1),
            }
        )
        # Gross-drift guard only; the statistical contract lives in tier 1.
        for group in range(2):
            py, vec = means["python"][group], means["numpy"][group]
            assert abs(py - vec) <= 0.15 * max(py, vec) + 5.0, (
                f"{name} group {group}: python mean {py:.1f} vs "
                f"numpy mean {vec:.1f}"
            )

    floor = MIN_SPEEDUP if graph.num_nodes >= FULL_ASSERT_NODES else 1.0
    report(
        "Kernel speedup - hep competitive spread",
        rows,
        note=f"Figure-5 workload, one core; >= {floor}x asserted",
    )
    for name, speedup in speedups.items():
        assert speedup >= floor, (
            f"numpy kernel only {speedup:.1f}x faster than python on {name} "
            f"(need >= {floor}x)"
        )

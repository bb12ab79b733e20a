"""Per-layer metrics from benchmark-side spans, plus the percentile rule.

Every layer metric is derived per *operation*: an ``op`` root span that the
benchmark opens around one cold GetReal answer or one edge delta.  Times
and counts are summed over the op's descendant spans, and the reported
value is the median over ops.  Rates pool all ops.

A metric is **missing** (never 0) when its entry point no longer exists,
or exists but was never called on a workload that expects it, or when the
program counter it reads is gone.  A 0 is reported only for a layer the
workload is not expected to touch (e.g. the reach DP on ``phy-r3``).
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from perfbench.tracer import Tracer

#: A percentile above the median is emitted only with this many samples beyond it.
MIN_BEYOND = 10

#: Strategy labels of every workload; one ``algorithms.select_s.<label>`` each.
SELECT_LABELS = ("mgic", "ddic", "mgwc", "sdwc", "degree", "pagerank")

#: Program counters read as deltas around traced ops.
COUNTERS = (
    "cascade.pool_samples",
    "cascade.pool_shared",
    "cascade.pool_mask_bytes",
    "cache.hits",
    "cache.misses",
)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail_percentile(values: Sequence[float], q: float) -> float | None:
    """Nearest-rank *q*-th percentile, or None unless >= 10 samples lie beyond it."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if len(ordered) - rank < MIN_BEYOND:
        return None
    return float(ordered[rank - 1])


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    span: str | None  # entry-point span the value depends on
    counters: tuple[str, ...] = ()  # program counters it depends on


def _select(label: str) -> LayerMetric:
    return LayerMetric(f"algorithms.select_s.{label}", "s", "algorithms.select")


#: Every per-layer metric, in the order BENCHMARK.json lists them.
LAYER_METRICS: tuple[LayerMetric, ...] = (
    LayerMetric("reach.calls", "count", "reach"),
    LayerMetric("reach.self_s", "s", "reach"),
    LayerMetric("reach.nodes_per_s", "1/s", "reach"),
    LayerMetric("snapshots.marginal_gain_calls", "count", "snapshots.marginal_gain"),
    LayerMetric("snapshots.marginal_gain_s", "s", "snapshots.marginal_gain"),
    LayerMetric("pools.masks_s", "s", "pools.masks"),
    LayerMetric("pools.initial_gains_s", "s", "pools.initial_gains"),
    LayerMetric(
        "pools.reuse_ratio", "ratio", "pools.masks", ("cascade.pool_samples", "cascade.pool_shared")
    ),
    LayerMetric("pools.mask_bytes", "B", "pools.masks", ("cascade.pool_mask_bytes",)),
    *(_select(label) for label in SELECT_LABELS),
    LayerMetric("algorithms.repair_celf_s", "s", "algorithms.repair_celf"),
    LayerMetric("sim.job_s", "s", "sim.job"),
    LayerMetric("sim.rounds", "count", "sim.job"),
    LayerMetric("sim.rounds_per_s", "1/s", "sim.job"),
    LayerMetric("exec.run_s", "s", "exec.run"),
    LayerMetric("exec.jobs", "count", "exec.run"),
    LayerMetric("exec.overhead_s", "s", "exec.run"),
    LayerMetric("payoff.estimate_s", "s", "payoff.estimate"),
    LayerMetric("payoff.profiles_simulated", "count", "payoff.estimate"),
    LayerMetric("payoff.self_s", "s", "payoff.estimate"),
    LayerMetric("game.solve_s", "s", "game.solve"),
    LayerMetric("cache.hit_ratio", "ratio", None, ("cache.hits", "cache.misses")),
    LayerMetric("cache.hits", "count", None, ("cache.hits",)),
    LayerMetric("cache.misses", "count", None, ("cache.misses",)),
    LayerMetric("cache.invalidate_s", "s", "cache.invalidate"),
    LayerMetric("graphs.build_s", "s", "graphs.build"),
    LayerMetric("graphs.merge_delta_s", "s", "graphs.merge_delta"),
    LayerMetric("incremental.apply_delta_s", "s", "incremental.apply_delta"),
    LayerMetric("incremental.reselect_s", "s", "incremental.reselect"),
    LayerMetric("incremental.repair_evaluations", "count", "incremental.reselect"),
    LayerMetric("incremental.fallback_ratio", "ratio", "incremental.reselect"),
    LayerMetric("trace.overhead_frac", "ratio", None),
)


def missing_metrics(
    tracer: Tracer,
    expects: Iterable[str],
    counters_present: Iterable[str],
) -> list[str]:
    """Names of layer metrics that cannot be reported honestly (the guard)."""
    expected = set(expects)
    present = set(counters_present)
    missing = []
    for metric in LAYER_METRICS:
        span = metric.span
        gone = span is not None and (
            span in tracer.absent or (span in expected and tracer.calls.get(span, 0) == 0)
        )
        if gone or any(name not in present for name in metric.counters):
            missing.append(metric.name)
    return missing


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(tracer: Tracer, op_name: str, overhead_frac: float) -> dict[str, float]:
    """Value of every layer metric over the traced ops named *op_name*.

    Op spans carry the program-counter increments measured around them in
    ``attrs["counters"]``.  Cache metrics pool every ``op.*`` span, cold
    and warm; ``graphs.build_s`` is the median of every ``graphs.build``
    span, which the benchmark records during set-up, outside any op.
    """
    spans = tracer.spans
    self_times = tracer.self_times()
    kids = tracer.children()
    roots = [i for i, span in enumerate(spans) if span.name == op_name]
    per_op: dict[str, list[float]] = {}
    pooled: dict[str, float] = {}

    def add(name: str, value: float) -> None:
        per_op.setdefault(name, []).append(value)

    def pool(name: str, value: float) -> None:
        pooled[name] = pooled.get(name, 0.0) + value

    for root in roots:
        ids = _descendants(kids, root)
        by_name: dict[str, list[int]] = {}
        for i in ids:
            by_name.setdefault(spans[i].name, []).append(i)

        def named(name: str) -> list[int]:
            return by_name.get(name, [])

        def total(name: str) -> float:
            return sum(spans[i].duration for i in named(name))

        reach = named("reach")
        add("reach.calls", len(reach))
        add("reach.self_s", sum(self_times[i] for i in reach))
        pool("reach.nodes", sum(spans[i].attrs.get("nodes", 0) for i in reach))
        pool("reach.seconds", total("reach"))
        add("snapshots.marginal_gain_calls", len(named("snapshots.marginal_gain")))
        add("snapshots.marginal_gain_s", total("snapshots.marginal_gain"))
        add("pools.masks_s", total("pools.masks"))
        add("pools.initial_gains_s", total("pools.initial_gains"))
        for label in SELECT_LABELS:
            add(
                f"algorithms.select_s.{label}",
                sum(
                    spans[i].duration
                    for i in named("algorithms.select")
                    if spans[i].attrs.get("label") == label
                ),
            )
        add("algorithms.repair_celf_s", total("algorithms.repair_celf"))
        rounds = sum(spans[i].attrs.get("rounds", 0) for i in named("sim.job"))
        add("sim.job_s", total("sim.job"))
        add("sim.rounds", rounds)
        pool("sim.rounds", rounds)
        pool("sim.seconds", total("sim.job"))
        runs = named("exec.run")
        add("exec.run_s", total("exec.run"))
        add("exec.jobs", sum(spans[i].attrs.get("jobs", 0) for i in runs))
        add(
            "exec.overhead_s",
            sum(spans[i].duration - spans[i].attrs.get("job_seconds", 0.0) for i in runs),
        )
        estimates = named("payoff.estimate")
        add("payoff.estimate_s", total("payoff.estimate"))
        add("payoff.self_s", sum(self_times[i] for i in estimates))
        add(
            "payoff.profiles_simulated",
            sum(1 for e in estimates for i in _descendants(kids, e) if spans[i].name == "sim.job"),
        )
        add("game.solve_s", total("game.solve"))
        add("cache.invalidate_s", total("cache.invalidate"))
        add("graphs.merge_delta_s", total("graphs.merge_delta"))
        add("incremental.apply_delta_s", total("incremental.apply_delta"))
        add("incremental.reselect_s", total("incremental.reselect"))
        reselects = named("incremental.reselect")
        add(
            "incremental.repair_evaluations",
            sum(spans[i].attrs.get("evaluations", 0) for i in reselects),
        )
        pool("reselects", len(reselects))
        pool("fallbacks", sum(1 for i in reselects if spans[i].attrs.get("fallback")))
        counters = spans[root].attrs.get("counters", {})
        add("pools.mask_bytes", counters.get("cascade.pool_mask_bytes", 0))
        pool("pool_samples", counters.get("cascade.pool_samples", 0))
        pool("pool_shared", counters.get("cascade.pool_shared", 0))

    values = {name: median(samples) for name, samples in per_op.items()}
    values["reach.nodes_per_s"] = _ratio(pooled.get("reach.nodes", 0), pooled.get("reach.seconds", 0))
    values["sim.rounds_per_s"] = _ratio(pooled.get("sim.rounds", 0), pooled.get("sim.seconds", 0))
    values["incremental.fallback_ratio"] = _ratio(
        pooled.get("fallbacks", 0), pooled.get("reselects", 0)
    )
    shared = pooled.get("pool_shared", 0)
    values["pools.reuse_ratio"] = _ratio(shared, pooled.get("pool_samples", 0) + shared)
    ops = [span for span in spans if span.name.startswith("op.")]
    hits = sum(span.attrs.get("counters", {}).get("cache.hits", 0) for span in ops)
    misses = sum(span.attrs.get("counters", {}).get("cache.misses", 0) for span in ops)
    values["cache.hits"] = _ratio(hits, len(ops))
    values["cache.misses"] = _ratio(misses, len(ops))
    values["cache.hit_ratio"] = _ratio(hits, hits + misses)
    builds = [span.duration for span in spans if span.name == "graphs.build"]
    values["graphs.build_s"] = median(builds) if builds else 0.0
    values["trace.overhead_frac"] = overhead_frac
    # Without a single traced op the per-op metrics do not exist: missing.
    return {m.name: float(values[m.name]) for m in LAYER_METRICS if m.name in values}


def _descendants(kids: list[list[int]], root: int) -> list[int]:
    out: list[int] = []
    pending = list(kids[root])
    while pending:
        index = pending.pop()
        out.append(index)
        pending.extend(kids[index])
    return out

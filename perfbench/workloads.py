"""The benchmark's workloads: each pins one problem; ``--seed`` drives its randomness.

The graph, model, strategy space, r, k and rounds are fixed per workload.
The seed picks the RNG stream of every answer and, on ``delta-stream``,
the pool identity and the edge deltas.  Kernel, backend and symmetry are
left at the program's defaults, so a change of default is measured.
See ``NOTES.md`` for why each workload exists and its layer split.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

import numpy as np


@dataclass(frozen=True)
class GetRealWorkload:
    """Repeated cold and warm GetReal answers on one pinned problem."""

    name: str
    dataset: str
    scale: float
    model: str  # "ic" or "wc"
    probability: float
    strategies: tuple[str, ...]
    num_snapshots: int
    num_groups: int
    k: int
    rounds: int
    expects: tuple[str, ...]

    def params(self) -> dict[str, Any]:
        """The problem parameters a reference tensor is recorded for."""
        return {k: v for k, v in dataclasses.asdict(self).items() if k != "expects"}


@dataclass(frozen=True)
class DeltaWorkload:
    """Incremental session: cold bring-ups, then a closed loop of edge deltas."""

    name: str
    nodes: int
    graph_seed: int
    probability: float
    num_snapshots: int
    k: int
    removed: int
    added: int
    min_deltas: int
    expects: tuple[str, ...]

    def params(self) -> dict[str, Any]:
        return {k: v for k, v in dataclasses.asdict(self).items() if k != "expects"}


_GETREAL_LAYERS = ("algorithms.select", "sim.job", "exec.run", "payoff.estimate", "game.solve", "graphs.build")
_SNAPSHOT_LAYERS = ("reach", "snapshots.marginal_gain", "pools.masks", "pools.initial_gains")

WORKLOADS: dict[str, GetRealWorkload | DeltaWorkload] = {
    w.name: w
    for w in (
        GetRealWorkload(
            name="hep-ic",
            dataset="hep",
            scale=0.05,
            model="ic",
            probability=0.05,
            strategies=("mgic", "ddic"),
            num_snapshots=10,
            num_groups=2,
            k=20,
            rounds=5,
            expects=_GETREAL_LAYERS + _SNAPSHOT_LAYERS,
        ),
        GetRealWorkload(
            name="hep-wc",
            dataset="hep",
            scale=0.05,
            model="wc",
            probability=0.0,
            strategies=("mgwc", "sdwc"),
            num_snapshots=10,
            num_groups=2,
            k=20,
            rounds=5,
            expects=_GETREAL_LAYERS + _SNAPSHOT_LAYERS,
        ),
        GetRealWorkload(
            name="phy-r3",
            dataset="phy",
            scale=0.05,
            model="ic",
            probability=0.05,
            strategies=("ddic", "degree", "pagerank"),
            num_snapshots=0,
            num_groups=3,
            k=20,
            rounds=2,
            expects=_GETREAL_LAYERS,
        ),
        DeltaWorkload(
            name="delta-stream",
            nodes=5_000,
            graph_seed=50_000,
            probability=0.02,
            num_snapshots=4,
            k=10,
            removed=5,
            added=5,
            min_deltas=110,
            expects=(
                "reach",
                "snapshots.marginal_gain",
                "pools.masks",
                "algorithms.repair_celf",
                "cache.invalidate",
                "graphs.build",
                "graphs.merge_delta",
                "incremental.select",
                "incremental.apply_delta",
                "incremental.reselect",
            ),
        ),
    )
}


def tiny(workload: GetRealWorkload | DeltaWorkload) -> GetRealWorkload | DeltaWorkload:
    """A seconds-scale copy of *workload*, for warm-up and the benchmark's tests."""
    if isinstance(workload, GetRealWorkload):
        return dataclasses.replace(
            workload,
            scale=0.02,
            num_snapshots=min(workload.num_snapshots, 2),
            k=4,
            rounds=2,
        )
    return dataclasses.replace(workload, nodes=400, k=3, min_deltas=3)


def stream_seed(seed: int, *path: int) -> int:
    """A 63-bit seed derived from the workload seed and a position."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(2, np.uint64)[0] >> 1)


# ----------------------------------------------------------------- builders
# Imports of repro stay inside the functions: the runner scrubs REPRO_*
# from the environment before anything of the program is imported.


def build_graph(workload: GetRealWorkload | DeltaWorkload) -> Any:
    import repro

    if isinstance(workload, GetRealWorkload):
        return getattr(repro, workload.dataset)(scale=workload.scale)
    return repro.powerlaw_configuration(workload.nodes, workload.nodes, rng=workload.graph_seed)


def build_model(workload: GetRealWorkload | DeltaWorkload) -> Any:
    from repro.cascade import IndependentCascade, WeightedCascade

    if isinstance(workload, GetRealWorkload) and workload.model == "wc":
        return WeightedCascade()
    return IndependentCascade(workload.probability)


def build_strategies(workload: GetRealWorkload) -> list[Any]:
    from repro.algorithms import get_algorithm

    kwargs: dict[str, dict[str, Any]] = {
        "mgic": {"probability": workload.probability, "num_snapshots": workload.num_snapshots},
        "mgwc": {"num_snapshots": workload.num_snapshots},
        "ddic": {"probability": workload.probability},
    }
    return [get_algorithm(name, **kwargs.get(name, {})) for name in workload.strategies]


def next_delta(graph: Any, workload: DeltaWorkload, rng: np.random.Generator) -> Any:
    """Remove ``removed`` existing arcs and add ``added`` random non-loop arcs."""
    from repro.graphs.delta import EdgeDelta

    src, dst = graph.edge_array()
    picks = rng.choice(src.size, size=workload.removed, replace=False)
    removed = np.column_stack([src[picks], dst[picks]])
    u = rng.integers(0, graph.num_nodes, size=workload.added)
    v = (u + rng.integers(1, graph.num_nodes, size=workload.added)) % graph.num_nodes
    return EdgeDelta.of(added=np.column_stack([u, v]), removed=removed)

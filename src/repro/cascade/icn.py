"""IC-N: Independent Cascade with Negative opinions (Chen et al., SDM'11).

Cited as [6] in the paper's related work.  Product quality enters the
diffusion: when a node adopts, it turns *negative* with probability
``1 − q`` (a bad experience) and then spreads negativity — its neighbours
who activate through it become negative deterministically.  The quantity
maximized is the expected number of **positive** adopters.

Single-group model: the paper's competitive engine attributes nodes to
groups, whereas IC-N attributes sentiment within one campaign.  The class
deliberately reports positive adopters from :meth:`simulate`, so every
spread estimator and seed-selection algorithm in this library maximizes
positive influence under IC-N without modification.  ``sample_live_mask``
raises — positive spread is not a reachability quantity, so snapshot
greedy (MixGreedy) does not apply; use CELF-free heuristics or RIS-free
selectors (DegreeDiscount and friends) or plain Monte-Carlo greedy.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.cascade.base import CascadeModel
from repro.errors import CascadeError
from repro.graphs.digraph import DiGraph
from repro.utils.rng import RandomSource, as_rng
from repro.utils.validation import check_probability


class NegativeAwareCascade(CascadeModel):
    """IC-N with edge probability *p* and quality factor *q*.

    ``q = 1`` reduces exactly to IC (verified by the test suite); lower
    *q* shrinks the positive spread super-linearly because negativity
    propagates deterministically once it appears.
    """

    name = "icn"

    def __init__(self, probability: float = 0.01, quality: float = 0.9) -> None:
        self.probability = check_probability(probability, "probability")
        self.quality = check_probability(quality, "quality")

    def edge_probabilities(self, graph: DiGraph) -> np.ndarray:
        return np.full(graph.num_edges, self.probability)

    def sample_live_mask(self, graph: DiGraph, rng: RandomSource = None) -> np.ndarray:
        raise CascadeError(
            "IC-N's positive spread is not a live-edge reachability "
            "quantity; snapshot-based algorithms do not apply"
        )

    def simulate(
        self,
        graph: DiGraph,
        seeds: Sequence[int],
        rng: RandomSource = None,
    ) -> np.ndarray:
        """One IC-N diffusion; returns the **positive** adopter indicator.

        IC-N's per-node quality sampling has no vectorized kernel, so
        this is a per-node walk.
        """
        generator = as_rng(rng)
        n = graph.num_nodes
        # state: 0 inactive, 1 positive, 2 negative.
        state = np.zeros(n, dtype=np.int8)
        frontier: list[int] = []
        for s in seeds:
            if not 0 <= s < n:
                raise CascadeError(f"seed {s} out of range [0, {n})")
            if state[s] == 0:
                # Seeds sample their own experience too (Chen et al.).
                state[s] = 1 if generator.random() < self.quality else 2
                frontier.append(int(s))

        while frontier:
            next_frontier: list[int] = []
            for u in frontier:
                negative_parent = state[u] == 2
                # IC-N's per-node quality draw: no vectorized kernel form
                nbrs = graph.out_neighbors(u)  # reprolint: disable=RP007
                if nbrs.size == 0:
                    continue
                hits = generator.random(nbrs.size) < self.probability
                for v in nbrs[hits]:
                    v = int(v)
                    if state[v] != 0:
                        continue
                    if negative_parent:
                        state[v] = 2  # negativity dominates
                    else:
                        state[v] = (
                            1 if generator.random() < self.quality else 2
                        )
                    next_frontier.append(v)
            frontier = next_frontier
        return state == 1

    def sentiment_spread(
        self,
        graph: DiGraph,
        seeds: Sequence[int],
        rng: RandomSource = None,
    ) -> tuple[int, int]:
        """One simulation's (positive count, negative count)."""
        generator = as_rng(rng)
        n = graph.num_nodes
        state = np.zeros(n, dtype=np.int8)
        frontier: list[int] = []
        for s in seeds:
            if not 0 <= s < n:
                raise CascadeError(f"seed {s} out of range [0, {n})")
            if state[s] == 0:
                state[s] = 1 if generator.random() < self.quality else 2
                frontier.append(int(s))
        while frontier:
            next_frontier: list[int] = []
            for u in frontier:
                negative_parent = state[u] == 2
                # IC-N's per-node quality draw: no vectorized kernel form
                nbrs = graph.out_neighbors(u)  # reprolint: disable=RP007
                if nbrs.size == 0:
                    continue
                hits = generator.random(nbrs.size) < self.probability
                for v in nbrs[hits]:
                    v = int(v)
                    if state[v] != 0:
                        continue
                    state[v] = 2 if negative_parent else (
                        1 if generator.random() < self.quality else 2
                    )
                    next_frontier.append(v)
            frontier = next_frontier
        return int((state == 1).sum()), int((state == 2).sum())

    def __repr__(self) -> str:
        return f"NegativeAwareCascade(p={self.probability}, q={self.quality})"

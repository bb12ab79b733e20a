"""Cascade-model interface.

The paper (Section 3) works with the Independent Cascade (IC) and Weighted
Cascade (WC) models and stresses that GetReal is orthogonal to the choice of
model; this library also ships Linear Threshold (LT).  All three are
*triggering models* in Kempe et al.'s sense, so they share two primitives:

``edge_probabilities``
    Per-edge success probability ``p(u→v)`` indexed by stable edge id.  IC
    uses a constant; WC uses ``1 / in_degree(v)``; LT exposes its edge
    weights (which also sum to ≤1 per node and drive the triggering-set
    equivalence).

``sample_live_mask``
    Draw one *live-edge snapshot* — the possible-world construction under
    which influence spread equals reachability.  MixGreedy evaluates spreads
    on pre-sampled snapshots instead of re-simulating cascades.

``simulate``
    Run one full (single-group, non-competitive) diffusion from a seed set
    and return the activated-node indicator.  The competitive extension
    lives in :mod:`repro.cascade.competitive`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

import numpy as np

from repro.cascade.kernels import simulate_cascade
from repro.graphs.digraph import DiGraph
from repro.utils.rng import RandomSource, as_rng


class CascadeModel(ABC):
    """Abstract influence-propagation model over a :class:`DiGraph`."""

    #: short identifier used in strategy names and reports ("ic", "wc", "lt")
    name: str = "abstract"

    @abstractmethod
    def edge_probabilities(self, graph: DiGraph) -> np.ndarray:
        """Success probability of each edge, indexed by stable edge id."""

    def sample_live_mask(self, graph: DiGraph, rng: RandomSource = None) -> np.ndarray:
        """Sample one live-edge snapshot: boolean array over stable edge ids."""
        generator = as_rng(rng)
        probs = self.edge_probabilities(graph)
        return generator.random(probs.shape[0]) < probs

    def simulate(
        self,
        graph: DiGraph,
        seeds: Sequence[int],
        rng: RandomSource = None,
    ) -> np.ndarray:
        """One diffusion from *seeds*; returns the active-node boolean array.

        Default implementation is the standard cascade process: each newly
        activated node gets a single chance to activate each inactive
        out-neighbour with the model's edge probability, run by the numpy
        kernel (:func:`repro.cascade.kernels.simulate_cascade`).
        """
        generator = as_rng(rng)
        probs = self.edge_probabilities(graph)
        return simulate_cascade(graph, probs, seeds, generator)

    def spread_once(
        self,
        graph: DiGraph,
        seeds: Sequence[int],
        rng: RandomSource = None,
    ) -> int:
        """Convenience: number of nodes activated in a single simulation."""
        return int(self.simulate(graph, seeds, rng).sum())

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

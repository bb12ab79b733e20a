"""Linear Threshold model with uniform 1/in_degree(v) edge weights.

Each node *v* draws a threshold ``θ_v ~ U[0,1]`` at the start of a
simulation and activates once the summed weights of its active in-neighbours
reach ``θ_v``.  With weights ``b(u,v) = 1 / in_degree(v)`` this is the
standard normalization of Kempe et al.

LT is a triggering model: sampling, for every node, at most one live in-edge
with probability equal to its weight yields the possible-world equivalence,
so LT plugs into the same snapshot machinery (MixGreedy) as IC/WC.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.cascade.base import CascadeModel
from repro.cascade.kernels import simulate_threshold
from repro.graphs.digraph import DiGraph
from repro.utils.rng import RandomSource, as_rng


class LinearThreshold(CascadeModel):
    """LT with ``b(u,v) = 1/in_degree(v)``; thresholds uniform per simulation."""

    name = "lt"

    def edge_probabilities(self, graph: DiGraph) -> np.ndarray:
        """Edge weights (= triggering probabilities), by stable edge id."""
        in_deg = graph.in_degrees().astype(float)
        safe = np.maximum(in_deg, 1.0)
        _, dst = graph.edge_array()
        return 1.0 / safe[dst]

    def sample_live_mask(self, graph: DiGraph, rng: RandomSource = None) -> np.ndarray:
        """Triggering-set sample: at most one live in-edge per node.

        For node *v* with in-degree *d*, each in-edge is selected with
        probability ``1/d`` and "no edge" with probability 0 (weights sum to
        exactly 1 here), matching the LT triggering distribution.
        """
        generator = as_rng(rng)
        mask = np.zeros(graph.num_edges, dtype=bool)
        src, dst = graph.edge_array()
        order = np.argsort(dst, kind="stable")
        sorted_dst = dst[order]
        boundaries = np.searchsorted(sorted_dst, np.arange(graph.num_nodes + 1))
        draws = generator.random(graph.num_nodes)
        for v in range(graph.num_nodes):
            lo, hi = boundaries[v], boundaries[v + 1]
            d = hi - lo
            if d == 0:
                continue
            # Inverse-CDF over d equal slots: pick edge floor(u * d).
            pick = int(draws[v] * d)
            if pick < d:  # guards u == 1.0
                mask[order[lo + pick]] = True
        return mask

    def simulate(
        self,
        graph: DiGraph,
        seeds: Sequence[int],
        rng: RandomSource = None,
    ) -> np.ndarray:
        """One LT diffusion; thresholds are drawn up front, then the
        pressure sweep runs in the numpy kernel
        (:func:`repro.cascade.kernels.simulate_threshold`)."""
        generator = as_rng(rng)
        return simulate_threshold(graph, seeds, generator)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LinearThreshold)

    def __hash__(self) -> int:
        return hash("lt")

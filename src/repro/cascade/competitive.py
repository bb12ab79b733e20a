"""Competitive multi-group diffusion (Section 3.2 of the paper).

Two mechanisms distinguish competitive from classical diffusion:

**Seed collisions.**  Groups select their seed sets independently, so a node
may appear in several of them.  The paper's bitmap construction assigns such
a node as an *initiator* of exactly one selecting group, uniformly at random
(:data:`TieBreakRule.UNIFORM`).  The proportional variant criticized in the
paper's discussion of Goyal–Kearns is provided for the ablation bench
(:data:`TieBreakRule.PROPORTIONAL`: weight each selecting group by its count
of uncontested seeds).

**Competitive activation.**  In round ``i+1``, a node *v* with ``t_j``
newly-active in-neighbours of group *j* becomes active with the classical
probability computed from the combined count ``T = Σ_j t_j`` — e.g.
``1 − (1 − p)^T`` under IC — and is then claimed by group *j* with
probability ``t_j / T`` (:data:`ClaimRule.PROPORTIONAL`, the paper's rule).
A winner-take-all variant (most attempts wins, ties uniform) is provided for
ablations.  Once claimed, a node never switches groups (the paper's third
assumption).

The engine accepts any :class:`~repro.cascade.base.CascadeModel`.  Models
that define per-edge success probabilities (IC, WC, and any heterogeneous-p
variant) run through the cascade path; :class:`LinearThreshold` runs through
a threshold path where a node is claimed in proportion to each group's share
of the accumulated in-neighbour weight.

The per-round inner loops are the frontier-batched numpy kernels of
:mod:`repro.cascade.kernels`.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from repro.cascade.base import CascadeModel
from repro.cascade.kernels import (
    ClaimRule,
    run_competitive_cascade,
    run_competitive_threshold,
)
from repro.cascade.lt import LinearThreshold
from repro.errors import CascadeError
from repro.graphs.digraph import DiGraph
from repro.lint import contracts
from repro.obs.metrics import Histogram, counter, histogram
from repro.utils.rng import RandomSource, as_rng

__all__ = [
    "ClaimRule",
    "CompetitiveDiffusion",
    "CompetitiveOutcome",
    "TieBreakRule",
    "assign_initiators",
]

# Cached instrument handles: incremented once per simulation (or round), so
# the per-simulation overhead is a handful of attribute updates (RP004).
_SIMULATIONS = counter("cascade.simulations")
_ROUNDS = counter("cascade.rounds")
_NODES_ACTIVATED = counter("cascade.nodes_activated")
_SEED_COLLISIONS = counter("cascade.seed_collisions")

# Per-group spread histograms have dynamic names ("cascade.group1.spread"…),
# so they are memoized here instead of re-resolved — and re-formatted — on
# every simulation.  Handles survive metrics.reset(), so the cache is safe.
# The memo is written from thread-backend jobs, hence the lock (RP013).
_GROUP_SPREADS: dict[int, Histogram] = {}
_GROUP_SPREADS_LOCK = threading.Lock()


def _group_spread_histogram(group: int) -> Histogram:
    try:
        return _GROUP_SPREADS[group]
    except KeyError:
        with _GROUP_SPREADS_LOCK:
            handle = _GROUP_SPREADS.get(group)
            if handle is None:
                handle = histogram(f"cascade.group{group + 1}.spread")  # reprolint: disable=RP004
                _GROUP_SPREADS[group] = handle
            return handle


class TieBreakRule(enum.Enum):
    """How a seed selected by several groups picks its initiator group."""

    #: Equal chance among the selecting groups (the paper's rule).
    UNIFORM = "uniform"
    #: Weighted by each selecting group's count of uncontested seeds
    #: (a realizable stand-in for the Goyal–Kearns proportional rule).
    PROPORTIONAL = "proportional"


@dataclass
class CompetitiveOutcome:
    """Result of one competitive diffusion.

    Attributes
    ----------
    owner:
        Integer array over nodes; ``owner[v]`` is the group that activated
        *v*, or ``-1`` if *v* stayed inactive.
    initiators:
        Per-group lists of initiator nodes (disjoint; the resolution of seed
        collisions for this run).
    rounds:
        Number of diffusion rounds until quiescence.
    """

    owner: np.ndarray
    initiators: list[list[int]]
    rounds: int
    activation_round: np.ndarray | None = None
    _counts: np.ndarray | None = field(default=None, repr=False)

    @property
    def num_groups(self) -> int:
        return len(self.initiators)

    def spread(self, group: int) -> int:
        """Number of nodes claimed by *group*."""
        return int(self.spreads()[group])

    def spreads(self) -> np.ndarray:
        """Array of claimed-node counts, one entry per group."""
        if self._counts is None:
            counts = np.zeros(self.num_groups, dtype=np.int64)
            claimed = self.owner[self.owner >= 0]
            np.add.at(counts, claimed, 1)
            self._counts = counts
        return self._counts

    @property
    def total_activated(self) -> int:
        """Nodes activated by any group."""
        return int((self.owner >= 0).sum())

    def timeline(self) -> np.ndarray:
        """New activations per (round, group); shape ``(rounds + 1, r)``.

        Row 0 counts the initiators; row *t* the nodes claimed in round
        *t*.  Useful for studying how quickly each campaign saturates its
        share of the market.
        """
        if self.activation_round is None:
            raise ValueError("this outcome was produced without round tracking")
        out = np.zeros((self.rounds + 1, self.num_groups), dtype=np.int64)
        active = self.owner >= 0
        np.add.at(
            out,
            (self.activation_round[active], self.owner[active]),
            1,
        )
        return out


def assign_initiators(
    num_nodes: int,
    seed_sets: Sequence[Sequence[int]],
    tie_break: TieBreakRule = TieBreakRule.UNIFORM,
    rng: RandomSource = None,
) -> list[list[int]]:
    """Resolve seed collisions: map overlapping seed sets to disjoint initiator sets.

    Implements the bitmap construction of Section 3.2: a seed selected only
    by group *i* always initiates for *i*; a seed selected by groups
    ``{j1..js, i}`` initiates for exactly one of them (uniformly under the
    paper's rule).
    """
    generator = as_rng(rng)
    r = len(seed_sets)
    if r == 0:
        return []

    selectors: dict[int, list[int]] = {}
    for i, seeds in enumerate(seed_sets):
        for s in seeds:
            if not 0 <= s < num_nodes:
                raise CascadeError(f"seed {s} out of range [0, {num_nodes})")
            groups = selectors.setdefault(int(s), [])
            if i not in groups:
                groups.append(i)

    if tie_break is TieBreakRule.PROPORTIONAL:
        exclusive = np.zeros(r, dtype=float)
        for groups in selectors.values():
            if len(groups) == 1:
                exclusive[groups[0]] += 1.0
    initiators: list[list[int]] = [[] for _ in range(r)]
    contested = 0
    for node, groups in selectors.items():
        if len(groups) == 1:
            winner = groups[0]
        elif tie_break is TieBreakRule.UNIFORM:
            contested += 1
            winner = groups[int(generator.integers(0, len(groups)))]
        else:
            contested += 1
            weights = np.array([exclusive[g] for g in groups])
            if weights.sum() == 0:
                winner = groups[int(generator.integers(0, len(groups)))]
            else:
                weights = weights / weights.sum()
                winner = groups[int(generator.choice(len(groups), p=weights))]
        initiators[winner].append(node)
    if contested:
        _SEED_COLLISIONS.inc(contested)
    return initiators


class CompetitiveDiffusion:
    """Simultaneous multi-group diffusion engine.

    Parameters
    ----------
    graph:
        The network.
    model:
        Any :class:`CascadeModel`; IC/WC-style models run the cascade path,
        :class:`LinearThreshold` the threshold path.
    tie_break:
        Seed-collision rule (see :class:`TieBreakRule`).
    claim_rule:
        Node-attribution rule (see :class:`ClaimRule`).
    """

    def __init__(
        self,
        graph: DiGraph,
        model: CascadeModel,
        tie_break: TieBreakRule = TieBreakRule.UNIFORM,
        claim_rule: ClaimRule = ClaimRule.PROPORTIONAL,
    ) -> None:
        self.graph = graph
        self.model = model
        self.tie_break = tie_break
        self.claim_rule = claim_rule
        self._edge_probs: np.ndarray | None = None

    def _probs(self) -> np.ndarray:
        if self._edge_probs is None:
            self._edge_probs = self.model.edge_probabilities(self.graph)
        return self._edge_probs

    def run(
        self,
        seed_sets: Sequence[Sequence[int]],
        rng: RandomSource = None,
    ) -> CompetitiveOutcome:
        """Run one competitive diffusion; returns the per-node ownership."""
        if not seed_sets:
            raise CascadeError("at least one seed set is required")
        generator = as_rng(rng)
        contracts_on = contracts.enabled()
        if contracts_on and not isinstance(self.model, LinearThreshold):
            contracts.check_probabilities(self._probs(), "edge probabilities")
        initiators = assign_initiators(
            self.graph.num_nodes, seed_sets, self.tie_break, generator
        )
        if isinstance(self.model, LinearThreshold):
            owner, rounds, when = run_competitive_threshold(
                self.graph, initiators, self.claim_rule, generator
            )
        else:
            owner, rounds, when = run_competitive_cascade(
                self.graph,
                self._probs(),
                initiators,
                self.claim_rule,
                generator,
            )
        outcome = CompetitiveOutcome(
            owner=owner,
            initiators=initiators,
            rounds=rounds,
            activation_round=when,
        )
        spreads = outcome.spreads()
        if contracts_on:
            contracts.check_ownership(owner, initiators, len(seed_sets))
            contracts.check_spreads(spreads, self.graph.num_nodes)
        _SIMULATIONS.inc()
        _ROUNDS.inc(rounds)
        _NODES_ACTIVATED.inc(int(spreads.sum()))
        for j in range(outcome.num_groups):
            _group_spread_histogram(j).observe(float(spreads[j]))
        return outcome

"""Correctness checks on GetReal answers, written without ``repro.game``.

Each check returns a list of problems (empty when the answer passes), so
the runner can count a failed operation and say why.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np

#: Deviation gain allowed at a returned equilibrium (payoffs are node counts).
GAIN_ATOL = 1e-4
GAIN_RTOL = 1e-7

#: Cells may sit this many pooled standard errors from the reference mean.
REFERENCE_Z = 8.0

#: Two answers of one seed may differ this much in any mixture probability.
MIXTURE_ATOL = 1e-9


def symmetrized_payoff(payoffs: np.ndarray) -> np.ndarray:
    """``S[a, o_1..o_{r-1}]``: a player's payoff for action *a* against others *o*.

    Averages every player's view (own action first) and then every order
    of the others, which pools all cells that share (own action, multiset
    of rival actions).
    """
    r = payoffs.shape[-1]
    views = [np.moveaxis(payoffs[..., i], i, 0) for i in range(r)]
    own_first = np.mean(views, axis=0)
    others = list(range(1, r))
    perms = [
        np.transpose(own_first, [0, *perm]) for perm in itertools.permutations(others)
    ]
    return np.asarray(np.mean(perms, axis=0))


def deviation_gain(payoffs: np.ndarray, mixture: Sequence[float]) -> float:
    """Best gain a player gets by deviating when every rival plays *mixture*."""
    sym = symmetrized_payoff(np.asarray(payoffs, dtype=float))
    x = np.asarray(mixture, dtype=float)
    expected = sym
    for _ in range(sym.ndim - 1):
        expected = expected @ x  # contract the last rival axis
    return float(expected.max() - x @ expected)


def check_equilibrium(payoffs: np.ndarray, mixture: Sequence[float]) -> list[str]:
    x = np.asarray(mixture, dtype=float)
    problems = []
    if x.min() < -1e-12 or abs(x.sum() - 1.0) > 1e-9:
        problems.append(f"mixture {x.tolist()} is not a distribution")
    gain = deviation_gain(payoffs, x)
    limit = GAIN_ATOL + GAIN_RTOL * float(np.abs(payoffs).max())
    if gain > limit:
        problems.append(f"deviation gain {gain:.3g} exceeds {limit:.3g}")
    return problems


def check_sanity(payoffs: np.ndarray, num_nodes: int) -> list[str]:
    """0 <= sigma_i and sum_i sigma_i <= n for every profile."""
    problems = []
    if float(payoffs.min()) < 0.0:
        problems.append(f"negative payoff {float(payoffs.min())}")
    worst = float(payoffs.sum(axis=-1).max())
    if worst > num_nodes + 1e-9:
        problems.append(f"profile total {worst} exceeds {num_nodes} nodes")
    return problems


def cell_stderr(result: Any) -> np.ndarray:
    """Per-cell Monte-Carlo standard error of an answer's payoff tensor."""
    stderr = np.zeros_like(result.game.payoffs)
    for profile, estimates in result.payoff_table.estimates.items():
        for player, estimate in enumerate(estimates):
            stderr[(*profile, player)] = estimate.stderr
    return stderr


def pooled_cells(shape: tuple[int, ...]) -> np.ndarray:
    """How many payoff cells each symmetrized cell averages: r x arrangements of the rivals."""
    r = len(shape)
    count = np.empty(shape)
    for index in np.ndindex(*shape):
        arrangements = math.factorial(r - 1)
        for repeats in Counter(index[1:]).values():
            arrangements //= math.factorial(repeats)
        count[index] = r * arrangements
    return count


def symmetrized_stderr(stderr: np.ndarray) -> np.ndarray:
    """Standard error of each symmetrized cell, its pooled cells taken as independent."""
    mean_var = symmetrized_payoff(stderr**2)
    return np.asarray(np.sqrt(mean_var / pooled_cells(mean_var.shape)))


def reference_z(
    payoffs: np.ndarray, stderr: np.ndarray, reference: Mapping[str, Any]
) -> np.ndarray:
    """Distance of each symmetrized cell from the reference, in pooled standard errors.

    The NE is solved on the symmetrized game, and a symmetrized cell
    averages 2 to 6 independent payoff cells, so its noise is closer to
    normal than one cell of few rounds.  The reference holds, per
    symmetrized cell, the mean and the standard deviation ``sd`` of
    ``len(seeds)`` answers of the same query.  An answer's spread around
    the true value is ``sd``, or its own Monte-Carlo stderr when that is
    larger; the reference mean adds ``sd / sqrt(n)``.
    """
    mean = np.asarray(reference["mean"], dtype=float)
    sd = np.asarray(reference["sd"], dtype=float)
    own = symmetrized_stderr(stderr)
    pooled = np.sqrt(np.maximum(own, sd) ** 2 + sd**2 / len(reference["seeds"]))
    gap = np.abs(symmetrized_payoff(payoffs) - mean)
    return np.divide(gap, pooled, out=np.where(gap > 1e-9, np.inf, 0.0), where=pooled > 0)


def check_reference(
    payoffs: np.ndarray, stderr: np.ndarray, reference: Mapping[str, Any]
) -> list[str]:
    """Every symmetrized cell within ``REFERENCE_Z`` pooled standard errors."""
    shape = np.shape(reference["mean"])
    if payoffs.shape != (*shape, len(shape)):
        return [f"tensor shape {payoffs.shape} does not match reference {shape}"]
    z = reference_z(payoffs, stderr, reference)
    return [
        f"symmetrized cell {tuple(int(i) for i in cell)} is "
        f"{z[tuple(cell)]:.1f} stderr from the reference"
        for cell in np.argwhere(z > REFERENCE_Z)
    ]


def check_identical(a: Any, b: Any, what: str) -> list[str]:
    """Two GetReal results of one seed: the same tensor bits, the same mixture.

    The tensor is compared bit for bit.  The mixture is compared to
    ``MIXTURE_ATOL``: the mixed-NE solver returns mixtures that differ in
    their last bits (measured up to 5e-14) when called twice on one tensor
    in one process.
    """
    problems = []
    if not np.array_equal(a.game.payoffs, b.game.payoffs):
        problems.append(f"{what}: payoff tensors differ")
    gap = float(np.max(np.abs(a.mixture.probabilities - b.mixture.probabilities)))
    if gap > MIXTURE_ATOL:
        problems.append(f"{what}: mixtures differ by {gap:.3g}")
    return problems

"""Symmetric mixed-strategy equilibria.

Nash (1951) proved every finite symmetric game has a symmetric equilibrium;
the paper (Section 4.3) leans on this to guarantee GetReal always returns a
strategy.  This module computes such equilibria:

* :func:`mixed_equilibrium_2x2_symmetric` — the closed form of the paper's
  Equation (3) for ``r = z = 2``;
* :func:`symmetric_mixed_equilibrium` — general symmetric games: polynomial
  root finding for two actions (any number of players), support enumeration
  with indifference solving for more actions, and replicator dynamics as a
  last resort.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy import optimize

from repro.errors import EquilibriumError, GameError
from repro.game.normal_form import NormalFormGame
from repro.obs.journal import current_journal
from repro.utils.validation import nearly_zero


def expected_payoff_against_symmetric(
    game: NormalFormGame,
    action: int,
    mixture: np.ndarray,
) -> float:
    """Player 0's expected payoff for *action* when all rivals play *mixture*.

    Computed exactly by enumerating the ``z^(r-1)`` opponent profiles —
    cheap for the game sizes GetReal targets (z, r ≤ 4, cf. the paper's
    NP-completeness discussion for larger games).
    """
    z = game.num_actions(0)
    if not 0 <= action < z:
        raise GameError(f"action {action} out of range [0, {z})")
    mixture = np.asarray(mixture, dtype=float)
    if mixture.shape != (z,):
        raise GameError(f"mixture must have {z} entries, got shape {mixture.shape}")
    r = game.num_players
    total = 0.0
    for others in itertools.product(range(z), repeat=r - 1):
        weight = 1.0
        for a in others:
            weight *= mixture[a]
        if nearly_zero(weight):
            continue
        total += weight * game.payoff((action, *others), 0)
    return total


def regret_of_symmetric_mixture(game: NormalFormGame, mixture: np.ndarray) -> float:
    """Max gain any player gets by deviating from everyone playing *mixture*."""
    z = game.num_actions(0)
    payoffs = np.array(
        [expected_payoff_against_symmetric(game, a, mixture) for a in range(z)]
    )
    current = float(np.dot(mixture, payoffs))
    return float(payoffs.max() - current)


def mixed_equilibrium_2x2_symmetric(
    game: NormalFormGame,
    atol: float = 1e-9,
) -> np.ndarray:
    """The paper's Equation (3): ρ = (γh − αg) / (γh − αg + λg − βh).

    In bimatrix notation with row-player matrix ``A``::

        ρ = (A[1,1] − A[0,1]) / ((A[1,1] − A[0,1]) + (A[0,0] − A[1,0]))

    Raises :class:`EquilibriumError` when the game has no interior mixed
    equilibrium (ρ outside (0, 1) or a degenerate denominator) — the pure
    analysis should be used in that case.
    """
    if game.num_players != 2 or game.num_actions(0) != 2 or game.num_actions(1) != 2:
        raise GameError("closed form applies to 2-player, 2-action games only")
    a = game.payoffs[..., 0]
    numerator = a[1, 1] - a[0, 1]
    denominator = (a[1, 1] - a[0, 1]) + (a[0, 0] - a[1, 0])
    if abs(denominator) <= atol:
        raise EquilibriumError(
            "degenerate game: indifference holds for every mixture (or none)"
        )
    rho = numerator / denominator
    if not 0.0 <= rho <= 1.0:
        raise EquilibriumError(
            f"no interior mixed equilibrium: closed form gives rho={rho:.6f}"
        )
    return np.array([rho, 1.0 - rho])


def _two_action_symmetric(game: NormalFormGame, atol: float) -> np.ndarray | None:
    """Symmetric equilibrium of a z=2 symmetric game (any r): root of a polynomial."""

    def diff(rho: float) -> float:
        mixture = np.array([rho, 1.0 - rho])
        return expected_payoff_against_symmetric(
            game, 0, mixture
        ) - expected_payoff_against_symmetric(game, 1, mixture)

    # Pure ends first: all-0 is an equilibrium iff deviating to 1 doesn't pay.
    if diff(1.0) >= -atol:
        return np.array([1.0, 0.0])
    if diff(0.0) <= atol:
        return np.array([0.0, 1.0])
    # diff(1) < 0 < diff(0) is impossible here (we just returned); the
    # remaining case diff(1) < 0, diff(0) > 0... note diff(0) > atol and
    # diff(1) < -atol, so a sign change exists.
    root = optimize.brentq(diff, 0.0, 1.0, xtol=1e-12)
    return np.array([root, 1.0 - root])


#: Seed of the replicator fallback's start perturbation.
_REPLICATOR_SEED = 0


def _reject_support(support: tuple[int, ...], reason: str, detail: str) -> None:
    """Journal why *support* yields no equilibrium (a ``note`` event)."""
    sink = current_journal()
    if sink is not None:
        sink.emit(
            "note",
            message="mixed-NE support rejected",
            support=list(support),
            reason=reason,
            detail=detail,
        )


def _support_solve(
    game: NormalFormGame,
    support: tuple[int, ...],
    atol: float,
) -> np.ndarray | None:
    """Solve the indifference conditions restricted to *support*; verify NE.

    Returns ``None`` when the support holds no equilibrium and journals the
    reason: ``exception`` (fsolve raised a numerical error), ``ier`` (fsolve
    gave up), ``negative_weight`` (the indifference point lies outside the
    simplex) or ``regret`` (some action outside the support pays more).
    """
    z = game.num_actions(0)
    s = len(support)

    def residual(free: np.ndarray) -> np.ndarray:
        mixture = np.zeros(z)
        weights = np.concatenate([free, [1.0 - free.sum()]])
        for idx, a in enumerate(support):
            mixture[a] = weights[idx]
        payoffs = [
            expected_payoff_against_symmetric(game, a, mixture) for a in support
        ]
        return np.array([payoffs[i] - payoffs[-1] for i in range(s - 1)])

    mixture = np.zeros(z)
    if s == 1:
        mixture[support[0]] = 1.0
    else:
        start = np.full(s - 1, 1.0 / s)
        try:
            solution, _info, ier, message = optimize.fsolve(
                residual, start, full_output=True, xtol=1e-12
            )
        except (ValueError, ArithmeticError) as exc:  # incl. LinAlgError
            _reject_support(support, "exception", f"{type(exc).__name__}: {exc}")
            return None
        if ier != 1:
            _reject_support(support, "ier", f"ier={ier}: {' '.join(message.split())}")
            return None
        weights = np.concatenate([solution, [1.0 - solution.sum()]])
        if np.any(weights < -1e-9):
            _reject_support(support, "negative_weight", f"min weight {weights.min():.3g}")
            return None
        weights = np.clip(weights, 0.0, None)
        mixture[list(support)] = weights / weights.sum()
    regret = regret_of_symmetric_mixture(game, mixture)
    if regret > (atol if s == 1 else max(atol, 1e-6)):
        _reject_support(support, "regret", f"regret {regret:.3g}")
        return None
    return mixture


def symmetric_mixed_equilibrium(
    game: NormalFormGame,
    atol: float = 1e-8,
    prefer_interior: bool = True,
) -> np.ndarray:
    """A symmetric (possibly degenerate) equilibrium mixture of a symmetric game.

    Strategy: exact closed form / root finding for two actions; support
    enumeration (largest supports first when *prefer_interior*) with
    indifference solving otherwise; replicator dynamics as a fallback,
    started from a fixed perturbation (so the result is a function of the
    payoffs alone) and journaled as a ``note`` event.  Raises
    :class:`EquilibriumError` only if every method fails, which for a
    genuinely symmetric game indicates numerically hostile payoffs.
    """
    counts = set(game.payoffs.shape[:-1])
    if len(counts) != 1:
        raise GameError("symmetric equilibrium requires equal action counts")
    z = game.num_actions(0)

    if z == 1:
        return np.array([1.0])
    if z == 2:
        result = _two_action_symmetric(game, atol)
        if result is not None:
            return result

    supports = [
        support
        for size in range(z, 0, -1)
        for support in itertools.combinations(range(z), size)
    ]
    if not prefer_interior:
        supports = sorted(supports, key=len)
    for support in supports:
        mixture = _support_solve(game, support, atol)
        if mixture is not None:
            return mixture

    from repro.game.replicator import replicator_dynamics

    # A fixed start perturbation: one payoff tensor always yields one mixture.
    mixture = replicator_dynamics(game, rng=_REPLICATOR_SEED)
    regret = regret_of_symmetric_mixture(game, mixture)
    sink = current_journal()
    if sink is not None:
        sink.emit(
            "note",
            message="mixed-NE replicator fallback",
            mixture=[float(p) for p in mixture],
            regret=float(regret),
        )
    if regret <= 1e-4:
        return mixture
    raise EquilibriumError(
        "failed to locate a symmetric equilibrium; payoffs may be too noisy"
    )

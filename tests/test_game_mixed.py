"""Tests for symmetric mixed-equilibrium computation."""

import numpy as np
import pytest

from repro.errors import EquilibriumError, GameError
from repro.game.mixed import (
    expected_payoff_against_symmetric,
    mixed_equilibrium_2x2_symmetric,
    regret_of_symmetric_mixture,
    symmetric_mixed_equilibrium,
)
from repro.game.normal_form import NormalFormGame
from repro.obs.journal import RunJournal, attached, read_journal


def hawk_dove() -> NormalFormGame:
    a = np.array([[0.0, 3.0], [1.0, 2.0]])
    return NormalFormGame.from_bimatrix(a)


def rock_paper_scissors() -> NormalFormGame:
    a = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
    return NormalFormGame.from_bimatrix(a)


def volunteers_dilemma(r: int = 3) -> NormalFormGame:
    """Symmetric r-player, 2-action game with known interior equilibrium.

    Action 0 = volunteer (payoff 1 always); action 1 = free-ride (payoff 2
    if someone else volunteers, 0 otherwise).  Indifference:
    1 = 2 (1 - (1-ρ)^{r-1}) → ρ = 1 - (1/2)^{1/(r-1)}.
    """
    shape = (2,) * r + (r,)
    tensor = np.zeros(shape)
    for profile in np.ndindex(*(2,) * r):
        for i in range(r):
            if profile[i] == 0:
                tensor[profile + (i,)] = 1.0
            else:
                others_volunteer = any(
                    profile[j] == 0 for j in range(r) if j != i
                )
                tensor[profile + (i,)] = 2.0 if others_volunteer else 0.0
    return NormalFormGame(tensor)


class TestExpectedPayoff:
    def test_pure_opponents(self):
        game = hawk_dove()
        assert expected_payoff_against_symmetric(
            game, 0, np.array([1.0, 0.0])
        ) == pytest.approx(0.0)
        assert expected_payoff_against_symmetric(
            game, 0, np.array([0.0, 1.0])
        ) == pytest.approx(3.0)

    def test_mixture_interpolates(self):
        game = hawk_dove()
        value = expected_payoff_against_symmetric(game, 0, np.array([0.5, 0.5]))
        assert value == pytest.approx(1.5)

    def test_three_player_product_weights(self):
        game = volunteers_dilemma(3)
        rho = 0.25
        mixture = np.array([rho, 1 - rho])
        # Free-riding pays 2 * P(at least one of 2 rivals volunteers).
        expected = 2.0 * (1 - (1 - rho) ** 2)
        assert expected_payoff_against_symmetric(game, 1, mixture) == pytest.approx(
            expected
        )

    def test_action_range_checked(self):
        with pytest.raises(GameError):
            expected_payoff_against_symmetric(hawk_dove(), 5, np.array([0.5, 0.5]))

    def test_mixture_shape_checked(self):
        with pytest.raises(GameError):
            expected_payoff_against_symmetric(hawk_dove(), 0, np.array([1.0]))


class TestClosedForm2x2:
    def test_hawk_dove(self):
        # Indifference: rho*0 + (1-rho)*3 = rho*1 + (1-rho)*2 -> rho = 1/2.
        mixture = mixed_equilibrium_2x2_symmetric(hawk_dove())
        assert np.allclose(mixture, [0.5, 0.5])

    def test_matches_paper_equation3(self):
        """ρ = (γh − αg) / (γh − αg + λg − βh) from the paper."""
        g, h = 120.0, 100.0
        # Anti-coordination regime (βh > λg, αg > γh): interior ρ exists.
        lam, gamma, alpha, beta = 0.52, 0.55, 0.60, 0.65
        a = np.array([[lam * g, alpha * g], [beta * h, gamma * h]])
        game = NormalFormGame.from_bimatrix(a)
        expected_rho = (gamma * h - alpha * g) / (
            (gamma * h - alpha * g) + (lam * g - beta * h)
        )
        assert 0 <= expected_rho <= 1
        mixture = mixed_equilibrium_2x2_symmetric(game)
        assert mixture[0] == pytest.approx(expected_rho)

    def test_dominant_game_has_no_interior(self):
        a = np.array([[3.0, 0.0], [5.0, 1.0]])  # PD: defect dominates
        with pytest.raises(EquilibriumError, match="no interior"):
            mixed_equilibrium_2x2_symmetric(NormalFormGame.from_bimatrix(a))

    def test_degenerate_game(self):
        a = np.ones((2, 2))
        with pytest.raises(EquilibriumError, match="degenerate"):
            mixed_equilibrium_2x2_symmetric(NormalFormGame.from_bimatrix(a))

    def test_requires_2x2(self):
        with pytest.raises(GameError):
            mixed_equilibrium_2x2_symmetric(rock_paper_scissors())


class TestSymmetricMixedEquilibrium:
    def test_hawk_dove_interior(self):
        mixture = symmetric_mixed_equilibrium(hawk_dove())
        assert np.allclose(mixture, [0.5, 0.5], atol=1e-6)

    def test_pd_returns_pure_defect(self):
        a = np.array([[3.0, 0.0], [5.0, 1.0]])
        mixture = symmetric_mixed_equilibrium(NormalFormGame.from_bimatrix(a))
        assert np.allclose(mixture, [0.0, 1.0])

    def test_coordination_returns_a_pure_end(self):
        a = np.array([[2.0, 0.0], [0.0, 1.0]])
        mixture = symmetric_mixed_equilibrium(NormalFormGame.from_bimatrix(a))
        # Either pure coordination point is a valid symmetric NE.
        assert np.allclose(mixture, [1, 0]) or np.allclose(mixture, [0, 1])

    def test_rps_uniform(self):
        mixture = symmetric_mixed_equilibrium(rock_paper_scissors())
        assert np.allclose(mixture, [1 / 3, 1 / 3, 1 / 3], atol=1e-6)

    def test_volunteers_dilemma_three_players(self):
        game = volunteers_dilemma(3)
        mixture = symmetric_mixed_equilibrium(game)
        expected = 1 - (0.5) ** 0.5
        assert mixture[0] == pytest.approx(expected, abs=1e-6)

    def test_volunteers_dilemma_four_players(self):
        game = volunteers_dilemma(4)
        mixture = symmetric_mixed_equilibrium(game)
        expected = 1 - (0.5) ** (1 / 3)
        assert mixture[0] == pytest.approx(expected, abs=1e-6)

    def test_single_action(self):
        game = NormalFormGame.from_bimatrix(np.array([[1.0]]))
        assert symmetric_mixed_equilibrium(game).tolist() == [1.0]

    def test_result_has_zero_regret(self):
        for game in (hawk_dove(), rock_paper_scissors(), volunteers_dilemma(3)):
            mixture = symmetric_mixed_equilibrium(game)
            assert regret_of_symmetric_mixture(game, mixture) <= 1e-6

    def test_requires_square(self):
        game = NormalFormGame.from_bimatrix(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(GameError):
            symmetric_mixed_equilibrium(game)

    def test_partial_support_three_actions(self):
        # Action 2 strictly dominated; equilibrium mixes only 0 and 1.
        a = np.array(
            [[0.0, 3.0, 5.0], [1.0, 2.0, 5.0], [-1.0, -1.0, -1.0]]
        )
        game = NormalFormGame.from_bimatrix(a)
        mixture = symmetric_mixed_equilibrium(game)
        assert mixture[2] == pytest.approx(0.0, abs=1e-8)
        assert regret_of_symmetric_mixture(game, mixture) <= 1e-6


class TestRegret:
    def test_equilibrium_regret_zero(self):
        assert regret_of_symmetric_mixture(
            hawk_dove(), np.array([0.5, 0.5])
        ) == pytest.approx(0.0, abs=1e-12)

    def test_off_equilibrium_regret_positive(self):
        assert regret_of_symmetric_mixture(hawk_dove(), np.array([1.0, 0.0])) > 0


def opponent_blind(values) -> NormalFormGame:
    """3-action symmetric game whose payoffs ignore the opponent.

    No mixed support can be indifferent, so fsolve makes no progress on
    every support of two or more actions and gives up.
    """
    a = np.repeat(np.asarray(values, dtype=float)[:, None], 3, axis=1)
    return NormalFormGame.from_bimatrix(a)


def rejections(tmp_path, game, **kwargs):
    path = tmp_path / "journal.jsonl"
    with RunJournal(path) as journal, attached(journal):
        mixture = symmetric_mixed_equilibrium(game, **kwargs)
    notes = [e for e in read_journal(path) if e["event"] == "note"]
    return mixture, [(tuple(e["support"]), e["reason"], e["detail"]) for e in notes]


class TestSupportRejectionsJournaled:
    def test_fsolve_giving_up_is_journaled(self, tmp_path):
        mixture, notes = rejections(tmp_path, opponent_blind([3.0, 1.0, 0.0]))
        assert mixture.tolist() == [1.0, 0.0, 0.0]
        assert [(support, reason) for support, reason, _ in notes] == [
            ((0, 1, 2), "ier"),
            ((0, 1), "ier"),
            ((0, 2), "ier"),
            ((1, 2), "ier"),
        ]
        assert all(detail.startswith("ier=") and "\n" not in detail for *_, detail in notes)

    def test_regret_rejections_name_the_support(self, tmp_path):
        mixture, notes = rejections(
            tmp_path, opponent_blind([0.0, 1.0, 3.0]), prefer_interior=False
        )
        assert mixture.tolist() == [0.0, 0.0, 1.0]
        assert [(s, r) for s, r, _ in notes[:2]] == [((0,), "regret"), ((1,), "regret")]

    def test_numerical_exception_is_journaled(self, tmp_path, monkeypatch):
        from repro.game import mixed

        def overflow(*args, **kwargs):
            raise FloatingPointError("overflow in residual")

        monkeypatch.setattr(mixed.optimize, "fsolve", overflow)
        mixture, notes = rejections(tmp_path, opponent_blind([3.0, 1.0, 0.0]))
        assert mixture.tolist() == [1.0, 0.0, 0.0]
        assert [reason for _, reason, _ in notes] == ["exception"] * 4
        assert notes[0][2] == "FloatingPointError: overflow in residual"

    def test_programming_errors_propagate(self, monkeypatch):
        from repro.game import mixed

        def broken(*args, **kwargs):
            raise TypeError("bad call")

        monkeypatch.setattr(mixed.optimize, "fsolve", broken)
        with pytest.raises(TypeError, match="bad call"):
            symmetric_mixed_equilibrium(rock_paper_scissors())

    def test_no_journal_attached_is_silent(self):
        assert symmetric_mixed_equilibrium(opponent_blind([3.0, 1.0, 0.0])).tolist() == [
            1.0,
            0.0,
            0.0,
        ]


class TestReplicatorFallback:
    """Support enumeration failing hands over to a deterministic replicator run."""

    def test_fallback_is_bit_identical_and_journaled(self, tmp_path, monkeypatch):
        from repro.game import mixed

        monkeypatch.setattr(mixed, "_support_solve", lambda *args: None)
        game = NormalFormGame.from_bimatrix(
            np.array([[1.0, 3.0, 0.5], [2.0, 1.0, 1.5], [0.5, 2.5, 1.0]])
        )
        mixtures, notes = [], []
        for run in range(2):
            path = tmp_path / f"journal-{run}.jsonl"
            with RunJournal(path) as journal, attached(journal):
                mixtures.append(symmetric_mixed_equilibrium(game))
            notes.append([e for e in read_journal(path) if e["event"] == "note"])
        assert mixtures[0].tobytes() == mixtures[1].tobytes()
        for run_notes, mixture in zip(notes, mixtures):
            assert len(run_notes) == 1
            assert run_notes[0]["message"] == "mixed-NE replicator fallback"
            assert run_notes[0]["mixture"] == mixture.tolist()
            assert run_notes[0]["regret"] <= 1e-4

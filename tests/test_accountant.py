"""Tests for the online TemporalPrivacyAccountant."""

import numpy as np
import pytest

from repro.core import AdversaryT, TemporalPrivacyAccountant, temporal_privacy_leakage
from repro.exceptions import InvalidPrivacyParameterError
from repro.markov import identity_matrix, two_state_matrix, uniform_matrix


@pytest.fixture
def correlations(moderate_matrix):
    return (moderate_matrix, moderate_matrix)


class TestConstruction:
    def test_single_pair(self, correlations):
        acct = TemporalPrivacyAccountant(correlations)
        assert list(acct.users) == [0]

    def test_adversary_input(self, moderate_matrix):
        adversary = AdversaryT(moderate_matrix, moderate_matrix)
        acct = TemporalPrivacyAccountant(adversary)
        acct.add_release(0.1)
        assert acct.max_tpl() > 0

    def test_user_mapping(self, moderate_matrix):
        acct = TemporalPrivacyAccountant(
            {"a": (moderate_matrix, None), "b": (None, None)}
        )
        assert set(acct.users) == {"a", "b"}

    def test_rejects_bad_alpha(self, correlations):
        with pytest.raises(InvalidPrivacyParameterError):
            TemporalPrivacyAccountant(correlations, alpha=0.0)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_rejects_non_finite_alpha(self, correlations, alpha):
        """A NaN bound compares false against every leakage: accepted, it
        would let every release through."""
        with pytest.raises(InvalidPrivacyParameterError, match="finite"):
            TemporalPrivacyAccountant(correlations, alpha=alpha)

    def test_repr(self, correlations):
        assert "releases=0" in repr(TemporalPrivacyAccountant(correlations))


class TestStreaming:
    def test_matches_offline_quantification(self, correlations):
        """The online accountant equals the batch recursion at any point."""
        acct = TemporalPrivacyAccountant(correlations)
        budgets = [0.1, 0.2, 0.05, 0.3]
        for eps in budgets:
            acct.add_release(eps)
        online = acct.profile()
        offline = temporal_privacy_leakage(*correlations, budgets)
        assert online.bpl == pytest.approx(offline.bpl)
        assert online.fpl == pytest.approx(offline.fpl)
        assert online.tpl == pytest.approx(offline.tpl)

    def test_fpl_updates_retroactively(self, correlations):
        """Example 3: a new release raises FPL (and TPL) of old points."""
        acct = TemporalPrivacyAccountant(correlations)
        for _ in range(3):
            acct.add_release(0.1)
        before = acct.profile().tpl.copy()
        acct.add_release(0.1)
        after = acct.profile().tpl
        assert after[0] > before[0]

    def test_max_tpl_empty(self, correlations):
        assert TemporalPrivacyAccountant(correlations).max_tpl() == 0.0

    def test_profile_empty_is_well_defined(self, correlations):
        """Before any release profile() and max_tpl() agree: an empty
        LeakageProfile with max_tpl == 0.0 (not an exception)."""
        profile = TemporalPrivacyAccountant(correlations).profile()
        assert profile.horizon == 0
        assert profile.max_tpl == 0.0
        assert profile.epsilons.size == 0

    def test_rollback_last_restores_state(self, correlations):
        acct = TemporalPrivacyAccountant(correlations)
        acct.add_release(0.1)
        before = acct.profile().tpl.copy()
        acct.add_release(0.3)
        acct.rollback_last()
        assert acct.horizon == 1
        np.testing.assert_array_equal(acct.profile().tpl, before)

    def test_rollback_last_empty_raises(self, correlations):
        with pytest.raises(ValueError):
            TemporalPrivacyAccountant(correlations).rollback_last()

    def test_rejects_negative_epsilon(self, correlations):
        acct = TemporalPrivacyAccountant(correlations)
        with pytest.raises(InvalidPrivacyParameterError):
            acct.add_release(-0.1)

    def test_horizon_and_epsilons(self, correlations):
        acct = TemporalPrivacyAccountant(correlations)
        acct.add_release(0.1)
        acct.add_release(0.2)
        assert acct.horizon == 2
        assert acct.epsilons == pytest.approx([0.1, 0.2])


class TestAddWindow:
    """The scalar windowed fallback: a sequential loop whose per-step
    worst-TPL series is the reference for the fleet engine's vectorised
    add_window."""

    def test_series_matches_sequential(self, correlations):
        sequential = TemporalPrivacyAccountant(correlations)
        windowed = TemporalPrivacyAccountant(correlations)
        budgets = [0.1, 0.0, 0.3, 0.05]
        worsts = [sequential.add_release(e) for e in budgets]
        series = windowed.add_window(budgets)
        assert series.tolist() == worsts
        np.testing.assert_array_equal(
            windowed.profile().tpl, sequential.profile().tpl
        )

    def test_alpha_violation_rolls_back_whole_window(self):
        identity = identity_matrix(2)
        acct = TemporalPrivacyAccountant((identity, identity), alpha=0.25)
        acct.add_release(0.1)
        with pytest.raises(InvalidPrivacyParameterError):
            acct.add_window([0.1, 0.1])  # second step would reach 0.3
        assert acct.horizon == 1
        assert acct.max_tpl() == pytest.approx(0.1)

    def test_rollback_n(self, correlations):
        acct = TemporalPrivacyAccountant(correlations)
        acct.add_release(0.1)
        before = acct.profile().tpl.copy()
        acct.add_window([0.2, 0.3])
        acct.rollback(2)
        assert acct.horizon == 1
        np.testing.assert_array_equal(acct.profile().tpl, before)
        with pytest.raises(ValueError):
            acct.rollback(2)
        with pytest.raises(ValueError):
            acct.rollback(-1)


class TestAlphaBound:
    def test_rejects_release_beyond_alpha(self):
        identity = identity_matrix(2)
        acct = TemporalPrivacyAccountant((identity, identity), alpha=0.25)
        acct.add_release(0.1)  # TPL 0.1
        acct.add_release(0.1)  # TPL 0.2
        with pytest.raises(InvalidPrivacyParameterError):
            acct.add_release(0.1)  # would be 0.3 > 0.25

    def test_rollback_preserves_state(self):
        identity = identity_matrix(2)
        acct = TemporalPrivacyAccountant((identity, identity), alpha=0.25)
        acct.add_release(0.2)
        with pytest.raises(InvalidPrivacyParameterError):
            acct.add_release(0.2)
        assert acct.horizon == 1
        assert acct.max_tpl() == pytest.approx(0.2)
        # A smaller release still fits.
        acct.add_release(0.05)
        assert acct.max_tpl() <= 0.25 + 1e-12

    def test_remaining_alpha(self, correlations):
        acct = TemporalPrivacyAccountant(correlations, alpha=1.0)
        assert acct.remaining_alpha() == pytest.approx(1.0)
        acct.add_release(0.1)
        assert 0 < acct.remaining_alpha() < 1.0

    def test_remaining_alpha_none_without_bound(self, correlations):
        assert TemporalPrivacyAccountant(correlations).remaining_alpha() is None


class TestFplCache:
    def test_same_length_different_values_not_stale(self, moderate_matrix):
        """Regression: the FPL memo used to key on len(epsilons) only, so a
        same-length but different-valued budget vector returned the stale
        series."""
        from repro.core.accountant import _UserState
        from repro.core.leakage import forward_privacy_leakage

        state = _UserState(moderate_matrix, moderate_matrix)
        first = np.array([0.1, 0.2, 0.3])
        second = np.array([0.3, 0.2, 0.1])
        got_first = state.fpl(first)
        assert got_first == pytest.approx(
            forward_privacy_leakage(moderate_matrix, first)
        )
        got_second = state.fpl(second)
        assert got_second == pytest.approx(
            forward_privacy_leakage(moderate_matrix, second)
        )
        assert not np.allclose(got_first, got_second)

    def test_cache_hit_returns_same_array(self, moderate_matrix):
        from repro.core.accountant import _UserState

        state = _UserState(moderate_matrix, moderate_matrix)
        eps = np.array([0.1, 0.2])
        assert state.fpl(eps) is state.fpl(eps.copy())


class TestMultiUser:
    def test_max_over_users(self, moderate_matrix):
        uniform = uniform_matrix(2)
        acct = TemporalPrivacyAccountant(
            {
                "correlated": (moderate_matrix, moderate_matrix),
                "independent": (uniform, uniform),
            }
        )
        for _ in range(5):
            acct.add_release(0.1)
        correlated = acct.profile("correlated").max_tpl
        independent = acct.profile("independent").max_tpl
        assert acct.max_tpl() == pytest.approx(max(correlated, independent))
        assert independent == pytest.approx(0.1)

    def test_profile_requires_user_when_ambiguous(self, moderate_matrix):
        acct = TemporalPrivacyAccountant(
            {"a": (moderate_matrix, None), "b": (None, None)}
        )
        acct.add_release(0.1)
        with pytest.raises(ValueError):
            acct.profile()
        with pytest.raises(KeyError):
            acct.profile("zzz")

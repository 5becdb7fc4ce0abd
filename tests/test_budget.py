"""Tests for Algorithms 2 and 3 (budget allocation) and BudgetAllocation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    allocate_quantified,
    allocate_upper_bound,
    temporal_privacy_leakage,
    validate_alpha,
)
from repro.exceptions import (
    InvalidPrivacyParameterError,
    UnboundedLeakageError,
)
from repro.markov import (
    identity_matrix,
    smoothed_strongest_matrix,
    two_state_matrix,
    uniform_matrix,
)


class TestValidateAlpha:
    def test_returns_a_float(self):
        value = validate_alpha(np.float64(0.5))
        assert value == 0.5 and type(value) is float

    @pytest.mark.parametrize(
        "alpha", [0.0, -0.0, -1.0, float("nan"), float("inf"), float("-inf")]
    )
    def test_rejects_all_but_finite_positive(self, alpha):
        with pytest.raises(InvalidPrivacyParameterError, match="finite and > 0"):
            validate_alpha(alpha)

    def test_rejects_non_numbers_with_the_name(self):
        with pytest.raises(InvalidPrivacyParameterError, match="bound must be"):
            validate_alpha("high", name="bound")

    @pytest.mark.parametrize("allocate", [allocate_upper_bound, allocate_quantified])
    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_allocators_reject_non_finite_alpha(
        self, fig7_correlations, allocate, alpha
    ):
        """A NaN target must not come back as an all-NaN allocation."""
        with pytest.raises(InvalidPrivacyParameterError, match="finite"):
            allocate(fig7_correlations, alpha)


class TestAlgorithm2:
    def test_constant_budget(self, fig7_correlations):
        allocation = allocate_upper_bound(fig7_correlations, 1.0)
        assert allocation.method == "upper_bound"
        assert allocation.epsilon_first == allocation.epsilon_middle
        assert allocation.epsilon_last == allocation.epsilon_middle

    def test_bounds_tpl_for_any_horizon(self, fig7_correlations):
        allocation = allocate_upper_bound(fig7_correlations, 1.0)
        p_b, p_f = fig7_correlations
        for horizon in (1, 2, 5, 30, 200):
            profile = allocation.profile(horizon, p_b, p_f)
            assert profile.satisfies(1.0), horizon

    def test_never_reaches_alpha_at_finite_t(self, fig7_correlations):
        """Algorithm 2 provisions for infinity: strictly below alpha."""
        allocation = allocate_upper_bound(fig7_correlations, 1.0)
        p_b, p_f = fig7_correlations
        profile = allocation.profile(50, p_b, p_f)
        assert profile.max_tpl < 1.0

    def test_consistency_alpha_split(self, fig7_correlations):
        """alpha == alpha_B + alpha_F - eps (Eq. 10 at the fixed point)."""
        allocation = allocate_upper_bound(fig7_correlations, 1.0)
        assert (
            allocation.alpha_b + allocation.alpha_f - allocation.epsilon_middle
        ) == pytest.approx(1.0, abs=1e-6)

    def test_no_correlation_gives_full_alpha(self):
        allocation = allocate_upper_bound((None, None), 0.8)
        assert allocation.epsilon_middle == pytest.approx(0.8)

    def test_uniform_correlation_gives_full_alpha(self):
        u = uniform_matrix(3)
        allocation = allocate_upper_bound((u, u), 0.8)
        assert allocation.epsilon_middle == pytest.approx(0.8)

    def test_backward_only(self, moderate_matrix):
        allocation = allocate_upper_bound((moderate_matrix, None), 1.0)
        profile = allocation.profile(100, moderate_matrix, None)
        assert profile.satisfies(1.0)
        assert profile.max_tpl > 0.9  # the bound is used, not wasted

    def test_strongest_correlation_raises(self):
        identity = identity_matrix(2)
        with pytest.raises(UnboundedLeakageError):
            allocate_upper_bound((identity, identity), 1.0)

    def test_rejects_nonpositive_alpha(self, fig7_correlations):
        with pytest.raises(InvalidPrivacyParameterError):
            allocate_upper_bound(fig7_correlations, 0.0)

    @given(st.floats(0.2, 3.0))
    def test_alpha_sweep_bounds_hold(self, alpha):
        correlations = (two_state_matrix(0.7, 0.1), two_state_matrix(0.6, 0.2))
        allocation = allocate_upper_bound(correlations, alpha)
        profile = allocation.profile(60, *correlations)
        assert profile.satisfies(alpha)


class TestAlgorithm3:
    def test_boosts_first_and_last(self, fig7_correlations):
        allocation = allocate_quantified(fig7_correlations, 1.0)
        assert allocation.method == "quantified"
        assert allocation.epsilon_first > allocation.epsilon_middle
        assert allocation.epsilon_last > allocation.epsilon_middle

    def test_exact_alpha_at_every_time_point(self, fig7_correlations):
        allocation = allocate_quantified(fig7_correlations, 1.0)
        p_b, p_f = fig7_correlations
        for horizon in (2, 3, 10, 30):
            profile = allocation.profile(horizon, p_b, p_f)
            assert profile.tpl == pytest.approx(np.full(horizon, 1.0), rel=1e-6)

    def test_single_release_spends_alpha(self, fig7_correlations):
        allocation = allocate_quantified(fig7_correlations, 1.0)
        assert allocation.epsilons(1) == pytest.approx([1.0])

    def test_better_total_budget_than_algorithm2_short_t(
        self, fig7_correlations
    ):
        """The Fig. 7/8 utility claim: at short horizons Algorithm 3
        spends more budget (=> less noise) than Algorithm 2."""
        a2 = allocate_upper_bound(fig7_correlations, 1.0)
        a3 = allocate_quantified(fig7_correlations, 1.0)
        for horizon in (2, 5, 10, 30):
            assert a3.total_budget(horizon) > a2.total_budget(horizon)

    def test_shares_middle_epsilon_with_algorithm2(self, fig7_correlations):
        """Both algorithms stabilise at the same fixed-point budget."""
        a2 = allocate_upper_bound(fig7_correlations, 1.0)
        a3 = allocate_quantified(fig7_correlations, 1.0)
        assert a2.epsilon_middle == pytest.approx(a3.epsilon_middle, rel=1e-6)

    def test_strongest_correlation_raises(self):
        identity = identity_matrix(2)
        with pytest.raises(UnboundedLeakageError):
            allocate_quantified((identity, identity), 1.0)

    def test_smoothed_large_domain(self):
        p_b = smoothed_strongest_matrix(20, 0.05, seed=0)
        p_f = smoothed_strongest_matrix(20, 0.05, seed=1)
        allocation = allocate_quantified((p_b, p_f), 2.0)
        profile = allocation.profile(15, p_b, p_f)
        assert profile.satisfies(2.0)
        assert profile.max_tpl == pytest.approx(2.0, rel=1e-6)


class TestMultiUser:
    def test_min_over_users_protects_everyone(self):
        users = {
            "weak": (uniform_matrix(2), uniform_matrix(2)),
            "strong": (two_state_matrix(0.9, 0.05), two_state_matrix(0.9, 0.05)),
        }
        allocation = allocate_upper_bound(users, 1.0)
        for p_b, p_f in users.values():
            assert allocation.profile(80, p_b, p_f).satisfies(1.0)

    def test_budget_dominated_by_strongest_user(self):
        strong = (two_state_matrix(0.9, 0.05), two_state_matrix(0.9, 0.05))
        weak = (uniform_matrix(2), uniform_matrix(2))
        only_strong = allocate_upper_bound(strong, 1.0)
        both = allocate_upper_bound({"s": strong, "w": weak}, 1.0)
        assert both.epsilon_middle == pytest.approx(
            only_strong.epsilon_middle, rel=1e-9
        )


class TestBudgetAllocationContainer:
    def test_epsilons_layout(self, fig7_correlations):
        allocation = allocate_quantified(fig7_correlations, 1.0)
        eps = allocation.epsilons(5)
        assert eps[0] == pytest.approx(allocation.epsilon_first)
        assert eps[-1] == pytest.approx(allocation.epsilon_last)
        assert np.all(eps[1:-1] == allocation.epsilon_middle)

    def test_epsilons_rejects_bad_horizon(self, fig7_correlations):
        allocation = allocate_quantified(fig7_correlations, 1.0)
        with pytest.raises(ValueError):
            allocation.epsilons(0)

    def test_profile_matches_manual_quantification(self, fig7_correlations):
        allocation = allocate_quantified(fig7_correlations, 1.0)
        p_b, p_f = fig7_correlations
        manual = temporal_privacy_leakage(p_b, p_f, allocation.epsilons(8))
        via_method = allocation.profile(8, p_b, p_f)
        assert via_method.tpl == pytest.approx(manual.tpl)

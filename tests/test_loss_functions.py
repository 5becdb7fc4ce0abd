"""Tests for TemporalLossFunction: Remark-1 bounds, monotonicity, caching."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import TemporalLossFunction
from repro.exceptions import InvalidPrivacyParameterError
from repro.markov import (
    convex_blend,
    identity_matrix,
    strongest_matrix,
    two_state_matrix,
    uniform_matrix,
)

from strategies import legal_alphas, transition_matrices


class TestBasics:
    def test_zero_alpha_gives_zero(self, moderate_matrix):
        loss = TemporalLossFunction(moderate_matrix)
        assert loss(0.0) == 0.0

    def test_rejects_negative_alpha(self, moderate_matrix):
        with pytest.raises(InvalidPrivacyParameterError):
            TemporalLossFunction(moderate_matrix)(-0.5)

    def test_matrix_property(self, moderate_matrix):
        assert TemporalLossFunction(moderate_matrix).matrix == moderate_matrix

    def test_caching_returns_same_value(self, moderate_matrix):
        loss = TemporalLossFunction(moderate_matrix)
        assert loss(0.7) == loss(0.7)
        assert 0.7 in {round(k, 15) for k in loss._cache}

    def test_repr(self, moderate_matrix):
        assert "n=2" in repr(TemporalLossFunction(moderate_matrix))


class TestRegimes:
    def test_uniform_is_trivial(self):
        loss = TemporalLossFunction(uniform_matrix(4))
        assert loss.is_trivial()
        assert loss(3.0) == 0.0

    def test_identity_is_identity_map(self):
        loss = TemporalLossFunction(identity_matrix(3))
        for alpha in (0.1, 1.0, 5.0):
            assert loss(alpha) == pytest.approx(alpha)

    def test_moderate_matrix_value(self, moderate_matrix):
        """L(alpha) = log(0.8 (e^a - 1) + 1) for [[0.8,0.2],[0,1]]."""
        loss = TemporalLossFunction(moderate_matrix)
        alpha = 0.4
        assert loss(alpha) == pytest.approx(
            math.log(0.8 * (math.exp(alpha) - 1.0) + 1.0)
        )

    def test_not_trivial_for_correlated(self, moderate_matrix):
        assert not TemporalLossFunction(moderate_matrix).is_trivial()


class TestProperties:
    @given(transition_matrices(), legal_alphas())
    def test_remark1_bounds(self, m, alpha):
        loss = TemporalLossFunction(m)
        value = loss(alpha)
        assert -1e-12 <= value <= alpha + 1e-9

    @given(transition_matrices())
    def test_nondecreasing_in_alpha(self, m):
        loss = TemporalLossFunction(m)
        grid = [0.01, 0.1, 0.5, 1.0, 3.0, 10.0]
        values = [loss(a) for a in grid]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    @given(st.floats(0.0, 1.0), legal_alphas())
    def test_blending_toward_uniform_weakens_loss(self, weight, alpha):
        """Weakening the correlation can only reduce the loss increment."""
        base = strongest_matrix(4, seed=1)
        strong = TemporalLossFunction(base)
        weak = TemporalLossFunction(convex_blend(base, weight))
        assert weak(alpha) <= strong(alpha) + 1e-9

    def test_maximizing_pair_bounds(self, moderate_matrix):
        pair = TemporalLossFunction(moderate_matrix).maximizing_pair(1.0)
        assert pair is not None
        assert 0.0 <= pair.d_sum < pair.q_sum <= 1.0


class TestFixedPointEpsilon:
    def test_fixed_point_identity(self, moderate_matrix):
        loss = TemporalLossFunction(moderate_matrix)
        alpha = 1.3
        epsilon = loss.epsilon_for_fixed_point(alpha)
        assert loss(alpha) + epsilon == pytest.approx(alpha)
        assert epsilon > 0

    def test_uniform_gives_full_alpha(self):
        loss = TemporalLossFunction(uniform_matrix(3))
        assert loss.epsilon_for_fixed_point(0.5) == pytest.approx(0.5)

    def test_identity_has_no_fixed_point_budget(self):
        loss = TemporalLossFunction(identity_matrix(2))
        with pytest.raises(InvalidPrivacyParameterError):
            loss.epsilon_for_fixed_point(1.0)

    def test_rejects_nonpositive_alpha(self, moderate_matrix):
        with pytest.raises(InvalidPrivacyParameterError):
            TemporalLossFunction(moderate_matrix).epsilon_for_fixed_point(0.0)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_fixed_point_rejects_non_finite_alpha(self, moderate_matrix, alpha):
        loss = TemporalLossFunction(moderate_matrix)
        with pytest.raises(InvalidPrivacyParameterError, match="> 0"):
            loss.epsilon_for_fixed_point(alpha)


class TestIterate:
    def test_iterate_matches_manual_recursion(self, moderate_matrix):
        loss = TemporalLossFunction(moderate_matrix)
        eps = 0.1
        series = loss.iterate(eps, 5)
        alpha = 0.0
        for value in series:
            alpha = loss(alpha) + eps
            assert value == pytest.approx(alpha)

    def test_iterate_is_monotone(self, moderate_matrix):
        series = TemporalLossFunction(moderate_matrix).iterate(0.2, 20)
        assert all(b >= a for a, b in zip(series, series[1:]))

    def test_iterate_zero_steps(self, moderate_matrix):
        assert TemporalLossFunction(moderate_matrix).iterate(0.1, 0) == []

    def test_iterate_rejects_negative_epsilon(self, moderate_matrix):
        with pytest.raises(InvalidPrivacyParameterError):
            TemporalLossFunction(moderate_matrix).iterate(-0.1, 3)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_iterate_rejects_a_non_finite_epsilon(self, epsilon):
        """``iterate(nan, 2)`` used to return ``[nan, nan]`` and
        ``iterate(inf, 1)`` ``[inf]``."""
        with pytest.raises(InvalidPrivacyParameterError, match="epsilon"):
            TemporalLossFunction(two_state_matrix(0.8, 0.1)).iterate(epsilon, 2)

    @pytest.mark.parametrize("initial", [math.nan, -1.0, math.inf])
    def test_iterate_rejects_a_bad_initial_leakage(self, initial):
        """A NaN or negative start used to read as no prior leakage (the
        ``initial=0.0`` series)."""
        loss = TemporalLossFunction(two_state_matrix(0.8, 0.1))
        with pytest.raises(InvalidPrivacyParameterError, match="initial"):
            loss.iterate(0.1, 2, initial=initial)

    def test_iterate_accepts_a_zero_initial_leakage(self):
        loss = TemporalLossFunction(two_state_matrix(0.8, 0.1))
        series = loss.iterate(0.1, 2, initial=0.0)
        assert series == loss.iterate(0.1, 2)
        assert series[0] == 0.1 and series[1] == loss(0.1) + 0.1

    def test_iterate_with_initial_leakage(self, moderate_matrix):
        loss = TemporalLossFunction(moderate_matrix)
        cold = loss.iterate(0.1, 3)
        warm = loss.iterate(0.1, 3, initial=cold[-1])
        # Resuming from the cold tail continues the same sequence.
        assert warm[0] == pytest.approx(loss(cold[-1]) + 0.1)

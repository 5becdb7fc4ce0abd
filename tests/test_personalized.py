"""Tests for personalised DP_T allocation (Section III-D extension)."""

import numpy as np
import pytest

from repro.core import (
    allocate_personalized,
    allocate_quantified,
)
from repro.exceptions import InvalidPrivacyParameterError
from repro.markov import two_state_matrix, uniform_matrix


@pytest.fixture
def users():
    strong = two_state_matrix(0.9, 0.05)
    weak = uniform_matrix(2)
    return {
        "strong": (strong, strong),
        "weak": (weak, weak),
    }


class TestAllocatePersonalized:
    def test_per_user_targets_met_exactly(self, users):
        result = allocate_personalized(users, 1.0, method="quantified")
        profiles = result.verify(users, horizon=10)
        assert profiles["strong"].max_tpl == pytest.approx(1.0, rel=1e-6)
        assert profiles["weak"].max_tpl == pytest.approx(1.0, rel=1e-6)
        assert result.satisfies(users, horizon=10)

    def test_distinct_alphas_per_user(self, users):
        result = allocate_personalized(
            users, {"strong": 0.5, "weak": 2.0}, method="quantified"
        )
        profiles = result.verify(users, horizon=8)
        assert profiles["strong"].max_tpl == pytest.approx(0.5, rel=1e-6)
        assert profiles["weak"].max_tpl == pytest.approx(2.0, rel=1e-6)

    def test_weak_user_gets_more_budget_than_uniform_rule(self, users):
        """The whole point: vs the min-over-users collapse, the weakly
        correlated user keeps a much larger budget."""
        personalised = allocate_personalized(users, 1.0)
        uniform_rule = allocate_quantified(users, 1.0)
        weak_budget = personalised.epsilons("weak", 10).sum()
        collapsed_budget = uniform_rule.epsilons(10).sum()
        assert weak_budget > collapsed_budget

    def test_epsilon_matrix_shape_and_order(self, users):
        result = allocate_personalized(users, 1.0)
        matrix = result.epsilon_matrix(horizon=7)
        assert matrix.shape == (2, 7)
        assert np.array_equal(matrix[0], result.epsilons(result.users[0], 7))

    def test_upper_bound_method(self, users):
        result = allocate_personalized(users, 1.0, method="upper_bound")
        assert result.method == "upper_bound"
        profiles = result.verify(users, horizon=100)
        for user in users:
            assert profiles[user].satisfies(1.0)

    def test_rejects_unknown_method(self, users):
        with pytest.raises(ValueError):
            allocate_personalized(users, 1.0, method="magic")

    def test_rejects_missing_alpha(self, users):
        with pytest.raises(ValueError, match="missing alpha"):
            allocate_personalized(users, {"strong": 1.0})

    def test_rejects_nonpositive_alpha(self, users):
        with pytest.raises(InvalidPrivacyParameterError):
            allocate_personalized(users, {"strong": 1.0, "weak": 0.0})

    def test_rejects_non_finite_alpha(self, users):
        with pytest.raises(InvalidPrivacyParameterError, match="'weak'"):
            allocate_personalized(users, {"strong": 1.0, "weak": float("nan")})
        with pytest.raises(InvalidPrivacyParameterError, match="finite"):
            allocate_personalized(users, float("inf"))

    def test_rejects_empty_users(self):
        with pytest.raises(ValueError):
            allocate_personalized({}, 1.0)

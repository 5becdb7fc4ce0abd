"""Ablation benchmarks for the design choices called out in DESIGN.md.

Three implementation decisions in the quantification core have measurable
cost/benefit trade-offs; these benchmarks quantify each:

1. **Batched vs per-pair Algorithm 1** -- `max_log_ratio` solves all
   n (n-1) ordered row pairs in one vectorised best-prefix kernel entry
   instead of a Python loop over `solve_pair`.
2. **Loss-function memoisation** -- `TemporalLossFunction` caches
   L(alpha) per alpha; the BPL/FPL recursions with constant budgets hit
   the cache heavily (every step after the first two queries a warm
   alpha during allocation verification).
3. **Closed-form supremum jump vs pure fixed-point iteration** --
   `leakage_supremum` jumps to the Theorem-5 closed form once the
   maximising pair stabilises instead of iterating to the (slow,
   linear-rate) fixed point.
"""

import numpy as np
import pytest

from repro.core import (
    TemporalLossFunction,
    leakage_supremum,
    max_log_ratio,
    solve_pair,
)
from repro.markov import random_stochastic_matrix, two_state_matrix

ABLATION_N = 40


def _per_pair_max_log_ratio(matrix, alpha: float) -> float:
    """The unbatched reference implementation of Eq. (23)/(24)."""
    p = matrix.array
    best = 0.0
    for j in range(matrix.n):
        for k in range(matrix.n):
            if j != k:
                best = max(best, solve_pair(p[j], p[k], alpha).log_value)
    return best


@pytest.fixture(scope="module")
def matrix():
    return random_stochastic_matrix(ABLATION_N, seed=3)


class TestBatchingAblation:
    def test_batched(self, benchmark, matrix):
        benchmark.group = "ablation: all-pairs sweep"
        value = benchmark(max_log_ratio, matrix, 2.0)
        assert value > 0

    def test_per_pair_loop(self, benchmark, matrix):
        benchmark.group = "ablation: all-pairs sweep"
        value = benchmark(_per_pair_max_log_ratio, matrix, 2.0)
        # Correctness is identical; only the constant factor differs.
        assert value == pytest.approx(max_log_ratio(matrix, 2.0), abs=1e-9)


class TestMemoisationAblation:
    BUDGETS = np.full(200, 0.05)

    def test_warm_cache_recursion(self, benchmark, matrix):
        benchmark.group = "ablation: loss-function cache"
        loss = TemporalLossFunction(matrix)  # shared across rounds -> warm

        def run():
            alpha = 0.0
            for eps in self.BUDGETS:
                alpha = loss(alpha) + eps
            return alpha

        assert benchmark(run) > 0

    def test_cold_cache_recursion(self, benchmark, matrix):
        benchmark.group = "ablation: loss-function cache"

        def run():
            loss = TemporalLossFunction(matrix)  # rebuilt -> cold
            alpha = 0.0
            for eps in self.BUDGETS:
                alpha = loss(alpha) + eps
            return alpha

        assert benchmark(run) > 0


class TestSupremumAblation:
    EPSILON = 0.05  # slow contraction: iteration needs many steps

    def test_closed_form_jump(self, benchmark):
        benchmark.group = "ablation: supremum computation"
        m = two_state_matrix(0.9, 0.05)
        value = benchmark(leakage_supremum, m, self.EPSILON)
        assert value > self.EPSILON

    def test_pure_iteration(self, benchmark):
        benchmark.group = "ablation: supremum computation"
        m = two_state_matrix(0.9, 0.05)
        loss = TemporalLossFunction(m)

        def iterate():
            alpha, prev = self.EPSILON, -1.0
            while abs(alpha - prev) > 1e-12:
                prev = alpha
                alpha = loss(alpha) + self.EPSILON
            return alpha

        value = benchmark(iterate)
        assert value == pytest.approx(
            leakage_supremum(m, self.EPSILON), abs=1e-8
        )

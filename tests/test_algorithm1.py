"""Tests for Algorithm 1 (Theorem 4 / Corollary 2 solver)."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    LfpProblem,
    TemporalLossFunction,
    TemporalPrivacyAccountant,
    max_log_ratio,
    max_log_ratio_batch,
    max_log_ratio_stacked,
    solve_lfp_algorithm1,
    solve_pair,
)
from repro.core import algorithm1 as algorithm1_module
from repro.exceptions import InvalidPrivacyParameterError
from repro.fleet import FleetAccountant
from repro.lp import solve_lfp_bruteforce
from repro.markov import (
    identity_matrix,
    random_stochastic_matrix,
    two_state_matrix,
    uniform_matrix,
)

from strategies import alphas, transition_matrices

#: The largest alpha every Algorithm-1 entry point accepts: log(DBL_MAX),
#: the largest alpha whose math.expm1 is finite.
LARGEST_ALPHA = 709.782712893384

#: Alphas every Algorithm-1 entry point refuses, the first float above
#: LARGEST_ALPHA among them (its math.expm1 overflows).
BAD_ALPHAS = [
    math.nan,
    math.inf,
    -math.inf,
    -0.5,
    math.nextafter(LARGEST_ALPHA, math.inf),
]

#: Edge alphas: signed zeros (e == +-0, value 0.0), the smallest subnormal
#: (e > 0, swept) and large values (e up to ~1e304).
EDGE_ALPHAS = [0.0, -0.0, 5e-324, 50.0, 700.0]


@st.composite
def stacked_jobs(draw):
    """Jobs for the deduplicating stacked kernel: one matrix size n in
    {2, 3, 4}; up to three matrices, so two jobs often share one matrix
    object; alphas drawn from one small pool, so jobs repeat alphas and
    jobs on different matrices share them; empty jobs."""
    n = draw(st.sampled_from([2, 3, 4]))
    matrices = draw(
        st.lists(transition_matrices(min_n=n, max_n=n), min_size=1, max_size=3)
    )
    pool = draw(
        st.lists(
            st.one_of(alphas(), st.sampled_from(EDGE_ALPHAS)),
            min_size=1,
            max_size=6,
        )
    )
    jobs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(matrices),
                st.lists(st.sampled_from(pool), max_size=8),
            ),
            min_size=1,
            max_size=5,
        )
    )
    return [(matrix, np.array(values, dtype=float)) for matrix, values in jobs]


class TestSolvePair:
    def test_zero_alpha_gives_zero(self):
        sol = solve_pair(np.array([0.9, 0.1]), np.array([0.1, 0.9]), 0.0)
        assert sol.log_value == 0.0

    def test_equal_rows_give_zero(self):
        row = np.array([0.3, 0.7])
        assert solve_pair(row, row, 1.0).log_value == 0.0

    def test_opposite_deterministic_rows_give_alpha(self):
        """q=(1,0), d=(0,1): the strongest pair -- L(alpha) == alpha."""
        sol = solve_pair(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.8)
        assert sol.log_value == pytest.approx(0.8)
        assert sol.q_sum == pytest.approx(1.0)
        assert sol.d_sum == pytest.approx(0.0)

    def test_known_two_state_value(self):
        """For rows (0.8, 0.2) / (0.0, 1.0) the candidate set is {0} and
        the Theorem-4 value is (0.8 (e^a - 1) + 1) / 1."""
        alpha = 0.5
        sol = solve_pair(np.array([0.8, 0.2]), np.array([0.0, 1.0]), alpha)
        expected = math.log(0.8 * (math.exp(alpha) - 1.0) + 1.0)
        assert sol.log_value == pytest.approx(expected)

    def test_rejects_negative_alpha(self):
        with pytest.raises(InvalidPrivacyParameterError):
            solve_pair(np.array([1.0, 0.0]), np.array([0.0, 1.0]), -0.1)

    def test_deletion_loop_runs(self):
        """A pair constructed so the initial Corollary-2 candidate set
        contains an element violating Inequality (21) that must be
        deleted: q_j barely above d_j with large alpha."""
        q = np.array([0.50, 0.21, 0.29])
        d = np.array([0.20, 0.20, 0.60])
        sol = solve_pair(q, d, 5.0)
        # Index 1 (0.21 vs 0.20) should be pruned at large alpha.
        assert not sol.subset_mask[1]
        assert sol.subset_mask[0]
        assert sol.iterations >= 2

    def test_objective_reevaluation(self):
        q = np.array([0.8, 0.2])
        d = np.array([0.0, 1.0])
        sol = solve_pair(q, d, 1.0)
        assert math.log(sol.objective(1.0)) == pytest.approx(sol.log_value)

    @given(transition_matrices(), alphas())
    def test_agrees_with_bruteforce(self, m, alpha):
        q, d = m.array[0], m.array[-1]
        ours = solve_pair(q, d, alpha).log_value
        oracle = solve_lfp_bruteforce(LfpProblem(q, d, alpha))
        assert ours == pytest.approx(oracle, abs=1e-9)

    @given(transition_matrices(), alphas())
    def test_remark1_bounds(self, m, alpha):
        """0 <= L <= alpha (Remark 1)."""
        value = solve_pair(m.array[0], m.array[-1], alpha).log_value
        assert -1e-12 <= value <= alpha + 1e-9


class TestSolveLfpAlgorithm1:
    def test_interface_matches_solve_pair(self):
        q = np.array([0.7, 0.3])
        d = np.array([0.2, 0.8])
        problem = LfpProblem(q, d, 1.2)
        assert solve_lfp_algorithm1(problem) == pytest.approx(
            solve_pair(q, d, 1.2).log_value
        )


class TestMaxLogRatio:
    def test_uniform_matrix_is_zero(self):
        assert max_log_ratio(uniform_matrix(5), 2.0) == 0.0

    def test_identity_matrix_is_alpha(self):
        assert max_log_ratio(identity_matrix(3), 0.7) == pytest.approx(0.7)

    def test_zero_alpha_is_zero(self):
        assert max_log_ratio(random_stochastic_matrix(4, seed=0), 0.0) == 0.0

    def test_single_state_is_zero(self):
        assert max_log_ratio([[1.0]], 3.0) == 0.0

    def test_return_pair_consistency(self):
        m = two_state_matrix(0.8, 0.0)
        value, pair = max_log_ratio(m, 0.5, return_pair=True)
        assert pair is not None
        expected = (pair.q_sum * (math.exp(0.5) - 1) + 1) / (
            pair.d_sum * (math.exp(0.5) - 1) + 1
        )
        assert value == pytest.approx(math.log(expected))

    def test_return_pair_none_when_trivial(self):
        value, pair = max_log_ratio(uniform_matrix(3), 1.0, return_pair=True)
        assert value == 0.0 and pair is None

    @given(transition_matrices(), alphas())
    def test_batch_matches_per_pair_maximum(self, m, alpha):
        """The vectorised all-pairs sweep equals the explicit loop."""
        batch = max_log_ratio(m, alpha)
        explicit = max(
            solve_pair(m.array[j], m.array[k], alpha).log_value
            for j in range(m.n)
            for k in range(m.n)
            if j != k
        )
        assert batch == pytest.approx(max(explicit, 0.0), abs=1e-9)

    @given(transition_matrices())
    def test_monotone_in_alpha(self, m):
        values = [max_log_ratio(m, a) for a in (0.1, 0.5, 1.0, 2.0, 5.0)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_large_alpha_saturates_at_log_q_over_d(self):
        """As alpha -> inf the objective tends to q/d for d > 0 pairs."""
        m = two_state_matrix(0.8, 0.1)
        value = max_log_ratio(m, 80.0)
        # rows: q=(0.8,0.2), d=(0.1,0.9): subset {0}, limit log(0.8/0.1)
        assert value == pytest.approx(math.log(8.0), abs=1e-3)


class TestMaxLogRatioBatched:
    """Bit-identity of the batch / stacked entry points against the
    scalar solver, including the chunked code path and degenerate alpha
    rows."""

    GRID = [0.0, 1e-12, 0.25, 0.25, 1.0, 5.0, 0.0]

    @given(
        transition_matrices(),
        st.lists(alphas(), min_size=1, max_size=6),
        st.sampled_from(BAD_ALPHAS),
        st.integers(0, 6),
    )
    def test_batch_matches_scalar(self, m, values, bad, at):
        """Every value equals the scalar path's, and an alpha the scalar
        path refuses, spliced in anywhere, makes the batch refuse too."""
        batch = max_log_ratio_batch(m, values)
        for value, expected in zip(values, batch):
            assert max_log_ratio(m, value) == expected
        with pytest.raises(InvalidPrivacyParameterError):
            max_log_ratio(m, bad)
        with pytest.raises(InvalidPrivacyParameterError):
            max_log_ratio_batch(m, values[:at] + [bad] + values[at:])

    @pytest.mark.parametrize("alpha", BAD_ALPHAS)
    def test_every_entry_point_refuses_bad_alphas(self, alpha):
        """A NaN must not read as zero leakage, nor an infinity as NaN,
        nor an alpha past log(DBL_MAX) as a bare OverflowError, on any
        entry point."""
        m = two_state_matrix(0.8, 0.1)
        with pytest.raises(InvalidPrivacyParameterError):
            max_log_ratio(m, alpha)
        with pytest.raises(InvalidPrivacyParameterError):
            solve_pair(m.array[0], m.array[1], alpha)
        with pytest.raises(InvalidPrivacyParameterError):
            TemporalLossFunction(m)(alpha)
        with pytest.raises(InvalidPrivacyParameterError):
            max_log_ratio_batch(m, [0.3, alpha])
        with pytest.raises(InvalidPrivacyParameterError):
            max_log_ratio_stacked([(m, [0.3]), (m, [alpha])])

    @pytest.mark.parametrize("strongest", [False, True])
    def test_every_entry_point_accepts_the_largest_alpha(self, strongest):
        """log(DBL_MAX) itself is solved, bit-identically on every entry
        point (the strongest correlation gives back alpha itself)."""
        m = two_state_matrix(1.0, 0.0) if strongest else two_state_matrix(0.8, 0.1)
        expected = max_log_ratio(m, LARGEST_ALPHA)
        assert math.isfinite(expected)
        assert TemporalLossFunction(m)(LARGEST_ALPHA) == expected
        assert max_log_ratio_batch(m, [0.3, LARGEST_ALPHA])[1] == expected
        stacked = max_log_ratio_stacked([(m, [0.3]), (m, [LARGEST_ALPHA])])
        assert stacked[1][0] == expected
        pair = solve_pair(m.array[0], m.array[1], LARGEST_ALPHA)
        assert math.isfinite(pair.log_value)
        if strongest:
            assert expected == LARGEST_ALPHA

    @pytest.mark.parametrize(
        "accountant_cls", [TemporalPrivacyAccountant, FleetAccountant]
    )
    @pytest.mark.parametrize("budgets", [[50.0] * 16, [709.0, 0.5, 0.5, 0.5]])
    def test_accountants_refuse_a_leakage_past_the_largest_alpha(
        self, accountant_cls, budgets
    ):
        """Under the strongest correlation BPL is the plain sum of the
        budgets, so the last release here asks Algorithm 1 for
        ``L(alpha)`` past log(DBL_MAX).  It is refused with an
        InvalidPrivacyParameterError, not a bare OverflowError, and the
        accountant keeps its horizon and worst TPL."""
        P = two_state_matrix(1.0, 0.0)
        accountant = accountant_cls((P, P))
        for epsilon in budgets[:-1]:
            accountant.add_release(epsilon)
        horizon, worst = accountant.horizon, accountant.max_tpl()
        with pytest.raises(InvalidPrivacyParameterError):
            accountant.add_release(budgets[-1])
        assert accountant.horizon == horizon == len(budgets) - 1
        assert accountant.max_tpl() == worst

    @given(transition_matrices(), st.lists(alphas(), min_size=1, max_size=6))
    def test_batch_is_chunk_invariant(self, m, values):
        """Forcing the chunk size down to one alpha per sweep must not
        change a single bit -- the per-entry independence contract of
        ``_batch_sweep``."""
        reference = max_log_ratio_batch(m, values)
        original = algorithm1_module._BATCH_CHUNK_ELEMENTS
        algorithm1_module._BATCH_CHUNK_ELEMENTS = 1
        try:
            chunked = max_log_ratio_batch(m, values)
        finally:
            algorithm1_module._BATCH_CHUNK_ELEMENTS = original
        assert np.array_equal(reference, chunked)

    def test_batch_zero_and_degenerate_alphas(self):
        """alpha == 0 and subnormal alphas short-circuit to 0.0 exactly,
        interleaved with real work in one call."""
        m = two_state_matrix(0.8, 0.1)
        out = max_log_ratio_batch(m, self.GRID)
        assert out[0] == 0.0 and out[6] == 0.0
        assert out[2] == out[3] > 0.0
        assert out[1] == max_log_ratio(m, 1e-12)

    def test_batch_empty_grid(self):
        out = max_log_ratio_batch(two_state_matrix(0.8, 0.1), [])
        assert out.shape == (0,)

    @given(
        st.lists(
            st.tuples(
                transition_matrices(min_n=3, max_n=3),
                st.lists(alphas(), min_size=0, max_size=4),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_stacked_matches_per_matrix_batch(self, jobs):
        """Fusing distinct matrices into one stacked sweep returns each
        job's standalone batch answer bit-for-bit, and every value is the
        scalar solver's answer for its own matrix."""
        results = max_log_ratio_stacked(jobs)
        assert len(results) == len(jobs)
        for (matrix, values), fused in zip(jobs, results):
            assert np.array_equal(fused, max_log_ratio_batch(matrix, values))
            for value, got in zip(values, fused):
                assert got == max_log_ratio(matrix, value)

    def test_stacked_chunk_invariant(self):
        jobs = [
            (two_state_matrix(0.8, 0.1), [0.3, 1.0]),
            (two_state_matrix(0.6, 0.2), [0.0, 0.7, 2.5]),
        ]
        reference = max_log_ratio_stacked(jobs)
        original = algorithm1_module._BATCH_CHUNK_ELEMENTS
        algorithm1_module._BATCH_CHUNK_ELEMENTS = 1
        try:
            chunked = max_log_ratio_stacked(jobs)
        finally:
            algorithm1_module._BATCH_CHUNK_ELEMENTS = original
        for a, b in zip(reference, chunked):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("chunk_alphas", [1, 3])
    @given(jobs=stacked_jobs())
    def test_stacked_dedup_matches_scalar(self, chunk_alphas, jobs):
        """The kernel solves each distinct (job, alpha) entry once and maps
        the values back: every job's result has its input's shape and
        every value is the scalar solver's bit for bit (signed zeros
        included), with chunks of one or three alphas, so repeats
        straddle chunks."""
        n = jobs[0][0].n
        original = algorithm1_module._BATCH_CHUNK_ELEMENTS
        algorithm1_module._BATCH_CHUNK_ELEMENTS = chunk_alphas * n * (n - 1) * n
        try:
            results = max_log_ratio_stacked(jobs)
        finally:
            algorithm1_module._BATCH_CHUNK_ELEMENTS = original
        assert len(results) == len(jobs)
        for (matrix, values), got in zip(jobs, results):
            assert got.shape == values.shape
            expected = np.array([max_log_ratio(matrix, v) for v in values.tolist()])
            assert got.tobytes() == expected.tobytes()

    def test_stacked_rejects_mixed_sizes(self):
        with pytest.raises(ValueError, match="one size"):
            max_log_ratio_stacked(
                [
                    (two_state_matrix(0.8, 0.1), [0.3]),
                    (uniform_matrix(3), [0.3]),
                ]
            )

"""Tests for Algorithm 1 (Theorem 4 / Corollary 2 solver)."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
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

from strategies import (
    LARGEST_ALPHA,
    legal_alphas,
    stochastic_rows,
    transition_matrices,
)

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


def paper_deletion_loop(matrix, alpha: float) -> float:
    """Algorithm 1 as the paper states it (lines 2-12), kept here as
    reference code: every ordered row pair starts from its Corollary-2
    candidates ``q_j > d_j`` and deletes each coordinate failing
    Inequality (21), ``q_j (D e + 1) >= d_j (Q e + 1)`` (``>=`` keeps
    ties), until no pair changes.  In floats the product test ties once
    ``e = e^alpha - 1`` swamps the ``+ 1`` and then drops optimal
    coordinates; below that it selects the kernel's subsets and returns
    the kernel's values bit for bit."""
    p = matrix.array
    n = p.shape[0]
    e = math.expm1(alpha)
    if e == 0.0 or n == 1:
        return 0.0
    j_idx, k_idx = np.where(~np.eye(n, dtype=bool))
    q_rows = p[j_idx]  # shape (pairs, n)
    d_rows = p[k_idx]
    mask = q_rows > d_rows
    active = mask.any(axis=1)
    while True:
        q_sums = (q_rows * mask).sum(axis=1)
        d_sums = (d_rows * mask).sum(axis=1)
        numerator = q_sums * e + 1.0
        denominator = d_sums * e + 1.0
        keep = mask & (
            q_rows * denominator[:, None] >= d_rows * numerator[:, None]
        )
        changed = active & (keep.sum(axis=1) != mask.sum(axis=1))
        if not changed.any():
            break
        mask = np.where(changed[:, None], keep, mask)
        active = mask.any(axis=1)
    values = np.log(numerator) - np.log(denominator)
    values[~active] = 0.0
    return float(max(values.max(), 0.0))


@st.composite
def sub_stochastic_pairs(draw):
    """Independent non-negative coefficient vectors ``q`` and ``d`` of one
    length, with different sums in ``[0.01, 1]``."""
    n = draw(st.integers(2, 5))
    q = draw(stochastic_rows(n)) * draw(st.floats(0.01, 1.0))
    d = draw(stochastic_rows(n)) * draw(st.floats(0.01, 1.0))
    return q, d


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
            st.one_of(legal_alphas(), st.sampled_from(EDGE_ALPHAS)),
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
        contains an element violating Inequality (21), which the optimal
        subset leaves out: q_j barely above d_j with large alpha."""
        q = np.array([0.50, 0.21, 0.29])
        d = np.array([0.20, 0.20, 0.60])
        sol = solve_pair(q, d, 5.0)
        # Index 1 (0.21 vs 0.20) should be pruned at large alpha.
        assert not sol.subset_mask[1]
        assert sol.subset_mask[0]

    def test_objective_reevaluation(self):
        q = np.array([0.8, 0.2])
        d = np.array([0.0, 1.0])
        sol = solve_pair(q, d, 1.0)
        assert math.log(sol.objective(1.0)) == pytest.approx(sol.log_value)

    @given(transition_matrices(), legal_alphas())
    def test_agrees_with_bruteforce(self, m, alpha):
        q, d = m.array[0], m.array[-1]
        ours = solve_pair(q, d, alpha).log_value
        oracle = solve_lfp_bruteforce(LfpProblem(q, d, alpha))
        assert ours == pytest.approx(oracle, abs=1e-9)

    @given(transition_matrices(), legal_alphas())
    def test_remark1_bounds(self, m, alpha):
        """0 <= L <= alpha (Remark 1)."""
        value = solve_pair(m.array[0], m.array[-1], alpha).log_value
        assert -1e-12 <= value <= alpha + 1e-9

    #: Pairs whose optimum the deletion loop missed through a float tie
    #: in its product test, with the 2^n oracle's value.  "absorption":
    #: q_0 = 1.6e-39 against d_0 = 3.6e-75 (the loop read 1.2653);
    #: "near tie": three ratios q_j / d_j within 2% of each other (the
    #: loop read 0.0).
    LOOP_MISSES = {
        "absorption": (
            [
                1.6033814955528346e-39,
                0.5713026156812194,
                0.08630634731756,
                0.3423910370006076,
                6.129014041379756e-13,
            ],
            [
                3.5822782183059637e-75,
                0.16118834048599012,
                0.34630003089282985,
                0.23551608167581933,
                0.2569955469453608,
            ],
            218.51896938596377,
            82.08917920974926,
        ),
        "near tie": (
            [
                0.22334348483371222,
                0.23594137250911895,
                0.19451495626931997,
                0.3462001863878489,
            ],
            [
                0.23300598922911353,
                0.23300598922911353,
                0.19209496547130137,
                0.34189305607047155,
            ],
            227.1176692136718,
            0.012519194511013193,
        ),
    }

    @pytest.mark.parametrize("case", sorted(LOOP_MISSES))
    def test_float_ties_of_the_deletion_loop(self, case):
        q, d, alpha, oracle = self.LOOP_MISSES[case]
        assert solve_lfp_bruteforce(LfpProblem(q, d, alpha)) == pytest.approx(
            oracle, abs=1e-12
        )
        assert solve_pair(q, d, alpha).log_value == pytest.approx(oracle, abs=1e-9)


class TestSolveLfpAlgorithm1:
    def test_interface_matches_solve_pair(self):
        q = np.array([0.7, 0.3])
        d = np.array([0.2, 0.8])
        problem = LfpProblem(q, d, 1.2)
        assert solve_lfp_algorithm1(problem) == pytest.approx(
            solve_pair(q, d, 1.2).log_value
        )

    @pytest.mark.parametrize(
        "q, d, alpha, expected",
        [
            ((0.5, 0.2), (0.1, 0.3), 1.0, 1.0030516859313579),
            ((0.3, 0.3), (0.2, 0.7), 0.5, -0.2592062946051506),
        ],
    )
    def test_unequal_row_sums(self, q, d, alpha, expected):
        """With sum(q) != sum(d) the objective is (Q e + sum(q)) / (D e +
        sum(d)), as LfpProblem.objective_for_subset has it; one total for
        both read 0.5813 and 0.0852 here."""
        problem = LfpProblem(q, d, alpha)
        assert solve_lfp_bruteforce(problem) == pytest.approx(expected, abs=1e-12)
        assert solve_lfp_algorithm1(problem) == pytest.approx(expected, abs=1e-12)

    @given(sub_stochastic_pairs(), legal_alphas())
    def test_agrees_with_bruteforce_on_sub_stochastic_vectors(self, pair, alpha):
        """The objective reaches sum(q) / sum(d) * e^alpha, up to 100
        e^alpha here, so alpha stays where the oracle's ratio is finite."""
        assume(alpha <= LARGEST_ALPHA - math.log(100.0))
        q, d = pair
        problem = LfpProblem(q, d, alpha)
        assert solve_lfp_algorithm1(problem) == pytest.approx(
            solve_lfp_bruteforce(problem), abs=1e-9
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

    @given(transition_matrices(), legal_alphas())
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


class TestExactAtEveryAlpha:
    """Theorem 4's best prefix against the 2^n oracle over the whole legal
    alpha range, where the deletion loop's product test ties in floats."""

    @given(transition_matrices(max_n=5), legal_alphas())
    def test_matches_bruteforce_over_all_pairs(self, m, alpha):
        oracle = max(
            solve_lfp_bruteforce(LfpProblem(m.array[j], m.array[k], alpha))
            for j in range(m.n)
            for k in range(m.n)
            if j != k
        )
        assert max_log_ratio(m, alpha) == pytest.approx(max(oracle, 0.0), abs=1e-9)

    @given(transition_matrices(max_n=5), legal_alphas(), legal_alphas())
    def test_monotone_in_alpha(self, m, first, second):
        """L(alpha1) <= L(alpha2) for alpha1 <= alpha2, up to the last-ulp
        rounding of the two logs (1e-9, the oracle tolerance)."""
        low, high = sorted((first, second))
        assert max_log_ratio(m, low) <= max_log_ratio(m, high) + 1e-9
        at_high, at_low = max_log_ratio_stacked([(m, [high]), (m, [low])])
        assert at_low[0] <= at_high[0] + 1e-9

    def test_plateau_does_not_dip(self):
        """The loop read L(37) = L(50) = 1.7239 but L(40) = 1.0791 here."""
        m = random_stochastic_matrix(3, seed=2)
        assert max_log_ratio(m, 40.0) == max_log_ratio(m, 37.0) == 1.7238513416942567
        assert paper_deletion_loop(m, 40.0) == 1.0790860145284427

    def test_large_alpha_does_not_fall(self):
        """The loop read L(100) = 3.5271 against L(50) = 4.2607 here."""
        m = random_stochastic_matrix(3, seed=0)
        at_50 = max_log_ratio(m, 50.0)
        assert at_50 == 4.260721334280156
        assert max_log_ratio(m, 100.0) >= at_50
        assert max_log_ratio_batch(m, [100.0, 50.0])[0] >= at_50


class TestPaperDeletionLoop:
    """Wherever the paper's deletion loop keeps the right subset -- every
    alpha below ~30 on these models -- the kernel returns its values bit
    for bit, on the scalar and the batched entry points."""

    GRID = [1e-8, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 29.0]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_kernel_equals_the_loop_bit_for_bit(self, n):
        for seed in range(20):
            m = random_stochastic_matrix(n, seed=seed)
            expected = [paper_deletion_loop(m, alpha) for alpha in self.GRID]
            assert [max_log_ratio(m, alpha) for alpha in self.GRID] == expected
            assert max_log_ratio_batch(m, self.GRID).tolist() == expected


class TestMaxLogRatioBatched:
    """Bit-identity of the batch / stacked entry points against the
    scalar solver, including the chunked code path and degenerate alpha
    rows."""

    GRID = [0.0, 1e-12, 0.25, 0.25, 1.0, 5.0, 0.0]

    @given(
        transition_matrices(),
        st.lists(legal_alphas(), min_size=1, max_size=6),
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

    @given(transition_matrices(), st.lists(legal_alphas(), min_size=1, max_size=6))
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
                st.lists(legal_alphas(), min_size=0, max_size=4),
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

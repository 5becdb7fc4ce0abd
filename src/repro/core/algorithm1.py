"""Algorithm 1 of the paper: polynomial-time privacy-leakage quantification.

Theorem 4 shows the optimum of the linear-fractional program (18)-(20) is::

    ( q (e^alpha - 1) + 1 ) / ( d (e^alpha - 1) + 1 )

where ``q = sum(q+)`` and ``d = sum(d+)`` over the unique coefficient
subset satisfying Inequalities (21)/(22).  Corollary 2 gives the necessary
condition ``q_j > d_j`` for membership, and Algorithm 1 finds the subset by
repeated deletion:

1. Start with all pairs ``(q_j, d_j)`` where ``q_j > d_j``.
2. Compute the candidate objective ``rho = (q (e^a - 1) + 1) / (d (e^a - 1)
   + 1)``; delete every pair with ``q_j / d_j <= rho`` (the paper proves
   deletions can be batched); repeat until stable.

Per row pair this runs in O(n^2) worst case; maximising over all ordered
row pairs of an ``n x n`` matrix gives the O(n^4) bound from the paper.
The implementations here are vectorised with numpy:

* :func:`solve_pair` -- one ordered coefficient pair (exposed for tests
  and for the solver benchmarks of Fig. 5).
* :func:`max_log_ratio` -- the full maximisation over ordered row pairs of
  a transition matrix, i.e. the temporal loss function ``L_B``/``L_F`` of
  Eq. (23)/(24), batched over all pairs at once.
* :func:`max_log_ratio_stacked` -- the same loss for many ``(matrix,
  alphas)`` jobs in shared sweeps over ``(A, pairs, n)`` arrays, each
  distinct ``(job, alpha)`` entry solved once per call; the fleet reaches
  Algorithm 1 only through it.  :func:`max_log_ratio_batch` is its
  one-job case.

Every entry point takes alphas in ``[0, log(DBL_MAX)]`` (finite, ``>= 0``
and with a finite ``e^alpha - 1``), and every value the batched kernels
return is bit-identical to :func:`max_log_ratio` on the same matrix and
alpha.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..exceptions import InvalidPrivacyParameterError
from ..markov.matrix import as_transition_matrix
from ..obs.instrument import solver_metrics
from .lfp import LfpProblem

__all__ = [
    "PairSolution",
    "solve_pair",
    "solve_lfp_algorithm1",
    "max_log_ratio",
    "max_log_ratio_batch",
    "max_log_ratio_stacked",
]


@dataclass
class PairSolution:
    """Optimal solution for one ordered row pair ``(q, d)``.

    Attributes
    ----------
    log_value:
        ``log`` of the optimal objective -- the leakage increment.
    q_sum, d_sum:
        The Theorem-4 sums ``q = sum(q+)`` and ``d = sum(d+)`` of the
        surviving subset.  These feed Theorem 5 (supremum) and the budget
        allocation of Algorithms 2/3.
    subset_mask:
        Boolean mask of the surviving coordinates (the paper's ``q+``).
    iterations:
        Number of deletion sweeps performed.
    """

    log_value: float
    q_sum: float
    d_sum: float
    subset_mask: np.ndarray
    iterations: int

    def objective(self, alpha: float) -> float:
        """Re-evaluate Theorem 4's expression at a *different* alpha with
        the same subset (used by fixed-point iterations)."""
        e = math.exp(alpha) - 1.0
        return (self.q_sum * e + 1.0) / (self.d_sum * e + 1.0)


#: The largest alpha whose ``math.expm1`` is finite (709.782712893384);
#: the next float up overflows, so a stream whose incoming leakage passes
#: it is refused instead of crashing the solver.
_ALPHA_MAX = math.log(sys.float_info.max)


def _check_alpha(alpha: float) -> None:
    """The alpha rule of every Algorithm-1 entry point: finite, ``>= 0``
    (a NaN would otherwise read as zero leakage) and at most
    ``_ALPHA_MAX``."""
    if not 0.0 <= alpha <= _ALPHA_MAX:
        raise InvalidPrivacyParameterError(
            f"alpha must be finite, >= 0 and <= {_ALPHA_MAX!r}, got {alpha}"
        )


def solve_pair(
    q: np.ndarray, d: np.ndarray, alpha: float, epsilon_total: float = 1.0
) -> PairSolution:
    """Run Algorithm 1's inner loop (lines 3-11) for one ordered pair.

    Parameters
    ----------
    q, d:
        Two rows of a (backward or forward) transition matrix.
    alpha:
        The previous BPL / next FPL, in ``[0, log(DBL_MAX)]``.  ``alpha == 0``
        returns a zero increment immediately (no prior leakage to
        amplify).
    epsilon_total:
        Row sums (1 for stochastic rows); kept explicit so the function is
        also correct for sub-stochastic test vectors.
    """
    q = np.asarray(q, dtype=float)
    d = np.asarray(d, dtype=float)
    _check_alpha(alpha)
    n = q.shape[0]
    e = math.expm1(alpha)  # e^alpha - 1, accurate near zero
    empty = np.zeros(n, dtype=bool)
    if e == 0.0:
        return PairSolution(0.0, 0.0, 0.0, empty, 0)

    # Corollary 2: only coordinates with q_j > d_j can be in q+/d+.
    mask = q > d
    if not mask.any():
        return PairSolution(0.0, 0.0, 0.0, empty, 0)

    iterations = 0
    while True:
        iterations += 1
        q_sum = float(q[mask].sum())
        d_sum = float(d[mask].sum())
        numerator = q_sum * e + epsilon_total
        denominator = d_sum * e + epsilon_total
        # Inequality (21): keep pairs with q_j / d_j > rho.  Written
        # multiplication-side to stay well-defined when d_j == 0, and with
        # >= so that float ties at huge alpha (where q_j/d_j equals the
        # objective to machine precision) do not drop optimal elements --
        # at exact equality inclusion leaves the objective unchanged.
        keep = mask & (q * denominator >= d * numerator)
        if keep.sum() == mask.sum():
            log_value = math.log(numerator / denominator)
            return PairSolution(log_value, q_sum, d_sum, mask, iterations)
        if not keep.any():
            return PairSolution(0.0, 0.0, 0.0, empty, iterations)
        mask = keep


def solve_lfp_algorithm1(problem: LfpProblem) -> float:
    """Solve an :class:`~repro.core.lfp.LfpProblem` with Algorithm 1,
    returning the optimal log value (same interface as the baselines in
    :mod:`repro.lp`)."""
    total = float(problem.q.sum())
    return solve_pair(problem.q, problem.d, problem.alpha, total).log_value


def max_log_ratio(
    matrix, alpha: float, return_pair: bool = False
) -> "float | Tuple[float, Optional[PairSolution]]":
    """The temporal loss function of Eq. (23)/(24): the maximum of
    :func:`solve_pair` over all ordered row pairs of ``matrix``.

    When a registry is installed via
    :func:`repro.obs.instrument.install_solver_metrics`, each call counts
    one ``solver.algorithm1.solves`` and its wall time lands in
    ``solver.algorithm1.seconds``; the un-instrumented path (the default)
    costs one module-global read and runs the identical float operations.
    """
    registry = solver_metrics()
    if registry is None:
        return _max_log_ratio_impl(matrix, alpha, return_pair)
    start = time.perf_counter()
    try:
        return _max_log_ratio_impl(matrix, alpha, return_pair)
    finally:
        registry.histogram("solver.algorithm1.seconds").observe(
            time.perf_counter() - start
        )
        registry.counter("solver.algorithm1.solves").inc()


def _max_log_ratio_impl(
    matrix, alpha: float, return_pair: bool = False
) -> "float | Tuple[float, Optional[PairSolution]]":
    """Uninstrumented :func:`max_log_ratio` body.

    This is lines 2 and 12 of Algorithm 1.  The sweep over row pairs is
    batched: all ``n (n-1)`` pairs run their deletion loops simultaneously
    on ``(pairs, n)`` numpy arrays, so a full ``n = 250`` matrix evaluates
    in well under a second.

    Parameters
    ----------
    matrix:
        Transition matrix (backward ``P_B`` for ``L_B``, forward ``P_F``
        for ``L_F``).
    alpha:
        Previous BPL / next FPL; must be in ``[0, log(DBL_MAX)]``.
    return_pair:
        When true, also return the :class:`PairSolution` achieving the
        maximum (needed by Theorem 5 and Algorithms 2/3); ``None`` when
        the maximum increment is zero.

    Returns
    -------
    The loss ``L(alpha) >= 0`` (and optionally the maximising pair).
    """
    _check_alpha(alpha)
    p = as_transition_matrix(matrix).array
    n = p.shape[0]
    e = math.expm1(alpha)
    if e == 0.0 or n == 1:
        return (0.0, None) if return_pair else 0.0

    # Build every ordered row pair (j, k), j != k.
    j_idx, k_idx = np.where(~np.eye(n, dtype=bool))
    q_rows = p[j_idx]  # shape (pairs, n)
    d_rows = p[k_idx]

    mask = q_rows > d_rows  # Corollary 2 candidates
    active = mask.any(axis=1)
    while True:
        q_sums = (q_rows * mask).sum(axis=1)
        d_sums = (d_rows * mask).sum(axis=1)
        numerator = q_sums * e + 1.0
        denominator = d_sums * e + 1.0
        # >= for the same float-tie robustness as in solve_pair.
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
    best = int(np.argmax(values))
    best_value = float(max(values[best], 0.0))

    if not return_pair:
        return best_value
    if best_value <= 0.0:
        return 0.0, None
    pair = PairSolution(
        log_value=best_value,
        q_sum=float(q_sums[best]),
        d_sum=float(d_sums[best]),
        subset_mask=mask[best].copy(),
        iterations=-1,  # batched: per-pair sweep count not tracked
    )
    return best_value, pair


#: Soft cap on the ``alphas x pairs x n`` work arrays of the batched
#: solvers; larger inputs are processed in chunks.
_BATCH_CHUNK_ELEMENTS = 4_000_000


def max_log_ratio_batch(matrix, alphas) -> np.ndarray:
    """Vectorised :func:`max_log_ratio` over a whole *vector* of alphas.

    Evaluating the temporal loss function at ``A`` different incoming
    leakage values runs the same deletion sweep as :func:`max_log_ratio`
    on ``(A, pairs, n)`` arrays -- the one-job case of
    :func:`max_log_ratio_stacked`, with bit-identical results to the
    scalar path (same subset-selection rule, same tie-breaking, same
    ``math.expm1``).  ``alphas`` is 1-D, each value in ``[0, log(DBL_MAX)]``;
    the result has the same shape.

    A batch of ``A`` alphas counts ``A`` towards
    ``solver.algorithm1.solves`` when solver metrics are installed (see
    :func:`max_log_ratio`) -- instrumented and per-alpha scalar calls
    report comparable totals.
    """
    return max_log_ratio_stacked([(matrix, alphas)])[0]


def _batch_sweep(
    q_rows: np.ndarray,
    d_rows: np.ndarray,
    base_mask: np.ndarray,
    e: np.ndarray,
) -> np.ndarray:
    """One chunk of the batched solvers: the deletion sweep on stacked
    ``(A, pairs, n)`` arrays carrying one (possibly different) matrix per
    entry, for ``A = len(e)`` strictly positive ``e^alpha - 1`` values.

    Each entry's deletion sequence is independent of the rest of the
    batch: the shared while-loop only decides how many extra sweeps a
    converged entry sits through, and a stable subset reproduces its sums
    (and therefore its value) identically on every extra sweep, so
    results are bit-identical regardless of how entries are chunked or
    mixed."""
    mask = base_mask.copy()
    active = mask.any(axis=2)  # (A, pairs)
    while True:
        q_sums = (q_rows * mask).sum(axis=2)
        d_sums = (d_rows * mask).sum(axis=2)
        numerator = q_sums * e[:, None] + 1.0
        denominator = d_sums * e[:, None] + 1.0
        # >= for the same float-tie robustness as in solve_pair.
        keep = mask & (
            q_rows * denominator[:, :, None] >= d_rows * numerator[:, :, None]
        )
        changed = active & (keep.sum(axis=2) != mask.sum(axis=2))
        if not changed.any():
            break
        mask = np.where(changed[:, :, None], keep, mask)
        active = mask.any(axis=2)

    values = np.log(numerator) - np.log(denominator)
    values[~active] = 0.0
    return np.maximum(values.max(axis=1), 0.0)


def max_log_ratio_stacked(jobs) -> list:
    """Solve many ``(matrix, alphas)`` jobs in shared stacked sweeps.

    All matrices must be the same size ``n``; entries from different jobs
    are fused into the same ``(A, pairs, n)`` deletion sweeps, so a fleet
    of cohorts with *different* transition structure still costs one
    solver entry per chunk instead of one per cohort.  Per-entry
    independence of :func:`_batch_sweep` makes each job's results
    bit-identical to a standalone ``max_log_ratio_batch(matrix, alphas)``
    call, and every value bit-identical to the scalar
    :func:`max_log_ratio`.

    Each distinct ``(job, alpha)`` entry is solved once: a job's repeated
    alphas (a fleet's override rows on the group's budgets repeat their
    group's FPL) share one sweep entry, and the values are mapped back
    with one gather.  This is bit-safe because an entry's value depends
    only on its matrix and its float, so equal floats of one job give
    equal values; ``0.0`` and ``-0.0`` merge, and both give ``0.0``.
    Calls where no job holds two alphas skip the dedup.  The bookkeeping
    is array operations; only ``math.expm1`` runs per distinct alpha.

    When solver metrics are installed, the requested alphas count towards
    ``solver.algorithm1.solves`` and the entries swept (distinct, with
    ``e^alpha - 1 > 0``, on a matrix with a Corollary-2 candidate)
    towards ``solver.algorithm1.distinct``.

    Parameters
    ----------
    jobs:
        Sequence of ``(matrix, alphas)`` pairs; ``alphas`` 1-D, each
        value in ``[0, log(DBL_MAX)]``.

    Returns
    -------
    List of arrays, one per job, each shaped like its ``alphas``.
    """
    registry = solver_metrics()
    if registry is None:
        return _max_log_ratio_stacked_impl(jobs)[0]
    start = time.perf_counter()
    total = swept = 0
    try:
        out, swept = _max_log_ratio_stacked_impl(jobs)
        total = sum(int(values.size) for values in out)
        return out
    finally:
        registry.histogram("solver.algorithm1.seconds").observe(
            time.perf_counter() - start
        )
        registry.counter("solver.algorithm1.solves").inc(total)
        registry.counter("solver.algorithm1.distinct").inc(swept)


def _max_log_ratio_stacked_impl(jobs) -> Tuple[list, int]:
    """Uninstrumented :func:`max_log_ratio_stacked` body.  Also returns
    the number of distinct ``(job, alpha)`` entries it swept."""
    arrays = []
    pieces = []
    n_ref: Optional[int] = None
    for matrix, alphas in jobs:
        alphas = np.asarray(alphas, dtype=float)
        if alphas.ndim != 1:
            raise ValueError("alphas must be a 1-D array")
        p = as_transition_matrix(matrix).array
        if n_ref is None:
            n_ref = p.shape[0]
        elif p.shape[0] != n_ref:
            raise ValueError(
                "stacked solve requires matrices of one size; got "
                f"{p.shape[0]}x{p.shape[0]} after {n_ref}x{n_ref}"
            )
        arrays.append(p)
        pieces.append(alphas)
    if not pieces:
        return [], 0
    flat = np.concatenate(pieces)  # job-major
    # One validation pass for every job; min and max propagate NaN.
    if flat.size and not (flat.min() >= 0.0 and flat.max() <= _ALPHA_MAX):
        raise InvalidPrivacyParameterError(
            f"all alphas must be finite, >= 0 and <= {_ALPHA_MAX!r}"
        )
    if n_ref == 1 or not flat.size:
        return _split(np.zeros(flat.size), pieces), 0

    # np.take rather than fancy indexing: the same copies, several times
    # faster on these small trailing axes.
    j_idx, k_idx = np.where(~np.eye(n_ref, dtype=bool))
    stacked = np.array(arrays)
    q_all = np.take(stacked, j_idx, axis=1)  # (jobs, pairs, n)
    d_all = np.take(stacked, k_idx, axis=1)
    m_all = q_all > d_all  # Corollary 2 candidates, per job
    live = m_all.any(axis=(1, 2))

    # The distinct (job, alpha) entries.  A stable sort of the job-major
    # alphas leaves equal alphas in job order, so an entry is new where
    # its alpha or its job differs from its sorted neighbour's.  0.0 and
    # -0.0 merge; both give e == 0 and the value 0.0.  With no job holding
    # two alphas every entry is distinct already.
    sizes = [piece.size for piece in pieces]
    job_of = np.repeat(np.arange(len(sizes)), sizes)
    if max(sizes) > 1:
        order = np.argsort(flat, kind="stable")
        sorted_alphas = flat[order]
        sorted_jobs = job_of[order]
        new = np.empty(flat.size, dtype=bool)
        new[0] = True
        np.not_equal(sorted_alphas[1:], sorted_alphas[:-1], out=new[1:])
        new[1:] |= sorted_jobs[1:] != sorted_jobs[:-1]
        inverse = np.empty(flat.size, dtype=np.intp)
        inverse[order] = np.cumsum(new) - 1
        alphas, job_of = sorted_alphas[new], sorted_jobs[new]
    else:
        alphas, inverse = flat, None

    # math.expm1 (C libm) rather than np.expm1 (SIMD): the two can differ
    # in the last ulp, and the contract is bit-identical results with the
    # scalar max_log_ratio path.
    e = np.fromiter(map(math.expm1, alphas.tolist()), float, alphas.size)
    work = np.flatnonzero((e > 0.0) & live[job_of])
    values = np.zeros(alphas.size)
    chunk = max(1, _BATCH_CHUNK_ELEMENTS // (j_idx.size * n_ref))
    for lo in range(0, work.size, chunk):
        sel = work[lo : lo + chunk]
        jsel = job_of[sel]
        values[sel] = _batch_sweep(
            np.take(q_all, jsel, axis=0),
            np.take(d_all, jsel, axis=0),
            np.take(m_all, jsel, axis=0),
            e[sel],
        )
    if inverse is not None:
        values = np.take(values, inverse)
    return _split(values, pieces), int(work.size)


def _split(flat: np.ndarray, pieces: list) -> list:
    """Views of ``flat``, one per piece, each shaped like its piece."""
    outs = []
    lo = 0
    for piece in pieces:
        hi = lo + piece.size
        outs.append(flat[lo:hi])
        lo = hi
    return outs

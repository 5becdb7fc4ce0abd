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
"""

from __future__ import annotations

import math
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


def solve_pair(
    q: np.ndarray, d: np.ndarray, alpha: float, epsilon_total: float = 1.0
) -> PairSolution:
    """Run Algorithm 1's inner loop (lines 3-11) for one ordered pair.

    Parameters
    ----------
    q, d:
        Two rows of a (backward or forward) transition matrix.
    alpha:
        The previous BPL / next FPL.  ``alpha == 0`` returns a zero
        increment immediately (no prior leakage to amplify).
    epsilon_total:
        Row sums (1 for stochastic rows); kept explicit so the function is
        also correct for sub-stochastic test vectors.
    """
    q = np.asarray(q, dtype=float)
    d = np.asarray(d, dtype=float)
    if alpha < 0:
        raise InvalidPrivacyParameterError(f"alpha must be >= 0, got {alpha}")
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
        Previous BPL / next FPL; must be ``>= 0``.
    return_pair:
        When true, also return the :class:`PairSolution` achieving the
        maximum (needed by Theorem 5 and Algorithms 2/3); ``None`` when
        the maximum increment is zero.

    Returns
    -------
    The loss ``L(alpha) >= 0`` (and optionally the maximising pair).
    """
    if alpha < 0:
        raise InvalidPrivacyParameterError(f"alpha must be >= 0, got {alpha}")
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
    ``math.expm1``).  ``alphas`` is 1-D, each value finite and ``>= 0``;
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
    :func:`max_log_ratio`.  Counts the total number of alphas towards
    ``solver.algorithm1.solves`` when solver metrics are installed.

    Parameters
    ----------
    jobs:
        Sequence of ``(matrix, alphas)`` pairs; ``alphas`` 1-D, each
        value finite and ``>= 0``.

    Returns
    -------
    List of arrays, one per job, each shaped like its ``alphas``.
    """
    registry = solver_metrics()
    if registry is None:
        return _max_log_ratio_stacked_impl(jobs)
    start = time.perf_counter()
    total = 0
    try:
        out = _max_log_ratio_stacked_impl(jobs)
        total = sum(int(values.size) for values in out)
        return out
    finally:
        registry.histogram("solver.algorithm1.seconds").observe(
            time.perf_counter() - start
        )
        registry.counter("solver.algorithm1.solves").inc(total)


def _max_log_ratio_stacked_impl(jobs) -> list:
    prepared = []
    outs = []
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
        outs.append(np.zeros_like(alphas))
        prepared.append((p, alphas))
    # One combined validation pass: with hundreds of small jobs per call
    # the per-job reductions dominate the sweep itself.
    if prepared:
        flat = np.concatenate([alphas for _, alphas in prepared])
        if flat.size and (np.any(flat < 0) or not np.all(np.isfinite(flat))):
            raise InvalidPrivacyParameterError(
                "all alphas must be finite and >= 0"
            )
    if n_ref is None or n_ref == 1:
        return outs

    j_idx, k_idx = np.where(~np.eye(n_ref, dtype=bool))
    q_all = np.stack([p[j_idx] for p, _ in prepared])  # (jobs, pairs, n)
    d_all = np.stack([p[k_idx] for p, _ in prepared])
    m_all = q_all > d_all  # Corollary 2 candidates, per job
    any_candidates = m_all.any(axis=(1, 2))

    # Flat work list of (job, position, e^alpha - 1).  math.expm1 (C
    # libm) rather than np.expm1 (SIMD): the two can differ in the last
    # ulp, and the contract is bit-identical results with the scalar
    # max_log_ratio path.
    entries = []
    expm1 = math.expm1
    for ji, (_, alphas) in enumerate(prepared):
        if not any_candidates[ji]:
            continue
        for ai, value in enumerate(alphas.tolist()):
            e = expm1(value)
            if e > 0.0:
                entries.append((ji, ai, e))
    if not entries:
        return outs

    per_alpha = j_idx.size * n_ref
    chunk = max(1, _BATCH_CHUNK_ELEMENTS // per_alpha)
    for lo in range(0, len(entries), chunk):
        part = entries[lo : lo + chunk]
        jsel = np.array([ji for ji, _, _ in part])
        e = np.array([ev for _, _, ev in part])
        values = _batch_sweep(q_all[jsel], d_all[jsel], m_all[jsel], e)
        for (ji, ai, _), value in zip(part, values):
            outs[ji][ai] = value
    return outs


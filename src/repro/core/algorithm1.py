"""Algorithm 1 of the paper: polynomial-time privacy-leakage quantification.

For one ordered row pair ``(q, d)``, Theorem 4 puts the optimum of the
linear-fractional program (18)-(20) at::

    ( Q (e^alpha - 1) + a ) / ( D (e^alpha - 1) + b )

with ``a = sum(q)``, ``b = sum(d)`` (1 for the rows of a transition
matrix) and ``Q``, ``D`` the sums of ``q`` and ``d`` over ``{j : q_j /
d_j > rho*}``, ``rho*`` the optimal value.  In descending ``q_j / d_j``
that subset is a prefix of the Corollary-2 candidates ``q_j b > d_j a``.
The paper's Algorithm 1 finds it by repeated deletion; the proof of
Theorem 4 is Dinkelbach's parametric argument, by which it is also the
prefix with the largest objective.  One loop-free kernel computes that
prefix directly.  Once per matrix and call it sorts each pair's
candidates by ``d_j / q_j`` and takes prefix sums of ``q`` and ``d``
(:func:`_prefix_tables`).  Then, for each ``(matrix, alpha)`` entry, it
picks the prefix, the empty one included, with the largest objective,
widens it to the candidates whose key ties its last one (as the loop's
``>=`` keeps ties), re-sums ``q`` and ``d`` over that subset in index
order and returns ``log(Q e + a) - log(D e + b)`` (:func:`_best_prefix`).

In exact arithmetic that is the deletion loop's subset.  In floats the
loop's product test ties once ``e^alpha - 1`` swamps the ``+ 1`` and
drops optimal coordinates, under-reporting the leakage at large alpha;
the kernel compares objective values only, so it is exact at every
alpha, and wherever the loop kept the right subset the values agree bit
for bit.  The loop is kept as reference code in the test suite.

:func:`solve_pair` (one pair), :func:`max_log_ratio` (the loss ``L`` of
Eq. (23)/(24): the maximum over all ordered row pairs) and
:func:`max_log_ratio_stacked` (many ``(matrix, alphas)`` jobs, each
distinct entry solved once; :func:`max_log_ratio_batch` is its one-job
case) all reach this kernel.  Every entry point takes alphas in ``[0,
log(DBL_MAX)]``, and the batched ones return the bits of
:func:`max_log_ratio` on the same matrix and alpha.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

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
        optimal subset.  These feed Theorem 5 (supremum) and the budget
        allocation of Algorithms 2/3.
    subset_mask:
        Boolean mask of the optimal subset (the paper's ``q+``).
    """

    log_value: float
    q_sum: float
    d_sum: float
    subset_mask: np.ndarray

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


class _Tables(NamedTuple):
    """The alpha-free half of the kernel for ``jobs`` rows of ``pairs``
    coefficient pairs of length ``n`` (see :func:`_prefix_tables`)."""

    #: ``(2, jobs, pairs, n)``: the ``q`` rows, then the ``d`` rows.
    rows: np.ndarray
    #: ``(2, jobs, pairs, n + 1)``: sums of ``q``, then of ``d``, over the
    #: first ``m`` candidates in descending ``q_j / d_j``, ``m = 0..n``.
    prefix: np.ndarray
    #: ``(jobs, pairs, n)``: the shortest prefix length whose subset holds
    #: coordinate ``j``; past the last candidate for a non-candidate.
    rank: np.ndarray
    #: ``(2, 1, 1)``: the row sums ``a = sum(q)`` and ``b = sum(d)``.
    totals: np.ndarray


def _prefix_tables(
    rows: np.ndarray, cand: np.ndarray, a: float = 1.0, b: float = 1.0
) -> _Tables:
    """Sort each pair's Corollary-2 candidates ``cand`` (``q_j b > d_j
    a``) by ``d_j / q_j`` and take the prefix sums of ``q`` and ``d`` in
    that order; ``rows`` is ``(2, jobs, pairs, n)`` and ``cand`` is
    ``(jobs, pairs, n)``.

    Non-candidates carry zero weight, so the prefixes past the last
    candidate repeat its objective and the argmax never picks one."""
    order, rank = _key_order(rows, cand)
    prefix = np.zeros(rows.shape[:-1] + (rows.shape[-1] + 1,))
    weights = (rows * cand).reshape(2, -1)
    weights.take(order, axis=1, out=prefix[..., 1:], mode="clip")
    np.add.accumulate(prefix[..., 1:], axis=-1, out=prefix[..., 1:])
    return _Tables(rows, prefix, rank, np.array([a, b]).reshape(2, 1, 1))


def _key_order(rows: np.ndarray, cand: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The flat positions of each pair's coordinates in ascending key
    ``d_j / q_j``, and each coordinate's rank: the 1-based position of the
    first key equal to its own.  A prefix that ends inside a run of
    equal keys so takes the whole run: in exact arithmetic tied
    coordinates leave the objective unchanged, and the deletion loop
    keeps them together.

    Non-candidates get NaN keys, which sort last and equal nothing, so
    each ranks at its own position past the last candidate."""
    key = np.where(cand, rows[1], np.nan)
    key /= rows[0]
    order = key.argsort(axis=-1)
    order += _row_starts(order.shape)
    ordered = key.take(order)
    first = np.ones(order.shape, dtype=bool)
    np.not_equal(ordered[..., 1:], ordered[..., :-1], out=first[..., 1:])
    runs = first * np.arange(1, order.shape[-1] + 1, dtype=np.int32)
    np.maximum.accumulate(runs, axis=-1, out=runs)
    rank = np.empty_like(runs)
    rank.put(order, runs)
    return order, rank


def _best_prefix(
    tables: _Tables, e: np.ndarray, job: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Theorem 4 for the entries ``(job[i], e[i])``, ``e = e^alpha - 1``;
    ``job=None`` when table row ``i`` is entry ``i``'s.

    Returns the ``(entries, pairs)`` log values, the ``(2, entries,
    pairs)`` sums ``Q`` and ``D``, and the ``(entries, pairs, n)`` subset
    masks.  An entry's results depend only on its own table row and
    ``e``, so they are the same bits however entries are chunked or
    mixed."""
    rows, prefix, rank, totals = tables
    if job is not None:
        rows = rows.take(job, axis=1)
        prefix = prefix.take(job, axis=1)
        rank = rank.take(job, axis=0)
    line = prefix * e[:, None, None]
    line += totals[..., None]
    best = (line[0] / line[1]).argmax(axis=-1)
    del line  # before the re-sum: at n = 200 it is 128 MB
    mask = rank <= best[..., None]
    sums = (rows * mask).sum(axis=-1)
    logs = np.log(sums * e[:, None] + totals)
    return logs[0] - logs[1], sums, mask


@functools.lru_cache(maxsize=64)
def _row_starts(shape: Tuple[int, ...]) -> np.ndarray:
    """The flat position of each last-axis row's first element in a
    C-ordered array of ``shape``, shaped to broadcast along that axis."""
    return np.arange(0, math.prod(shape), shape[-1]).reshape(shape[:-1] + (1,))


@functools.lru_cache(maxsize=64)
def _pair_index(jobs: int, n: int) -> np.ndarray:
    """Flat row indices into ``jobs`` stacked ``n``-state matrices of
    every ordered row pair ``(j, k)``, ``j != k``: the ``j`` rows of every
    matrix, then the ``k`` rows."""
    j_idx, k_idx = np.where(~np.eye(n, dtype=bool))
    base = np.arange(jobs)[:, None] * n
    return np.concatenate([(base + j_idx).ravel(), (base + k_idx).ravel()])


def _matrix_tables(stacked: np.ndarray) -> _Tables:
    """The tables of every ordered row pair ``(j, k)``, ``j != k``, of
    each matrix in a ``(jobs, n, n)`` stack: ``q`` is row ``j`` and ``d``
    row ``k``, and both sum to 1, so the candidates are ``q_j > d_j``."""
    jobs, n = stacked.shape[:2]
    rows = stacked.reshape(-1, n).take(_pair_index(jobs, n), axis=0)
    rows = rows.reshape(2, jobs, -1, n)
    return _prefix_tables(rows, rows[0] > rows[1])


def solve_pair(
    q: np.ndarray, d: np.ndarray, alpha: float, q_total=1.0, d_total=1.0
) -> PairSolution:
    """Theorem 4 for one ordered pair (Algorithm 1, lines 3-11).

    Parameters
    ----------
    q, d:
        Two rows of a (backward or forward) transition matrix.
    alpha:
        The previous BPL / next FPL, in ``[0, log(DBL_MAX)]``.  ``alpha ==
        0`` gives ``log(q_total / d_total)`` with the empty subset.
    q_total, d_total:
        The sums of ``q`` and ``d`` (1 for stochastic rows); explicit so
        the function also solves sub-stochastic LFPs.
    """
    q = np.asarray(q, dtype=float)
    d = np.asarray(d, dtype=float)
    _check_alpha(alpha)
    rows = np.array([q, d]).reshape(2, 1, 1, -1)
    cand = rows[0] * d_total > rows[1] * q_total
    tables = _prefix_tables(rows, cand, q_total, d_total)
    values, sums, mask = _best_prefix(tables, np.array([math.expm1(alpha)]))
    return PairSolution(
        float(values[0, 0]), float(sums[0, 0, 0]), float(sums[1, 0, 0]), mask[0, 0]
    )


def solve_lfp_algorithm1(problem: LfpProblem) -> float:
    """Solve an :class:`~repro.core.lfp.LfpProblem` with Algorithm 1,
    returning the optimal log value (same interface as the baselines in
    :mod:`repro.lp`)."""
    q, d = problem.q, problem.d
    return solve_pair(q, d, problem.alpha, q.sum(), d.sum()).log_value


def max_log_ratio(
    matrix, alpha: float, return_pair: bool = False
) -> "float | Tuple[float, Optional[PairSolution]]":
    """The temporal loss function of Eq. (23)/(24): the maximum of
    :func:`solve_pair` over all ordered row pairs of ``matrix`` (``P_B``
    for ``L_B``, ``P_F`` for ``L_F``) at the previous BPL / next FPL
    ``alpha``.  ``return_pair`` also returns the maximising
    :class:`PairSolution` (for Theorem 5 and Algorithms 2/3), ``None``
    when the loss is zero.

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
    """Uninstrumented :func:`max_log_ratio` body: lines 2 and 12 of
    Algorithm 1, every ordered row pair in one kernel entry."""
    _check_alpha(alpha)
    p = as_transition_matrix(matrix).array
    e = math.expm1(alpha)
    if e == 0.0 or p.shape[0] == 1:
        return (0.0, None) if return_pair else 0.0

    tables = _matrix_tables(p[None])
    values, sums, mask = _best_prefix(tables, np.array([e]))
    best = int(np.argmax(values[0]))
    best_value = float(max(values[0, best], 0.0))
    if not return_pair:
        return best_value
    if best_value <= 0.0:
        return 0.0, None
    pair = PairSolution(
        log_value=best_value,
        q_sum=float(sums[0, 0, best]),
        d_sum=float(sums[1, 0, best]),
        subset_mask=mask[0, best].copy(),
    )
    return best_value, pair


#: Soft cap on the ``alphas x pairs x n`` work arrays of the batched
#: solvers; larger inputs are processed in chunks.
_BATCH_CHUNK_ELEMENTS = 4_000_000


def max_log_ratio_batch(matrix, alphas) -> np.ndarray:
    """:func:`max_log_ratio` at each of the 1-D ``alphas``, bit for bit:
    the one-job case of :func:`max_log_ratio_stacked`.  A batch of ``A``
    alphas counts ``A`` towards ``solver.algorithm1.solves``, like ``A``
    scalar calls."""
    return max_log_ratio_stacked([(matrix, alphas)])[0]


def max_log_ratio_stacked(jobs) -> list:
    """Solve many ``(matrix, alphas)`` jobs in one kernel call.

    All matrices must be the same size ``n``; entries from different jobs
    are fused into the same ``(entries, pairs, n)`` arrays, so a fleet of
    cohorts with *different* transition structure still costs one solver
    entry per chunk instead of one per cohort.  Each entry's value
    depends only on its matrix and alpha, so every job's results are
    bit-identical to a standalone ``max_log_ratio_batch(matrix, alphas)``
    call, and every value bit-identical to the scalar
    :func:`max_log_ratio`.

    Each distinct ``(job, alpha)`` entry is solved once: a job's repeated
    alphas (a fleet's override rows on the group's budgets repeat their
    group's FPL) share one kernel entry, and the values are mapped back
    with one gather.  This is bit-safe because an entry's value depends
    only on its matrix and its float, so equal floats of one job give
    equal values; ``0.0`` and ``-0.0`` merge, and both give ``0.0``.
    Calls where no job holds two alphas skip the dedup.  The bookkeeping
    is array operations; only ``math.expm1`` runs per distinct alpha.

    When solver metrics are installed, the requested alphas count towards
    ``solver.algorithm1.solves`` and the entries solved (distinct, with
    ``e^alpha - 1 > 0``, on a matrix with a Corollary-2 candidate)
    towards ``solver.algorithm1.distinct``.  ``jobs`` holds ``(matrix,
    alphas)`` pairs with 1-D ``alphas``; the result is one array per job,
    shaped like its ``alphas``.
    """
    registry = solver_metrics()
    if registry is None:
        return _max_log_ratio_stacked_impl(jobs)[0]
    start = time.perf_counter()
    total = solved = 0
    try:
        out, solved = _max_log_ratio_stacked_impl(jobs)
        total = sum(int(values.size) for values in out)
        return out
    finally:
        registry.histogram("solver.algorithm1.seconds").observe(
            time.perf_counter() - start
        )
        registry.counter("solver.algorithm1.solves").inc(total)
        registry.counter("solver.algorithm1.distinct").inc(solved)


def _max_log_ratio_stacked_impl(jobs) -> Tuple[list, int]:
    """Uninstrumented :func:`max_log_ratio_stacked` body.  Also returns
    the number of distinct ``(job, alpha)`` entries it solved."""
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

    tables = _matrix_tables(np.array(arrays))
    # Candidates carry positive q, so a job whose pairs all total zero
    # candidate q has no Corollary-2 candidate and reads 0.0 unsolved.
    live = tables.prefix[0, :, :, -1].any(axis=1)

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
    chunk = max(1, _BATCH_CHUNK_ELEMENTS // tables.rank[0].size)
    for lo in range(0, work.size, chunk):
        sel = work[lo : lo + chunk]
        solved = _best_prefix(tables, e[sel], job_of[sel])[0]
        values[sel] = np.maximum(solved.max(axis=1), 0.0)
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

"""Dinkelbach's algorithm for the paper's linear-fractional program.

Dinkelbach (1967), which the paper uses in the *proof* of Theorem 4,
also gives a practical solver: the LFP ``max Q(x)/D(x)`` is solved by
iterating the parametric problem ``F(lambda) = max Q(x) - lambda D(x)``
until ``F(lambda) == 0``.

For problem (18)-(20) the inner parametric problem has the closed-form
solution of the paper's Lemma 3: with coefficients ``k_i = q_i - lambda
d_i``, the maximiser sets ``x_i = e^alpha m`` where ``k_i > 0`` and
``x_i = m`` otherwise.  Each iteration is therefore O(n), and the update
``lambda <- Q(x*)/D(x*)`` converges superlinearly.

This gives an independent exact solver used to cross-validate Algorithm 1
in the test-suite, and a competitive baseline in the runtime benchmarks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ..core.lfp import LfpProblem
from ..exceptions import SolverError
from ..obs.instrument import solver_metrics

__all__ = ["DinkelbachResult", "solve_lfp_dinkelbach"]


@dataclass
class DinkelbachResult:
    """Solution of an LFP by Dinkelbach iteration."""

    log_value: float
    subset_mask: np.ndarray  # which variables sit at the e^alpha level
    iterations: int


def solve_lfp_dinkelbach(
    problem: LfpProblem, tol: float = 1e-12, max_iter: int = 1_000
) -> DinkelbachResult:
    """Solve an :class:`LfpProblem` exactly via Dinkelbach + Lemma 3.

    Returns the optimal log-value together with the optimal two-level
    vertex (as a boolean mask of "high" variables).

    When a registry is installed via
    :func:`repro.obs.instrument.install_solver_metrics`, each call counts
    one ``solver.dinkelbach.solves``, records its iteration count in
    ``solver.dinkelbach.iterations`` and its wall time in
    ``solver.dinkelbach.seconds``; un-instrumented calls (the default)
    run the identical float operations.
    """
    registry = solver_metrics()
    if registry is None:
        return _solve_lfp_dinkelbach_impl(problem, tol, max_iter)
    start = time.perf_counter()
    try:
        result = _solve_lfp_dinkelbach_impl(problem, tol, max_iter)
    finally:
        registry.histogram("solver.dinkelbach.seconds").observe(
            time.perf_counter() - start
        )
        registry.counter("solver.dinkelbach.solves").inc()
    registry.histogram("solver.dinkelbach.iterations").observe(
        result.iterations
    )
    return result


def _solve_lfp_dinkelbach_impl(
    problem: LfpProblem, tol: float = 1e-12, max_iter: int = 1_000
) -> DinkelbachResult:
    q, d = problem.q, problem.d
    e = problem.ratio_bound - 1.0

    # Start from the all-low point x = m (lambda = sum q / sum d).
    denominator = float(d.sum())
    if denominator <= 0:
        raise SolverError("degenerate problem: d sums to zero")
    lam = float(q.sum()) / denominator
    mask = np.zeros(problem.n, dtype=bool)

    for iteration in range(1, max_iter + 1):
        new_mask = (q - lam * d) > 0
        numerator = float(q[new_mask].sum()) * e + float(q.sum())
        denominator = float(d[new_mask].sum()) * e + float(d.sum())
        if denominator <= 0:
            raise SolverError("degenerate denominator in Dinkelbach step")
        new_lam = numerator / denominator
        f_value = numerator - lam * denominator
        # F is evaluated at magnitude ~ numerator, which e^alpha inflates
        # at large alpha; an absolute tolerance can then be below float
        # round-off and never trigger.  Converge on relative F, or on a
        # lambda fixed point (Dinkelbach strictly increases lambda while
        # suboptimal, so no progress means optimal).
        if f_value <= tol * max(1.0, abs(lam), abs(numerator)) or new_lam <= lam:
            # F(lambda) == 0 up to tolerance: lambda is optimal.
            final = max(lam, new_lam)
            if final <= 0:
                raise SolverError(f"non-positive LFP optimum {final}")
            return DinkelbachResult(
                log_value=math.log(final),
                subset_mask=new_mask,
                iterations=iteration,
            )
        lam, mask = new_lam, new_mask

    raise SolverError(f"Dinkelbach did not converge in {max_iter} iterations")


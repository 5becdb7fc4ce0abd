"""Process-wide solver instrumentation hook.

The Algorithm-1 and Dinkelbach solvers sit below every accounting layer
and have no session to hand them a registry, so they follow the same
process-wide hook pattern as
:func:`repro.core.loss_functions.set_shared_solution_cache`: a session
(or the CLI, or a test) installs a :class:`~repro.obs.metrics.
MetricsRegistry` via :func:`install_solver_metrics`, and the solvers
check :func:`solver_metrics` per call -- ``None`` (the default) costs one
module-global read, so un-instrumented solves stay on their exact hot
path.

Installed metrics:

* ``solver.algorithm1.solves`` / ``solver.algorithm1.seconds`` -- one
  count per alpha evaluated (a batch of ``A`` alphas counts ``A``) and
  wall time per :func:`~repro.core.algorithm1.max_log_ratio` /
  :func:`~repro.core.algorithm1.max_log_ratio_batch` /
  :func:`~repro.core.algorithm1.max_log_ratio_stacked` entry;
* ``solver.algorithm1.distinct`` -- the ``(job, alpha)`` entries a
  :func:`~repro.core.algorithm1.max_log_ratio_stacked` call (a
  ``max_log_ratio_batch`` call is one) actually solved, one increment
  per call: its requested alphas less the repeats within each job, and
  less the entries that are ``0.0`` without a kernel entry (``e^alpha -
  1 == 0``, or a matrix with no Corollary-2 candidate).  Against
  ``solves`` it shows what the kernel's dedup saved, which a count taken
  at the call boundary cannot see;
* ``solver.dinkelbach.solves`` / ``solver.dinkelbach.iterations`` /
  ``solver.dinkelbach.seconds`` -- per
  :func:`~repro.lp.dinkelbach.solve_lfp_dinkelbach` call.
"""

from __future__ import annotations

from typing import Optional

from .metrics import MetricsRegistry

__all__ = ["install_solver_metrics", "solver_metrics"]

_SOLVER_REGISTRY: Optional[MetricsRegistry] = None


def install_solver_metrics(
    registry: Optional[MetricsRegistry],
) -> Optional[MetricsRegistry]:
    """Install ``registry`` as the process-wide solver metrics sink
    (``None`` uninstalls).  Returns the previously installed registry so
    callers can restore it -- instrumentation is process-global, so
    scoped users (tests, the CLI) should restore on exit."""
    global _SOLVER_REGISTRY
    previous = _SOLVER_REGISTRY
    _SOLVER_REGISTRY = registry
    return previous


def solver_metrics() -> Optional[MetricsRegistry]:
    """The currently installed solver metrics registry, or ``None``."""
    return _SOLVER_REGISTRY

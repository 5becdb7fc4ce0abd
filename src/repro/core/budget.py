"""Algorithms 2 and 3: converting a DP mechanism into an alpha-DP_T one.

Both algorithms split the target TPL bound ``alpha`` into a backward part
``alpha_B`` and a forward part ``alpha_F`` (related through Eq. (10):
``alpha = alpha_B + alpha_F - eps``) and search for the split where the
backward-stabilising and forward-stabilising budgets coincide:

* **Algorithm 2** (``allocate_upper_bound``) uses Theorem 5: release the
  same ``eps`` at *every* time point, chosen so the supremum of BPL is
  ``alpha_B`` and of FPL is ``alpha_F``.  Works for any (unknown) horizon
  ``T`` but under-spends when ``T`` is short (leakage never reaches the
  bound).
* **Algorithm 3** (``allocate_quantified``) targets a finite horizon:
  give the first release ``alpha_B``, the last ``alpha_F`` and every
  middle release the stabilising budget ``eps_m``; then BPL_t == alpha_B,
  FPL_t == alpha_F, and TPL_t == alpha *exactly* at every time point.

Both raise :class:`~repro.exceptions.UnboundedLeakageError` for the
strongest correlation (where ``L(alpha) == alpha``), which admits no
positive stabilising budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Mapping, Optional, Tuple

import numpy as np

from ..exceptions import (
    AllocationError,
    InvalidPrivacyParameterError,
    UnboundedLeakageError,
)
from ..markov.matrix import as_transition_matrix
from .leakage import LeakageProfile, temporal_privacy_leakage
from .loss_functions import TemporalLossFunction

__all__ = [
    "BudgetAllocation",
    "allocate_upper_bound",
    "allocate_quantified",
    "validate_alpha",
    "validate_epsilon",
    "validate_epsilons",
]

_BISECT_TOL = 1e-12
_BISECT_ITER = 200


def validate_epsilon(
    value, *, allow_zero: bool = True, name: str = "epsilon"
) -> float:
    """Validate one privacy budget and return it as a ``float``.

    This is the single source of truth for epsilon validation across the
    accountants, the release engines and the service layer.

    Zero-budget semantics
    ---------------------
    ``epsilon == 0`` is a legal *accounting* input (the default): a
    zero-budget release publishes nothing new about the snapshot, adds no
    fresh leakage of its own, and can never increase TPL (``L(alpha) <=
    alpha``, Remark 1) -- but it still occupies a time point and keeps the
    BPL/FPL recursions well-defined.  It is an illegal *noise-calibration*
    input (``allow_zero=False``): the Laplace scale ``1/epsilon`` diverges,
    so publication paths must reject it.
    """
    try:
        epsilon = float(value)
    except (TypeError, ValueError):
        raise InvalidPrivacyParameterError(
            f"{name} must be a real number, got {value!r}"
        ) from None
    if not math.isfinite(epsilon) or epsilon < 0:
        raise InvalidPrivacyParameterError(
            f"{name} must be finite and >= 0, got {epsilon}"
        )
    if epsilon == 0 and not allow_zero:
        raise InvalidPrivacyParameterError(
            f"{name} must be > 0 to calibrate noise (Laplace scale "
            "1/epsilon diverges at zero); zero budgets are only valid for "
            "accounting"
        )
    return epsilon


def validate_alpha(value, *, name: str = "alpha") -> float:
    """Validate an alpha-DP_T bound (a TPL target) and return it as a
    ``float``.

    The one rule for every bound the library enforces or allocates for:
    finite and ``> 0``.  A NaN bound compares false against every
    leakage, so an accountant holding one would never reject a release.
    """
    try:
        alpha = float(value)
    except (TypeError, ValueError):
        raise InvalidPrivacyParameterError(
            f"{name} must be a real number, got {value!r}"
        ) from None
    if not 0.0 < alpha < math.inf:
        raise InvalidPrivacyParameterError(
            f"{name} must be finite and > 0, got {alpha}"
        )
    return alpha


def validate_epsilons(
    values,
    horizon: Optional[int] = None,
    *,
    allow_zero: bool = True,
    name: str = "budget",
) -> np.ndarray:
    """Validate a 1-D per-time-point budget vector (see
    :func:`validate_epsilon` for the zero-budget semantics).  Checks the
    length against ``horizon`` when given and returns a float array."""
    eps = np.asarray(values, dtype=float)
    if eps.ndim != 1:
        raise ValueError(f"{name} vector must be 1-D, got shape {eps.shape}")
    if horizon is not None and eps.shape != (horizon,):
        raise ValueError(
            f"{name} vector has length {eps.shape[0]}, need {horizon}"
        )
    if not np.all(np.isfinite(eps)) or np.any(eps < 0):
        raise InvalidPrivacyParameterError(
            f"all {name}s must be finite and >= 0"
        )
    if not allow_zero and np.any(eps == 0):
        raise InvalidPrivacyParameterError(
            f"all {name}s must be > 0 to calibrate noise; zero budgets are "
            "only valid for accounting"
        )
    return eps


@dataclass(frozen=True)
class BudgetAllocation:
    """Result of Algorithm 2 or 3 for one target ``alpha``.

    Attributes
    ----------
    alpha:
        The requested TPL bound.
    alpha_b, alpha_f:
        The backward/forward leakage levels the allocation stabilises at.
    method:
        ``"upper_bound"`` (Algorithm 2) or ``"quantified"`` (Algorithm 3).
    epsilon_first, epsilon_middle, epsilon_last:
        The released budgets.  Algorithm 2 uses one value for all three;
        Algorithm 3 boosts the first and last release.
    """

    alpha: float
    alpha_b: float
    alpha_f: float
    method: str
    epsilon_first: float
    epsilon_middle: float
    epsilon_last: float

    def epsilons(self, horizon: int) -> np.ndarray:
        """Materialise the per-time-point budget vector for ``horizon``
        releases."""
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if horizon == 1:
            # A single release: the whole alpha can be spent at once.
            return np.array([self.alpha])
        eps = np.full(horizon, self.epsilon_middle)
        eps[0] = self.epsilon_first
        eps[-1] = self.epsilon_last
        return eps

    def profile(self, horizon: int, backward=None, forward=None) -> LeakageProfile:
        """Leakage profile of this allocation over ``horizon`` releases
        against an adversary knowing ``(backward, forward)``."""
        return temporal_privacy_leakage(
            backward, forward, self.epsilons(horizon)
        )

    def total_budget(self, horizon: int) -> float:
        """Sum of released budgets -- proportional to output utility."""
        return float(self.epsilons(horizon).sum())


def _loss_or_none(matrix) -> Optional[TemporalLossFunction]:
    if matrix is None:
        return None
    if isinstance(matrix, TemporalLossFunction):
        return matrix
    return TemporalLossFunction(as_transition_matrix(matrix))


def _stabilising_epsilon(
    loss: Optional[TemporalLossFunction], alpha: float
) -> float:
    """``eps`` with ``L(alpha) + eps == alpha`` (== ``alpha`` when there is
    no correlation)."""
    alpha = validate_alpha(alpha)
    if loss is None:
        return alpha
    increment = loss(alpha)
    epsilon = alpha - increment
    if epsilon <= 0:
        raise UnboundedLeakageError(
            "strongest temporal correlation: no positive budget can keep "
            f"the leakage at alpha={alpha}"
        )
    return epsilon


def _solve_split(
    loss_b: Optional[TemporalLossFunction],
    loss_f: Optional[TemporalLossFunction],
    alpha: float,
) -> Tuple[float, float, float, int]:
    """Find ``alpha_B`` such that the backward and forward stabilising
    budgets coincide (the goto-loop of Algorithms 2/3, lines 2-10).

    Returns ``(alpha_b, alpha_f, epsilon, iterations)`` where ``epsilon``
    is the common stabilising budget and ``alpha_f = alpha - alpha_b +
    epsilon`` per Eq. (10).

    The mismatch ``f(alpha_B) = eps_B - eps_F`` is monotone increasing in
    ``alpha_B`` (the paper adjusts ``alpha_B`` upward when ``eps_B <
    eps_F``), so bisection converges; ``f(alpha) >= 0`` and
    ``f(0+) <= 0`` bracket the root.
    """

    def mismatch(alpha_b: float) -> Tuple[float, float, float]:
        eps_b = _stabilising_epsilon(loss_b, alpha_b)
        alpha_f = alpha - alpha_b + eps_b
        if alpha_f <= 0:
            # Backward side consumed everything; push alpha_b down.
            return 1.0, alpha_f, eps_b
        eps_f = _stabilising_epsilon(loss_f, alpha_f)
        return eps_b - eps_f, alpha_f, eps_b

    # Endpoint check: alpha_b == alpha is a root when there is effectively
    # no forward correlation (then eps_f == alpha_f == eps_b).
    diff_hi, alpha_f_hi, eps_hi = mismatch(alpha)
    if abs(diff_hi) <= _BISECT_TOL:
        return alpha, alpha_f_hi, eps_hi, 0

    lo, hi = alpha * 1e-9, alpha
    diff_lo, _, _ = mismatch(lo)
    if diff_lo > 0:
        raise AllocationError(
            "could not bracket the alpha_B split; mismatch positive at both ends"
        )
    result: Tuple[float, float, float, int] = (alpha, alpha_f_hi, eps_hi, 0)
    for iteration in range(1, _BISECT_ITER + 1):
        mid = 0.5 * (lo + hi)
        diff, alpha_f, eps_b = mismatch(mid)
        if abs(diff) <= _BISECT_TOL or (hi - lo) <= _BISECT_TOL * max(1.0, alpha):
            return mid, alpha_f, eps_b, iteration
        if diff < 0:
            lo = mid
        else:
            hi = mid
        result = (mid, alpha_f, eps_b, iteration)
    return result


def _single_user_upper_bound(backward, forward, alpha: float) -> BudgetAllocation:
    loss_b = _loss_or_none(backward)
    loss_f = _loss_or_none(forward)
    alpha_b, alpha_f, epsilon, _ = _solve_split(loss_b, loss_f, alpha)
    return BudgetAllocation(
        alpha=alpha,
        alpha_b=alpha_b,
        alpha_f=alpha_f,
        method="upper_bound",
        epsilon_first=epsilon,
        epsilon_middle=epsilon,
        epsilon_last=epsilon,
    )


def _single_user_quantified(backward, forward, alpha: float) -> BudgetAllocation:
    loss_b = _loss_or_none(backward)
    loss_f = _loss_or_none(forward)
    alpha_b, alpha_f, eps_m, _ = _solve_split(loss_b, loss_f, alpha)
    return BudgetAllocation(
        alpha=alpha,
        alpha_b=alpha_b,
        alpha_f=alpha_f,
        method="quantified",
        epsilon_first=alpha_b,
        epsilon_middle=eps_m,
        epsilon_last=alpha_f,
    )


def _normalise_users(correlations) -> Dict[Hashable, Tuple]:
    if isinstance(correlations, Mapping):
        return {u: (b, f) for u, (b, f) in correlations.items()}
    backward, forward = correlations
    return {0: (backward, forward)}


def _min_over_users(per_user: Dict[Hashable, BudgetAllocation], alpha, method):
    """Combine per-user allocations with the paper's ``min`` rule (line 11
    of both algorithms): the released budgets must satisfy every user."""
    return BudgetAllocation(
        alpha=alpha,
        alpha_b=min(a.alpha_b for a in per_user.values()),
        alpha_f=min(a.alpha_f for a in per_user.values()),
        method=method,
        epsilon_first=min(a.epsilon_first for a in per_user.values()),
        epsilon_middle=min(a.epsilon_middle for a in per_user.values()),
        epsilon_last=min(a.epsilon_last for a in per_user.values()),
    )


def allocate_upper_bound(correlations, alpha: float) -> BudgetAllocation:
    """**Algorithm 2**: bound TPL by its supremum (horizon-free).

    Parameters
    ----------
    correlations:
        Either one ``(P_B, P_F)`` tuple or a mapping ``user -> (P_B,
        P_F)``; ``None`` entries mean the adversary lacks that direction.
    alpha:
        Desired alpha-DP_T level.

    Returns a :class:`BudgetAllocation` whose constant per-time-point
    budget keeps ``TPL_t <= alpha`` for **every** horizon ``T``.

    Raises
    ------
    UnboundedLeakageError
        If any user's correlation is the strongest one (identity-like),
        for which no constant positive budget has a finite supremum.
    """
    alpha = validate_alpha(alpha)
    users = _normalise_users(correlations)
    per_user = {
        user: _single_user_upper_bound(b, f, alpha)
        for user, (b, f) in users.items()
    }
    return _min_over_users(per_user, alpha, "upper_bound")


def allocate_quantified(correlations, alpha: float) -> BudgetAllocation:
    """**Algorithm 3**: exact alpha-DP_T at each time point (finite T).

    Same inputs as :func:`allocate_upper_bound`.  The returned allocation
    releases ``alpha_B`` at the first time point, ``alpha_F`` at the last
    and the stabilising ``eps_m`` in between, achieving ``TPL_t == alpha``
    at every time point -- strictly better utility than Algorithm 2 for
    short horizons (Figs. 7 and 8).
    """
    alpha = validate_alpha(alpha)
    users = _normalise_users(correlations)
    per_user = {
        user: _single_user_quantified(b, f, alpha)
        for user, (b, f) in users.items()
    }
    return _min_over_users(per_user, alpha, "quantified")

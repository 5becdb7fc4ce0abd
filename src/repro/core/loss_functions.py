"""The backward/forward temporal loss functions ``L_B`` and ``L_F``.

Equations (23)/(24) of the paper define, for a transition matrix ``P``::

    L(alpha) = max_{q,d in rows(P)} log( (q (e^alpha - 1) + 1)
                                       / (d (e^alpha - 1) + 1) )

where ``q``/``d`` are the Theorem-4 subset sums found by Algorithm 1.
:class:`TemporalLossFunction` binds one matrix and exposes the function
with memoisation, the maximising pair (needed by Theorem 5 / Algorithms
2-3), and the inverse map used during budget allocation.

Properties guaranteed by the paper (and enforced in our test-suite):

* ``0 <= L(alpha) <= alpha`` (Remark 1),
* ``L`` is non-decreasing in ``alpha``,
* ``L == 0`` iff no ordered row pair has ``q_j > d_j`` surviving
  (e.g. the uniform matrix).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from ..exceptions import InvalidPrivacyParameterError
from ..markov.matrix import TransitionMatrix, as_transition_matrix
from .algorithm1 import PairSolution, max_log_ratio

__all__ = [
    "TemporalLossFunction",
    "get_shared_solution_cache",
    "set_shared_solution_cache",
]

#: Process-wide L2 cache consulted by every :class:`TemporalLossFunction`
#: that was not given an explicit ``cache``.  Installed by
#: :func:`set_shared_solution_cache` (e.g. with a
#: :class:`repro.fleet.SolutionCache`); ``None`` disables the L2 layer.
_SHARED_SOLUTION_CACHE = None


def set_shared_solution_cache(cache):
    """Install a process-wide solution cache (``get(key)``/``put(key,
    value)`` duck type, keyed by ``(matrix_digest, alpha)``) and return the
    previously installed one.

    Lets every scalar ``L(alpha)`` evaluation in the process reuse
    Algorithm-1 solves across loss-function instances bound to identical
    matrices -- the common case in a population where many users share one
    estimated correlation model.  Pass ``None`` to uninstall.
    """
    global _SHARED_SOLUTION_CACHE
    previous = _SHARED_SOLUTION_CACHE
    _SHARED_SOLUTION_CACHE = cache
    return previous


def get_shared_solution_cache():
    """The currently installed process-wide solution cache (or ``None``)."""
    return _SHARED_SOLUTION_CACHE


class TemporalLossFunction:
    """Callable ``L(alpha)`` for one temporal-correlation matrix.

    The same class implements both ``L_B`` (bind ``P_B``) and ``L_F``
    (bind ``P_F``); the paper notes the two calculations are identical.

    Examples
    --------
    >>> from repro.markov import two_state_matrix
    >>> L = TemporalLossFunction(two_state_matrix(0.8, 0.0))
    >>> 0.0 <= L(0.5) <= 0.5
    True
    """

    def __init__(self, matrix, cache=None) -> None:
        self._matrix = as_transition_matrix(matrix)
        self._cache: Dict[float, Tuple[float, Optional[PairSolution]]] = {}
        # Explicit L2 cache; when None the process-wide shared cache (if
        # installed) is consulted at call time.
        self._explicit_cache = cache

    @property
    def matrix(self) -> TransitionMatrix:
        """The bound transition matrix."""
        return self._matrix

    def _solve(self, alpha: float) -> Tuple[float, Optional[PairSolution]]:
        # No memo or cache ever holds an alpha max_log_ratio refused, so
        # its check (in [0, log(DBL_MAX)]) covers every path.
        #
        # The memo key is the *exact* float.  Rounding it (the historical
        # key was round(alpha, 15)) conflates distinct alphas that agree
        # to 15 digits, which makes the cached value depend on evaluation
        # order -- observed as a last-ulp scalar-vs-fleet parity break
        # when an override user's BPL and a default user's BPL collided.
        key = float(alpha)
        hit = self._cache.get(key)
        if hit is None:
            shared = (
                self._explicit_cache
                if self._explicit_cache is not None
                else _SHARED_SOLUTION_CACHE
            )
            if shared is not None:
                shared_key = (self._matrix.digest, key)
                hit = shared.get(shared_key)
                if hit is None:
                    hit = max_log_ratio(self._matrix, alpha, return_pair=True)
                    shared.put(shared_key, hit)
            else:
                hit = max_log_ratio(self._matrix, alpha, return_pair=True)
            self._cache[key] = hit
        return hit

    def __call__(self, alpha: float) -> float:
        """Evaluate ``L(alpha)`` -- the leakage increment of Eq. (23)/(24).
        Raises :class:`~repro.exceptions.InvalidPrivacyParameterError`
        unless ``alpha`` is in ``[0, log(DBL_MAX)]``."""
        return self._solve(alpha)[0]

    def maximizing_pair(self, alpha: float) -> Optional[PairSolution]:
        """The :class:`PairSolution` attaining ``L(alpha)``; ``None`` when
        the increment is zero (uninformative correlation)."""
        return self._solve(alpha)[1]

    def is_trivial(self) -> bool:
        """True when ``L`` is identically zero (all rows equal -- e.g. the
        uniform matrix -- so the adversary learns nothing across time)."""
        return self(1.0) == 0.0

    def epsilon_for_fixed_point(self, alpha: float) -> float:
        """The budget ``eps`` making ``alpha`` a fixed point:
        ``L(alpha) + eps == alpha``.

        This is the core step of Algorithms 2 and 3 (lines 4/7): releasing
        ``eps``-DP outputs at each time point keeps the accumulated leakage
        at exactly ``alpha`` once it gets there (and below ``alpha``
        before).  Always positive because ``L(alpha) < alpha`` whenever
        ``alpha > 0`` and the correlation is not the strongest one.
        """
        from .budget import validate_alpha  # budget imports this module

        alpha = validate_alpha(alpha)
        epsilon = alpha - self(alpha)
        if epsilon <= 0:
            # Strongest correlation: L(alpha) == alpha, no positive budget
            # can stabilise the leakage.
            raise InvalidPrivacyParameterError(
                "leakage cannot be stabilised: L(alpha) == alpha "
                "(strongest temporal correlation)"
            )
        return epsilon

    def iterate(self, epsilon: float, steps: int, initial: float = 0.0) -> list:
        """Iterate ``alpha_{t} = L(alpha_{t-1}) + epsilon`` for ``steps``
        time points, starting from leakage ``initial`` *before* the first
        release.  Returns the leakage after each of the ``steps`` releases.

        This is the raw recursion of Eq. (13)/(15) under a constant
        per-time-point budget, used directly by Figures 4 and 6.  Both
        ``epsilon`` and ``initial`` must be finite and ``>= 0``: a NaN
        or negative start would otherwise read as no prior leakage.
        """
        from .budget import validate_epsilon  # budget imports this module

        epsilon = validate_epsilon(epsilon)
        alpha = validate_epsilon(initial, name="initial leakage")
        if steps < 0:
            raise ValueError("steps must be >= 0")
        leakages = []
        for _ in range(steps):
            alpha = self(alpha) + epsilon if alpha > 0 else epsilon
            leakages.append(alpha)
        return leakages

    def __repr__(self) -> str:
        return f"TemporalLossFunction(n={self._matrix.n})"

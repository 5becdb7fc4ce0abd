"""Online temporal-privacy accounting for streaming releases.

The recursions of :mod:`repro.core.leakage` assume the full budget vector
is known.  In a live pipeline releases arrive one at a time, and -- as
Example 3 of the paper stresses -- every *new* release retroactively
increases the forward privacy leakage of every *past* time point.
:class:`TemporalPrivacyAccountant` tracks this correctly:

* BPL is extended incrementally (O(1) amortised per release per user);
* FPL (and hence TPL) of all time points is recomputed from the newest
  release backwards on demand (O(T) per query per user, cached).

The accountant is *personalised* (Section III-D): each user may have their
own ``(P_B, P_F)`` pair; the mechanism-level leakage is the maximum over
users (Eq. (3)/(7)/(9)).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from ..exceptions import InvalidPrivacyParameterError
from .adversary import AdversaryT
from .budget import validate_alpha, validate_epsilon
from .leakage import LeakageProfile, forward_privacy_leakage
from .loss_functions import TemporalLossFunction

__all__ = ["TemporalPrivacyAccountant"]


class _UserState:
    """Per-user incremental BPL plus lazily recomputed FPL."""

    __slots__ = ("loss_b", "loss_f", "bpl", "_fpl_cache_key", "_fpl_cache")

    def __init__(self, backward, forward, cache=None) -> None:
        self.loss_b = (
            TemporalLossFunction(backward, cache=cache)
            if backward is not None
            else None
        )
        self.loss_f = (
            TemporalLossFunction(forward, cache=cache)
            if forward is not None
            else None
        )
        self.bpl: List[float] = []
        self._fpl_cache_key: Optional[bytes] = None
        self._fpl_cache: Optional[np.ndarray] = None

    def extend_bpl(self, epsilon: float) -> None:
        if self.loss_b is None:
            self.bpl.append(epsilon)
            return
        previous = self.bpl[-1] if self.bpl else 0.0
        self.bpl.append(self.loss_b(previous) + epsilon)

    def fpl(self, epsilons: np.ndarray) -> np.ndarray:
        # Key the memo on the *contents* of the budget vector, not its
        # length: two same-length vectors with different values must not
        # share an FPL series.
        key = epsilons.tobytes()
        if self._fpl_cache_key == key:
            return self._fpl_cache  # type: ignore[return-value]
        if self.loss_f is None:
            fpl = epsilons.copy()
        else:
            fpl = forward_privacy_leakage(self.loss_f, epsilons)
        self._fpl_cache = fpl
        self._fpl_cache_key = key
        return fpl


class TemporalPrivacyAccountant:
    """Tracks BPL/FPL/TPL across users as releases are published.

    Parameters
    ----------
    correlations:
        Either a single ``(P_B, P_F)`` tuple applied to every user, an
        :class:`~repro.core.adversary.AdversaryT`, or a mapping from user
        id to ``(P_B, P_F)`` tuples / ``AdversaryT`` instances.  ``None``
        entries model missing knowledge.
    alpha:
        Optional leakage bound; when set, :meth:`add_release` raises
        :class:`InvalidPrivacyParameterError` if the release would push
        any time point's TPL above ``alpha``.
    cache:
        Optional Algorithm-1 solution cache (``get``/``put`` duck type,
        e.g. :class:`repro.fleet.SolutionCache`) threaded into every loss
        function, so the scalar path can share solves with other
        accountants without installing a process-wide cache.

    Examples
    --------
    >>> from repro.markov import two_state_matrix
    >>> acct = TemporalPrivacyAccountant(
    ...     (two_state_matrix(0.8, 0.0), two_state_matrix(0.8, 0.0)))
    >>> for _ in range(3):
    ...     _ = acct.add_release(0.1)
    >>> acct.horizon
    3
    >>> acct.max_tpl() >= 0.1
    True
    """

    def __init__(
        self, correlations, alpha: Optional[float] = None, cache=None
    ) -> None:
        self._users: Dict[Hashable, _UserState] = {}
        for user, pair in self._normalise(correlations).items():
            self._users[user] = _UserState(*pair, cache=cache)
        if not self._users:
            raise ValueError("at least one user correlation is required")
        self._alpha = None if alpha is None else validate_alpha(alpha)
        self._epsilons: List[float] = []

    @staticmethod
    def _normalise(correlations) -> Mapping[Hashable, Tuple]:
        def to_pair(value) -> Tuple:
            if isinstance(value, AdversaryT):
                return (value.backward, value.forward)
            backward, forward = value
            return (backward, forward)

        if isinstance(correlations, Mapping):
            return {user: to_pair(v) for user, v in correlations.items()}
        return {0: to_pair(correlations)}

    # ------------------------------------------------------------------
    # Stream interface
    # ------------------------------------------------------------------
    def add_release(self, epsilon: float) -> float:
        """Record a release with budget ``epsilon``; returns the resulting
        worst-case TPL over all users and time points.

        When an ``alpha`` bound is configured the release is rejected
        (state unchanged) if it would violate the bound.
        """
        epsilon = validate_epsilon(epsilon)
        start = len(self._epsilons)
        self._epsilons.append(epsilon)
        try:
            for state in self._users.values():
                state.extend_bpl(epsilon)
            worst = self.max_tpl()
        except BaseException:
            # A solver fault (e.g. Dinkelbach non-convergence) must not
            # leave a half-applied release behind: every mutation above
            # is an append, so truncating back to the entry horizon
            # restores the exact prior state.
            del self._epsilons[start:]
            for state in self._users.values():
                del state.bpl[start:]
                state._fpl_cache_key = None
            raise
        if self._alpha is not None and worst > self._alpha + 1e-12:
            # Roll back: the release would break the alpha-DP_T promise.
            self.rollback_last()
            raise InvalidPrivacyParameterError(
                f"release of eps={epsilon} would raise TPL to {worst:.6f} "
                f"> alpha={self._alpha}"
            )
        return worst

    def add_window(self, epsilons: Iterable[float]) -> np.ndarray:
        """Record a window of releases and return the per-step worst-case
        TPL series -- element ``i`` is exactly what :meth:`add_release`
        would have returned for step ``i``.

        This is the *scalar windowed fallback*: a plain sequential loop
        over :meth:`add_release`, kept as the reference the vectorised
        :meth:`repro.fleet.engine.FleetAccountant.add_window` path is
        tested against for bit-identical results.  With an ``alpha`` bound
        a violating step rolls back the **whole window** (mirroring the
        fleet engine's batch semantics), so a raised error leaves the
        accountant exactly as it was.
        """
        epsilons = [validate_epsilon(e) for e in epsilons]
        worsts = np.empty(len(epsilons))
        applied = 0
        try:
            for i, epsilon in enumerate(epsilons):
                worsts[i] = self.add_release(epsilon)
                applied += 1
        except InvalidPrivacyParameterError:
            self.rollback(applied)
            raise
        return worsts

    def rollback_last(self) -> None:
        """Undo the most recent release, restoring the exact prior state.

        Used internally for ``alpha``-bound enforcement and by the service
        layer's clamp/reject policies (probe a release, inspect the
        resulting TPL, roll it back).
        """
        if not self._epsilons:
            raise ValueError("no releases to roll back")
        self._epsilons.pop()
        for state in self._users.values():
            state.bpl.pop()
            state._fpl_cache_key = None

    def rollback(self, n: int = 1) -> None:
        """Undo the ``n`` most recent releases (window-sized
        :meth:`rollback_last`)."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if n > len(self._epsilons):
            raise ValueError(
                f"cannot roll back {n} releases; only "
                f"{len(self._epsilons)} recorded"
            )
        for _ in range(n):
            self.rollback_last()

    @property
    def horizon(self) -> int:
        """Number of releases recorded so far."""
        return len(self._epsilons)

    @property
    def epsilons(self) -> np.ndarray:
        return np.asarray(self._epsilons, dtype=float)

    @property
    def users(self) -> Iterable[Hashable]:
        return self._users.keys()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def profile(self, user: Optional[Hashable] = None) -> LeakageProfile:
        """Leakage profile for one user (default: the single/first user).

        Before any release this is :meth:`LeakageProfile.empty` (all series
        empty, ``max_tpl == 0.0``), consistent with :meth:`max_tpl`.
        """
        state = self._resolve(user)
        if self.horizon == 0:
            return LeakageProfile.empty()
        eps = self.epsilons
        bpl = np.asarray(state.bpl, dtype=float)
        fpl = state.fpl(eps)
        return LeakageProfile(epsilons=eps, bpl=bpl, fpl=fpl)

    def max_tpl(self) -> float:
        """Worst TPL over all users and all time points (Eq. (3))."""
        if self.horizon == 0:
            return 0.0
        return max(self.profile(user).max_tpl for user in self._users)

    def remaining_alpha(self) -> Optional[float]:
        """Headroom to the configured ``alpha`` bound (``None`` if unset)."""
        if self._alpha is None:
            return None
        return self._alpha - self.max_tpl()

    def _resolve(self, user: Optional[Hashable]) -> _UserState:
        if user is None:
            if len(self._users) == 1:
                return next(iter(self._users.values()))
            raise ValueError("multiple users tracked; specify which one")
        try:
            return self._users[user]
        except KeyError:
            raise KeyError(f"unknown user {user!r}") from None

    def __repr__(self) -> str:
        return (
            f"TemporalPrivacyAccountant(users={len(self._users)}, "
            f"releases={self.horizon}, alpha={self._alpha})"
        )

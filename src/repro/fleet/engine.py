"""Population-scale temporal-privacy accounting -- the fleet engine.

:class:`~repro.core.accountant.TemporalPrivacyAccountant` materialises one
Python object per user and loops over all of them at every release; at
population scale that is O(users x T) Python work per query.  The leakage
recursions of Eq. (13)/(15), however, depend only on the correlation model
and the budget schedule -- so every user sharing a ``(P_B, P_F)`` pair
*and* a budget schedule shares the entire BPL/FPL series.

:class:`FleetAccountant` exploits that:

* users are grouped into cohorts by a content digest of their correlation
  pair (:mod:`repro.fleet.cohorts`);
* each cohort runs **one** ``(T,)``-shaped recursion, broadcast over its
  members -- O(cohorts x T) instead of O(users x T);
* users with *per-user epsilon overrides* (personalised budgets) are
  carried as their own rows, advanced batched with the cohort's other
  override members;
* every batched loss evaluation -- BPL extension, window sweep, probe
  sweep, override FPL -- funnels through
  :func:`repro.core.algorithm1.max_log_ratio_stacked`, fused across
  cohorts, and the memoised ones through one bounded
  :class:`~repro.fleet.solution_cache.SolutionCache`.

The public query surface (``add_release`` / ``profile`` / ``max_tpl`` /
``remaining_alpha`` / ``horizon`` / ``epsilons`` / ``users``) matches the
per-user accountant and returns identical numbers for identical inputs.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from ..core.algorithm1 import max_log_ratio_stacked
from ..core.budget import validate_epsilon
from ..core.leakage import (
    LeakageProfile,
    backward_privacy_leakage,
    forward_privacy_leakage,
)
from ..core.loss_functions import TemporalLossFunction
from ..exceptions import InvalidPrivacyParameterError
from ..markov.matrix import TransitionMatrix
from ..obs.metrics import NULL_REGISTRY
from .cohorts import Cohort, CohortIndex, normalise_pair
from .solution_cache import SolutionCache

__all__ = ["FleetAccountant"]

#: Shared inverse index for one-element dedup bypasses in
#: :meth:`FleetAccountant._loss_batch_multi`.
_SINGLETON_IDX = np.zeros(1, dtype=np.intp)


class _Group:
    """All default-schedule members of one cohort that joined at the same
    release index: they share one incremental BPL series."""

    __slots__ = ("start", "members", "bpl", "_fpl_key", "_fpl")

    def __init__(self, start: int) -> None:
        self.start = start
        self.members: Dict[Hashable, None] = {}
        self.bpl: List[float] = []
        self._fpl_key: Optional[bytes] = None
        self._fpl: Optional[np.ndarray] = None


class _OverrideSeries:
    """One member with a personalised budget vector (its own epsilon at one
    or more releases).  BPL is extended batched with the cohort's other
    override members; FPL runs on the stacked ``(members, T)`` array."""

    __slots__ = ("start", "eps", "bpl")

    def __init__(self, start: int, eps: List[float], bpl: List[float]) -> None:
        self.start = start
        self.eps = eps
        self.bpl = bpl


class _CohortState:
    """Accounting state attached to one :class:`~repro.fleet.cohorts.Cohort`."""

    __slots__ = (
        "cohort",
        "loss_b",
        "loss_f",
        "groups",
        "overrides",
        "_override_fpl_key",
        "_override_fpl",
    )

    def __init__(self, cohort: Cohort, cache: SolutionCache) -> None:
        self.cohort = cohort
        self.loss_b = (
            TemporalLossFunction(cohort.backward, cache=cache)
            if cohort.backward is not None
            else None
        )
        self.loss_f = (
            TemporalLossFunction(cohort.forward, cache=cache)
            if cohort.forward is not None
            else None
        )
        self.groups: Dict[int, _Group] = {}
        self.overrides: Dict[Hashable, _OverrideSeries] = {}
        self._override_fpl_key: Optional[bytes] = None
        self._override_fpl: Optional[Dict[Hashable, np.ndarray]] = None


class FleetAccountant:
    """Vectorised multi-user temporal-privacy accountant.

    Parameters
    ----------
    correlations:
        Anything :class:`~repro.core.accountant.TemporalPrivacyAccountant`
        accepts: one ``(P_B, P_F)`` pair (registered as user ``0``), an
        ``AdversaryT``, or a mapping ``user -> pair / AdversaryT``.  May
        also be ``None`` / empty to start with no users and populate via
        :meth:`add_user`.
    alpha:
        Optional leakage bound; releases that would push any time point's
        TPL above ``alpha`` are rejected with the state rolled back.
    cache:
        A :class:`SolutionCache` to share Algorithm-1 solves with other
        engines / scalar accountants; a private one is created by default.

    Examples
    --------
    >>> from repro.markov import two_state_matrix
    >>> P = two_state_matrix(0.8, 0.0)
    >>> fleet = FleetAccountant({u: (P, P) for u in range(100)})
    >>> for _ in range(3):
    ...     _ = fleet.add_release(0.1)
    >>> fleet.horizon
    3
    >>> fleet.max_tpl() >= 0.1
    True
    """

    def __init__(
        self,
        correlations=None,
        alpha: Optional[float] = None,
        cache: Optional[SolutionCache] = None,
        registry=None,
    ) -> None:
        if alpha is not None and alpha <= 0:
            raise InvalidPrivacyParameterError(
                f"alpha must be > 0, got {alpha}"
            )
        self._alpha = alpha
        self._registry = registry if registry is not None else NULL_REGISTRY
        self._cache = cache if cache is not None else SolutionCache()
        self._index = CohortIndex()
        self._states: Dict[str, _CohortState] = {}
        self._user_start: Dict[Hashable, int] = {}
        self._epsilons: List[float] = []
        for user, pair in self._normalise(correlations).items():
            self.add_user(user, pair)

    @staticmethod
    def _normalise(correlations) -> Mapping[Hashable, object]:
        if correlations is None:
            return {}
        if isinstance(correlations, Mapping):
            return dict(correlations)
        return {0: correlations}

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add_user(self, user: Hashable, correlations) -> None:
        """Register ``user`` under ``correlations`` (a ``(P_B, P_F)`` pair
        or ``AdversaryT``).  Users added mid-stream accrue leakage from
        the *next* release onward."""
        cohort = self._index.add(user, correlations)
        state = self._states.get(cohort.key)
        if state is None:
            state = _CohortState(cohort, self._cache)
            self._states[cohort.key] = state
        start = self.horizon
        self._user_start[user] = start
        group = state.groups.get(start)
        if group is None:
            group = _Group(start)
            state.groups[start] = group
        group.members[user] = None

    def remove_user(self, user: Hashable) -> None:
        """Deregister ``user``; their past contribution to the fleet-wide
        maximum is no longer tracked."""
        cohort = self._index.remove(user)
        state = self._states[cohort.key]
        series = state.overrides.pop(user, None)
        if series is None:
            group = state.groups[self._user_start[user]]
            del group.members[user]
            if not group.members:
                del state.groups[self._user_start[user]]
        else:
            state._override_fpl_key = None
        del self._user_start[user]
        if not cohort.members:
            del self._states[cohort.key]

    def migrate_user(self, user: Hashable, correlations) -> None:
        """Move ``user`` to a new correlation model (e.g. after
        re-estimation), re-evaluating their whole history under it.

        The user's budget history (including any overrides) is preserved;
        their BPL is recomputed from scratch under the new model.
        """
        # Validate the destination before mutating: a bad pair must not
        # cost the user their accrued leakage history.
        pair = normalise_pair(correlations)
        start = self._user_start[user]
        old_state = self._states[self._index.cohort_of(user).key]
        series = old_state.overrides.get(user)
        override_eps = list(series.eps) if series is not None else None
        self.remove_user(user)

        cohort = self._index.add(user, pair)
        state = self._states.get(cohort.key)
        if state is None:
            state = _CohortState(cohort, self._cache)
            self._states[cohort.key] = state
        self._user_start[user] = start
        if override_eps is not None:
            bpl = self._recompute_bpl(state.loss_b, override_eps)
            state.overrides[user] = _OverrideSeries(start, override_eps, bpl)
            state._override_fpl_key = None
        else:
            group = state.groups.get(start)
            if group is None:
                group = _Group(start)
                group.bpl = self._recompute_bpl(
                    state.loss_b, self._epsilons[start:]
                )
                state.groups[start] = group
            group.members[user] = None

    @staticmethod
    def _recompute_bpl(
        loss_b: Optional[TemporalLossFunction], epsilons: Iterable[float]
    ) -> List[float]:
        epsilons = list(epsilons)
        if not epsilons:
            return []
        return backward_privacy_leakage(loss_b, epsilons).tolist()

    # ------------------------------------------------------------------
    # Stream interface
    # ------------------------------------------------------------------
    def add_release(
        self,
        epsilon: float,
        overrides: Optional[Mapping[Hashable, float]] = None,
    ) -> float:
        """Record one fleet-wide release with default budget ``epsilon``;
        users listed in ``overrides`` spent their own budget instead
        (personalised DP).  Returns the resulting worst-case TPL over all
        users and time points; rejects (state unchanged) when an ``alpha``
        bound would be violated."""
        epsilon = validate_epsilon(epsilon)
        overrides = dict(overrides) if overrides else {}
        for user, eps_u in overrides.items():
            if user not in self._user_start:
                raise KeyError(f"override for unknown user {user!r}")
            validate_epsilon(eps_u, name="override epsilon")
            self._ensure_override(user)

        start = self.horizon
        self._epsilons.append(epsilon)
        try:
            self._extend_all(epsilon, overrides)
            worst = self.max_tpl()
        except BaseException:
            self._truncate_to(start)
            raise
        if self._alpha is not None and worst > self._alpha + 1e-12:
            self.rollback_last()
            raise InvalidPrivacyParameterError(
                f"release of eps={epsilon} would raise TPL to {worst:.6f} "
                f"> alpha={self._alpha}"
            )
        return worst

    def add_window(
        self,
        epsilons: Iterable[float],
        overrides: Optional[
            Iterable[Optional[Mapping[Hashable, float]]]
        ] = None,
    ) -> np.ndarray:
        """Record ``K`` releases in one vectorised pass and return the
        per-step worst-case TPL series.

        Element ``i`` of the result is *bit-identical* to what the
        ``i``-th of ``K`` sequential :meth:`add_release` calls would have
        returned, but the FPL recomputation -- the per-event hot path,
        one O(T) Python recursion per row per step -- collapses into a
        single global backward sweep over a stacked ``(rows, prefixes)``
        array (:meth:`_window_worsts`): every window step's prefix
        recursion advances in lock-step through one fused loss
        evaluation per time point, so the Python round-trips drop from
        O(K x T) to O(T + K).

        Parameters
        ----------
        epsilons:
            Default budget per window step.
        overrides:
            Optional per-step override mappings (``user -> epsilon``,
            or ``None``), aligned with ``epsilons``.

        Raises
        ------
        InvalidPrivacyParameterError:
            With an ``alpha`` bound, when any step of the window would
            violate it; the **whole window** is rolled back first.
            Validation errors are raised before any state is touched.
        """
        epsilons = [validate_epsilon(e) for e in epsilons]
        if overrides is None:
            per_step: List[Dict[Hashable, float]] = [{} for _ in epsilons]
        else:
            per_step = [dict(o) if o else {} for o in overrides]
            if len(per_step) != len(epsilons):
                raise ValueError(
                    f"overrides cover {len(per_step)} steps but the window "
                    f"has {len(epsilons)}"
                )
        for step in per_step:
            for user, eps_u in step.items():
                if user not in self._user_start:
                    raise KeyError(f"override for unknown user {user!r}")
                validate_epsilon(eps_u, name="override epsilon")
        if not epsilons:
            return np.zeros(0)

        # Apply the window: BPL is inherently sequential in t, but each
        # step is one fused evaluation over every group and override
        # member -- identical operations, in identical order, to K
        # add_release calls.
        start = self.horizon
        try:
            for epsilon, step_overrides in zip(epsilons, per_step):
                for user in step_overrides:
                    self._ensure_override(user)
                self._epsilons.append(epsilon)
                self._extend_all(epsilon, step_overrides)
            with self._registry.span("fleet.window_worsts.seconds"):
                worsts = self._window_worsts(len(epsilons))
        except BaseException:
            self._truncate_to(start)
            raise
        if self._alpha is not None and float(worsts.max()) > self._alpha + 1e-12:
            self.rollback(len(epsilons))
            raise InvalidPrivacyParameterError(
                f"window of {len(epsilons)} releases would raise TPL to "
                f"{float(worsts.max()):.6f} > alpha={self._alpha}"
            )
        return worsts

    def _ensure_override(self, user: Hashable) -> None:
        """Convert a default-schedule user into an override series (their
        history so far equals the default schedule)."""
        state = self._states[self._index.cohort_of(user).key]
        if user in state.overrides:
            return
        start = self._user_start[user]
        group = state.groups[start]
        del group.members[user]
        series = _OverrideSeries(
            start, list(self._epsilons[start:]), list(group.bpl)
        )
        if not group.members:
            del state.groups[start]
        state.overrides[user] = series
        state._override_fpl_key = None

    def _extend_all(
        self, epsilon: float, overrides: Mapping[Hashable, float]
    ) -> None:
        """One release step for *every* cohort in one batched pass.

        All groups' and all override members' BPL increments -- across
        all cohorts -- are bucketed by backward-matrix digest and
        evaluated through :meth:`_loss_batch_multi`, which fuses the
        buckets into shared stacked solver entries.  Appends the exact
        floats of the BPL recursion (Eq. 13) in :mod:`repro.core`: the
        batched solver matches the scalar loss path bit-for-bit (an
        invariant the parity suites pin), and the appended sums are the
        same scalar adds.
        """
        jobs: List[Tuple[Optional[TemporalLossFunction], List[float]]] = []
        sinks: List[list] = []
        buckets: Dict[Optional[str], int] = {}
        for state in self._states.values():
            loss = state.loss_b
            key = None if loss is None else loss.matrix.digest
            slot = buckets.get(key)
            if slot is None:
                slot = len(jobs)
                buckets[key] = slot
                jobs.append((loss, []))
                sinks.append([])
            values = jobs[slot][1]
            targets = sinks[slot]
            for group in state.groups.values():
                values.append(group.bpl[-1] if group.bpl else 0.0)
                targets.append((None, None, group))
            for user, series in state.overrides.items():
                values.append(series.bpl[-1] if series.bpl else 0.0)
                targets.append((state, user, series))
        if not jobs:
            return
        increments = self._loss_batch_multi(
            [(loss, np.asarray(vals, dtype=float)) for loss, vals in jobs]
        )
        for values, targets in zip(increments, sinks):
            for increment, (state, user, target) in zip(
                values.tolist(), targets
            ):
                if state is None:
                    target.bpl.append(increment + epsilon)
                else:
                    eps_u = float(overrides.get(user, epsilon))
                    target.eps.append(eps_u)
                    target.bpl.append(increment + eps_u)
                    state._override_fpl_key = None

    def _truncate_to(self, horizon: int) -> None:
        """Restore the exact accounting state at ``horizon``: the undo
        behind :meth:`rollback` and behind a mid-mutation fault (e.g. a
        :class:`SolverError` from a loss evaluation partway through a
        window).

        Every mutation in the stream interface is an append -- to
        ``_epsilons``, to group BPL series, to override eps/BPL series --
        so truncating each series to its length at ``horizon`` is an
        exact undo, even when the fault struck between cohorts of the
        same step.  Override *conversions* performed by
        :meth:`_ensure_override` are left in place: an override series
        carrying the default schedule is numerically identical to group
        membership (the parity suite pins the two paths bit-identical).
        """
        del self._epsilons[horizon:]
        for state in self._states.values():
            for group in state.groups.values():
                del group.bpl[max(0, horizon - group.start) :]
                group._fpl_key = None
            for series in state.overrides.values():
                keep = max(0, horizon - series.start)
                del series.eps[keep:]
                del series.bpl[keep:]
            state._override_fpl_key = None

    def rollback_last(self) -> None:
        """Undo the most recent release, restoring the exact prior state
        (the mirror of :meth:`TemporalPrivacyAccountant.rollback_last`).
        Used for ``alpha`` enforcement and by the service layer's
        clamp/reject policies."""
        if not self._epsilons:
            raise ValueError("no releases to roll back")
        self.rollback(1)

    def rollback(self, n: int = 1) -> None:
        """Undo the ``n`` most recent releases (window-sized
        :meth:`rollback_last`), restoring the exact prior state.

        A user who joined mid-stream has no history before their join,
        so rolling back past a join is refused up front, with the state
        unchanged."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if n > len(self._epsilons):
            raise ValueError(
                f"cannot roll back {n} releases; only "
                f"{len(self._epsilons)} recorded"
            )
        if n == 0:
            return
        horizon = len(self._epsilons) - n
        for state in self._states.values():
            joins = [(g.start, g.members) for g in state.groups.values()]
            joins += [(s.start, (u,)) for u, s in state.overrides.items()]
            for start, users in joins:
                if start > horizon:
                    raise ValueError(
                        f"cannot roll back to horizon {horizon}: user "
                        f"{next(iter(users))!r} joined at horizon {start}"
                    )
        self._truncate_to(horizon)

    def probe_release_scales(
        self,
        epsilon: float,
        overrides: Optional[Mapping[Hashable, float]] = None,
        scales: Iterable[float] = (),
    ) -> np.ndarray:
        """Worst-case TPL that ``add_release(epsilon * s, {u: eps_u *
        s})`` would return, for every scale ``s``, without touching any
        state.

        The read-only, batched equivalent of the service layer's
        probe-and-rollback loop: the BPL increments ``L_B(BPL_T)`` of
        the probed step are scale-independent and computed once, and the
        FPL recursions of every row advance for *all* scales in one
        stacked ``(rows, scales)`` backward sweep over the full horizon,
        with loss evaluations fused across cohorts per time point
        (:meth:`_loss_batch_multi`).  Results are bit-identical to the
        serial probe (the parity suites pin this): the scaled epsilons
        are the same ``base * s`` multiplies, the recursion steps the
        same adds on the same loss values, and the per-scale worst the
        same exact max with the same ``0.0`` floor as :meth:`max_tpl`.

        Override users still carried in a default group are *virtually*
        split out for the probe (:meth:`add_release` converts them
        permanently via :meth:`_ensure_override`; the conversion is
        numerically neutral, so skipping it here preserves parity).
        """
        epsilon = validate_epsilon(epsilon)
        overrides = dict(overrides) if overrides else {}
        for user, eps_u in overrides.items():
            if user not in self._user_start:
                raise KeyError(f"override for unknown user {user!r}")
            validate_epsilon(eps_u, name="override epsilon")
        scales_arr = np.asarray(list(scales), dtype=float)
        n_scales = scales_arr.size
        worsts = np.zeros(n_scales)
        if n_scales == 0:
            return worsts

        probe_users: Dict[str, set] = {}
        for user in overrides:
            key = self._index.cohort_of(user).key
            probe_users.setdefault(key, set()).add(user)

        horizon = len(self._epsilons)
        eps_all = np.asarray(self._epsilons, dtype=float)
        starts: List[int] = []
        eps_hist: List[np.ndarray] = []
        bpl_hist: List[np.ndarray] = []
        last_base: List[float] = []
        row_loss_b: List[Optional[TemporalLossFunction]] = []
        row_loss_f: List[Optional[TemporalLossFunction]] = []

        def add_row(state, start, eps_vec, bpl_vec, base):
            starts.append(start)
            eps_hist.append(np.asarray(eps_vec, dtype=float))
            bpl_hist.append(np.asarray(bpl_vec, dtype=float))
            last_base.append(float(base))
            row_loss_b.append(state.loss_b)
            row_loss_f.append(state.loss_f)

        for key, state in self._states.items():
            split = probe_users.get(key, ())
            for group in state.groups.values():
                hist_eps = eps_all[group.start :]
                if any(u not in split for u in group.members):
                    add_row(state, group.start, hist_eps, group.bpl, epsilon)
                for user in group.members:
                    if user in split:
                        add_row(
                            state,
                            group.start,
                            hist_eps,
                            group.bpl,
                            overrides[user],
                        )
            for user, series in state.overrides.items():
                add_row(
                    state,
                    series.start,
                    series.eps,
                    series.bpl,
                    overrides.get(user, epsilon),
                )

        n_rows = len(starts)
        if n_rows == 0:
            return worsts

        # Scale-independent BPL increment of the probed step, per row.
        previous = np.array(
            [bpl[-1] if bpl.size else 0.0 for bpl in bpl_hist]
        )
        increments = np.zeros(n_rows)
        b_buckets = self._bucket_rows(row_loss_b)
        results = self._loss_batch_multi(
            [(loss, previous[idx]) for loss, idx in b_buckets]
        )
        for (_, idx), values in zip(b_buckets, results):
            increments[idx] = values

        starts_arr = np.array(starts)
        eps_mat = np.zeros((n_rows, horizon))
        bpl_mat = np.zeros((n_rows, horizon))
        for i in range(n_rows):
            eps_mat[i, starts[i] :] = eps_hist[i]
            bpl_mat[i, starts[i] :] = bpl_hist[i]
        # The probed step's epsilons and BPL, per row per scale -- the
        # same base * s multiplies the serial probes perform.
        last_eps = np.array(last_base)[:, None] * scales_arr[None, :]
        bpl_last = increments[:, None] + last_eps

        f_buckets = self._bucket_rows(row_loss_f)
        alphas = np.zeros((n_rows, n_scales))
        for g in range(horizon, -1, -1):
            jobs = []
            acts = []
            for loss, idx in f_buckets:
                act = idx[starts_arr[idx] <= g]
                if act.size == 0:
                    continue
                jobs.append((loss, alphas[act, :].ravel()))
                acts.append(act)
            results = self._loss_batch_multi(jobs, use_cache=False)
            for act, values in zip(acts, results):
                if g == horizon:
                    eps_g = last_eps[act]
                    bpl_g = bpl_last[act]
                else:
                    eps_g = eps_mat[act, g][:, None]
                    bpl_g = bpl_mat[act, g][:, None]
                stepped = values.reshape(act.size, n_scales) + eps_g
                alphas[act, :] = stepped
                tpl = bpl_g + stepped - eps_g
                np.maximum(worsts, tpl.max(axis=0), out=worsts)
        return worsts

    # ------------------------------------------------------------------
    # Batched loss evaluation
    # ------------------------------------------------------------------
    def _loss_batch_multi(self, jobs, use_cache: bool = True) -> List[np.ndarray]:
        """Evaluate ``L`` elementwise for many ``(loss-or-None, values)``
        jobs (``None`` evaluates to zeros), with the solves of *all* jobs
        fused into shared stacked sweeps (:func:`max_log_ratio_stacked`,
        one group per matrix size).  Per-job results are bit-identical
        to the scalar loss path; the fusion only changes how many solver
        entries the fleet pays per step.

        By default values are deduplicated and memoised in the
        :class:`SolutionCache` under ``(digest, value, "batch")`` keys,
        namespaced so batch entries never collide with the scalar
        ``(digest, value)`` entries.  Keys carry the *exact* float
        (matching the scalar loss memo): rounding conflated distinct
        alphas and made cached values depend on evaluation order.

        ``use_cache=False`` skips the dedup + LRU memoisation entirely
        and solves every value raw.  The backward window/probe sweeps
        use it: their alphas are running partial sums that essentially
        never recur, so memoising them only pays per-value Python
        overhead and evicts the genuinely reusable scalar-path entries.
        The cache never changes a bit (recomputation is bit-identical by
        the solver contract), so either setting yields the same floats.
        """
        results: List[Optional[np.ndarray]] = [None] * len(jobs)
        if not use_cache:
            raw: List[tuple] = []
            for i, (loss, values) in enumerate(jobs):
                values = np.asarray(values, dtype=float)
                if loss is None:
                    results[i] = np.zeros_like(values)
                else:
                    raw.append((i, loss, values))
            raw_by_n: Dict[int, List[tuple]] = {}
            for entry in raw:
                n = entry[1].matrix.array.shape[0]
                raw_by_n.setdefault(n, []).append(entry)
            for entries in raw_by_n.values():
                solved = max_log_ratio_stacked(
                    [(loss.matrix, values) for _, loss, values in entries]
                )
                for (i, _, _), values in zip(entries, solved):
                    results[i] = values
            return results  # type: ignore[return-value]
        pending: List[tuple] = []
        for i, (loss, values) in enumerate(jobs):
            values = np.asarray(values, dtype=float)
            if loss is None:
                results[i] = np.zeros_like(values)
                continue
            if values.size == 1:
                # The per-step extension path sends one alpha per group;
                # a sort-based dedup of one element is pure overhead.
                unique, inverse = values, _SINGLETON_IDX
            else:
                unique, inverse = np.unique(values, return_inverse=True)
            res = np.empty_like(unique)
            digest = loss.matrix.digest
            missing: List[int] = []
            for k, value in enumerate(unique.tolist()):
                hit = self._cache.get((digest, value, "batch"))
                if hit is None:
                    missing.append(k)
                else:
                    res[k] = hit
            pending.append((i, loss, unique, inverse, res, missing, digest))
        by_n: Dict[int, List[tuple]] = {}
        for entry in pending:
            if entry[5]:
                n = entry[1].matrix.array.shape[0]
                by_n.setdefault(n, []).append(entry)
        for entries in by_n.values():
            solved = max_log_ratio_stacked(
                [
                    (loss.matrix, unique[missing])
                    for _, loss, unique, _, _, missing, _ in entries
                ]
            )
            for entry, values in zip(entries, solved):
                _, _, unique, _, res, missing, digest = entry
                for k, value in zip(missing, values.tolist()):
                    res[k] = value
                    self._cache.put((digest, float(unique[k]), "batch"), value)
        for i, _, _, inverse, res, _, _ in pending:
            results[i] = res[inverse]
        return results  # type: ignore[return-value]

    @staticmethod
    def _bucket_rows(losses) -> List[tuple]:
        """Group row indices by loss digest (``None`` rows together);
        returns ``[(loss, index-array), ...]`` in first-seen order."""
        buckets: Dict[Optional[str], tuple] = {}
        order: List[Optional[str]] = []
        for i, loss in enumerate(losses):
            key = None if loss is None else loss.matrix.digest
            slot = buckets.get(key)
            if slot is None:
                slot = (loss, [])
                buckets[key] = slot
                order.append(key)
            slot[1].append(i)
        return [
            (buckets[key][0], np.array(buckets[key][1])) for key in order
        ]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def horizon(self) -> int:
        """Number of releases recorded so far."""
        return len(self._epsilons)

    @property
    def epsilons(self) -> np.ndarray:
        """The fleet-wide default budget per release."""
        return np.asarray(self._epsilons, dtype=float)

    @property
    def users(self) -> Iterable[Hashable]:
        return self._index.users

    @property
    def n_users(self) -> int:
        return self._index.n_users

    @property
    def n_cohorts(self) -> int:
        return self._index.n_cohorts

    @property
    def alpha(self) -> Optional[float]:
        return self._alpha

    @property
    def cache(self) -> SolutionCache:
        """The Algorithm-1 solution cache backing this engine."""
        return self._cache

    def instrument(self, registry) -> None:
        """Attach a metrics registry after construction (checkpoint
        restores build the engine before the owning session exists).
        Instrumentation is pure observation -- it never changes a float
        operation, which the metrics parity suite pins."""
        self._registry = registry if registry is not None else NULL_REGISTRY

    def user_epsilons(self, user: Hashable) -> np.ndarray:
        """The budget vector actually spent on ``user`` (default schedule
        sliced at their join time, with any overrides applied)."""
        state = self._states[self._index.cohort_of(user).key]
        series = state.overrides.get(user)
        if series is not None:
            return np.asarray(series.eps, dtype=float)
        return np.asarray(self._epsilons[self._user_start[user] :], dtype=float)

    def profile(self, user: Optional[Hashable] = None) -> LeakageProfile:
        """Leakage profile for one user (default: the single/first user);
        identical to the per-user accountant's answer.

        Before any release covering the user (empty stream, or a join
        later than the last release) this is :meth:`LeakageProfile.empty`,
        consistent with :meth:`max_tpl` returning ``0.0``.
        """
        user = self._resolve(user)
        if self.horizon == 0:
            return LeakageProfile.empty()
        state = self._states[self._index.cohort_of(user).key]
        series = state.overrides.get(user)
        if series is not None:
            eps = np.asarray(series.eps, dtype=float)
            if eps.size == 0:
                return LeakageProfile.empty()
            bpl = np.asarray(series.bpl, dtype=float)
            fpl = self._override_fpl(state)[user]
        else:
            start = self._user_start[user]
            group = state.groups[start]
            eps = np.asarray(self._epsilons[start:], dtype=float)
            if eps.size == 0:
                return LeakageProfile.empty()
            bpl = np.asarray(group.bpl, dtype=float)
            fpl = self._group_fpl(state, group, eps)
        return LeakageProfile(epsilons=eps, bpl=bpl, fpl=fpl)

    def max_tpl(self) -> float:
        """Worst TPL over all users and time points (Eq. (3)) -- computed
        per cohort, not per user."""
        if self.horizon == 0:
            return 0.0
        worst = 0.0
        for state in self._states.values():
            for group in state.groups.values():
                eps = np.asarray(self._epsilons[group.start :], dtype=float)
                if eps.size == 0:
                    continue
                bpl = np.asarray(group.bpl, dtype=float)
                fpl = self._group_fpl(state, group, eps)
                worst = max(worst, float((bpl + fpl - eps).max()))
            if state.overrides:
                fpls = self._override_fpl(state)
                for user, series in state.overrides.items():
                    if not series.eps:
                        continue
                    eps = np.asarray(series.eps, dtype=float)
                    bpl = np.asarray(series.bpl, dtype=float)
                    worst = max(
                        worst, float((bpl + fpls[user] - eps).max())
                    )
        return worst

    def remaining_alpha(self) -> Optional[float]:
        """Headroom to the configured ``alpha`` bound (``None`` if unset)."""
        if self._alpha is None:
            return None
        return self._alpha - self.max_tpl()

    def _resolve(self, user: Optional[Hashable]) -> Hashable:
        if user is None:
            if self._index.n_users == 1:
                return next(iter(self._index.users))
            raise ValueError("multiple users tracked; specify which one")
        if user not in self._index:
            raise KeyError(f"unknown user {user!r}")
        return user

    # ------------------------------------------------------------------
    # FPL recomputation (lazy, cached per cohort)
    # ------------------------------------------------------------------
    def _group_fpl(
        self, state: _CohortState, group: _Group, eps: np.ndarray
    ) -> np.ndarray:
        key = eps.tobytes()
        if group._fpl_key == key:
            return group._fpl  # type: ignore[return-value]
        fpl = forward_privacy_leakage(state.loss_f, eps)
        group._fpl = fpl
        group._fpl_key = key
        return fpl

    def _window_worsts(self, window: int) -> np.ndarray:
        """Per-step worst-case TPL of the last ``window`` releases, for
        all cohorts, computed after the whole window has been applied:
        one *global* backward sweep advances every window prefix's FPL
        recursion (Eq. 15) for every group and override member of every
        cohort in lock-step.

        At global time point ``g`` the first window prefix covering it
        is ``max(0, g - (horizon - window))`` -- independent of a row's
        join time -- so rows from different cohorts, join times, and
        override blocks all share each sweep step.  Active rows' loss
        evaluations are bucketed by forward-matrix digest and fused
        across buckets into stacked solves (:meth:`_loss_batch_multi`),
        collapsing the solver entries per window from O(cohorts x T) to
        O(T).  Bit-identical to running
        :func:`~repro.core.leakage.forward_privacy_leakage` per row per
        prefix: per-entry independence of the stacked solver, the same
        elementwise adds on the same floats, and an exact max over the
        same multiset of TPL values.  As a side effect every group's and
        override member's FPL cache holds the full-horizon series, so the
        next :meth:`max_tpl` / :meth:`profile` query is free.
        """
        horizon = len(self._epsilons)
        base_all = horizon - window
        worsts = np.zeros(window)
        eps_all = np.asarray(self._epsilons, dtype=float)

        # Row catalogue: every group and every non-empty override series
        # becomes one row of the global sweep.
        starts: List[int] = []
        eps_rows: List[np.ndarray] = []
        bpl_rows: List[np.ndarray] = []
        row_loss: List[Optional[TemporalLossFunction]] = []
        sinks: List[tuple] = []
        override_states: List[_CohortState] = []
        empty_overrides: List[tuple] = []
        for state in self._states.values():
            for group in state.groups.values():
                eps = eps_all[group.start :]
                if eps.size == 0:
                    continue
                starts.append(group.start)
                eps_rows.append(eps)
                bpl_rows.append(np.asarray(group.bpl, dtype=float))
                row_loss.append(state.loss_f)
                sinks.append(("group", group, eps))
            if state.overrides:
                override_states.append(state)
                for user, series in state.overrides.items():
                    if not series.eps:
                        empty_overrides.append((state, user))
                        continue
                    starts.append(series.start)
                    eps_rows.append(np.asarray(series.eps, dtype=float))
                    bpl_rows.append(np.asarray(series.bpl, dtype=float))
                    row_loss.append(state.loss_f)
                    sinks.append(("override", state, user))

        n_rows = len(sinks)
        fpl_final = np.zeros((n_rows, horizon))
        if n_rows:
            starts_arr = np.array(starts)
            eps_mat = np.zeros((n_rows, horizon))
            bpl_mat = np.zeros((n_rows, horizon))
            for i in range(n_rows):
                eps_mat[i, starts[i] :] = eps_rows[i]
                bpl_mat[i, starts[i] :] = bpl_rows[i]
            buckets = self._bucket_rows(row_loss)
            alphas = np.zeros((n_rows, window))
            for g in range(horizon - 1, -1, -1):
                first = max(0, g - base_all)
                jobs = []
                acts = []
                for loss, idx in buckets:
                    act = idx[starts_arr[idx] <= g]
                    if act.size == 0:
                        continue
                    jobs.append((loss, alphas[act, first:].ravel()))
                    acts.append(act)
                results = self._loss_batch_multi(jobs, use_cache=False)
                for act, values in zip(acts, results):
                    stepped = (
                        values.reshape(act.size, window - first)
                        + eps_mat[act, g][:, None]
                    )
                    alphas[act, first:] = stepped
                    fpl_final[act, g] = stepped[:, -1]
                    tpl = (
                        bpl_mat[act, g][:, None]
                        + stepped
                        - eps_mat[act, g][:, None]
                    )
                    np.maximum(
                        worsts[first:], tpl.max(axis=0), out=worsts[first:]
                    )

        # Refresh the FPL caches with the final prefix's series.
        out_map: Dict[int, Dict[Hashable, np.ndarray]] = {
            id(state): {} for state in override_states
        }
        for state, user in empty_overrides:
            out_map[id(state)][user] = np.zeros(0)
        for i, sink in enumerate(sinks):
            if sink[0] == "group":
                _, group, eps = sink
                group._fpl = fpl_final[i, group.start :].copy()
                group._fpl_key = eps.tobytes()
            else:
                _, state, user = sink
                out_map[id(state)][user] = fpl_final[
                    i, state.overrides[user].start :
                ].copy()
        for state in override_states:
            state._override_fpl = out_map[id(state)]
            state._override_fpl_key = b"|".join(
                np.asarray(state.overrides[u].eps, dtype=float).tobytes()
                for u in state.overrides
            )
        return worsts

    def _override_fpl(self, state: _CohortState) -> Dict[Hashable, np.ndarray]:
        """FPL series (Eq. 15) of every override member of one cohort, in
        one backward sweep over global time: at each time point the
        members that have joined by then -- across all join times -- take
        one fused, memoised loss evaluation."""
        users = list(state.overrides)
        key = b"|".join(
            np.asarray(state.overrides[u].eps, dtype=float).tobytes()
            for u in users
        )
        if state._override_fpl_key == key and state._override_fpl is not None:
            return state._override_fpl
        horizon = len(self._epsilons)
        starts = np.array([state.overrides[u].start for u in users])
        eps_mat = np.zeros((len(users), horizon))
        for i, user in enumerate(users):
            eps_mat[i, starts[i] :] = state.overrides[user].eps
        fpl = np.zeros((len(users), horizon))
        alphas = np.zeros(len(users))
        for g in range(horizon - 1, -1, -1):
            act = np.flatnonzero(starts <= g)
            if act.size == 0:
                break  # nobody had joined yet at or before g
            (values,) = self._loss_batch_multi([(state.loss_f, alphas[act])])
            alphas[act] = values + eps_mat[act, g]
            fpl[act, g] = alphas[act]
        out = {user: fpl[i, starts[i] :].copy() for i, user in enumerate(users)}
        state._override_fpl = out
        state._override_fpl_key = key
        return out

    def __repr__(self) -> str:
        return (
            f"FleetAccountant(users={self._index.n_users}, "
            f"cohorts={self._index.n_cohorts}, releases={self.horizon}, "
            f"alpha={self._alpha})"
        )

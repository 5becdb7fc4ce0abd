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
* one **series table** holds the ``(rows, T)`` eps / BPL / FPL arrays:
  one row per (cohort, join time) group of default-schedule members --
  O(cohorts x T) instead of O(users x T) -- and one row per member with
  *per-user epsilon overrides* (personalised budgets);
* a release appends one column: every row's BPL step (Eq. 13) is one
  fused loss evaluation;
* windows, clamp probes and queries all run **one** backward FPL sweep
  (Eq. 15, :meth:`FleetAccountant._sweep`) that advances every active row
  in one update per time point;
* the sweep is **flat in stream age**: the FPL recursion contracts
  (Theorem 5, Fig. 6), so going back in time a row's new FPL soon equals,
  bit for bit, the FPL the table already holds for it.  Each row carries
  a *bound* below which its held FPL satisfies the recursion under the
  current budgets; a row whose every stream matches its held FPL at a
  time point below that bound leaves the sweep, and its earlier values
  are the held ones;
* every batched loss evaluation funnels through
  :func:`repro.core.algorithm1.max_log_ratio_stacked`, fused across
  cohorts.  Window sweeps memoise through a two-generation exact-float
  memo (under a constant epsilon the previous window solved almost every
  alpha of the next), the other memoised paths through one bounded
  :class:`~repro.fleet.solution_cache.SolutionCache`.

The public query surface (``add_release`` / ``profile`` / ``max_tpl`` /
``remaining_alpha`` / ``horizon`` / ``epsilons`` / ``users``) matches the
per-user accountant and returns identical numbers for identical inputs;
the recursions in :mod:`repro.core` are the reference the parity suites
pin it against.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from ..core.algorithm1 import max_log_ratio_stacked
from ..core.budget import validate_alpha, validate_epsilon
from ..core.leakage import LeakageProfile, backward_privacy_leakage
from ..core.loss_functions import TemporalLossFunction
from ..exceptions import InvalidPrivacyParameterError
from ..obs.metrics import NULL_REGISTRY
from .cohorts import Cohort, CohortIndex, normalise_pair
from .solution_cache import DEFAULT_MAXSIZE, SolutionCache

__all__ = ["FleetAccountant"]

#: Shared inverse index for one-element dedup bypasses in
#: :meth:`FleetAccountant._loss_batch_multi`.
_SINGLETON_IDX = np.zeros(1, dtype=np.intp)

#: Bucket bounds of the ``fleet.sweep.depth`` histogram (time points).
_DEPTH_BUCKETS = tuple(float(2**k) for k in range(21))


class _WindowMemo:
    """Exact-float ``alpha -> L(alpha)`` values, per forward loss (by
    matrix digest), of the window sweep in progress and of the one
    before it.  Lookups carry hits in the previous generation into the
    current one; a generation holds at most ``DEFAULT_MAXSIZE`` values,
    and values past that are solved raw.  A finished sweep's generation
    becomes the next one's previous (:meth:`FleetAccountant._sweep`)."""

    __slots__ = ("previous", "current", "size", "hits", "misses")

    def __init__(self, previous: dict) -> None:
        self.previous = previous
        self.current: dict = {}
        self.size = 0
        self.hits = 0
        self.misses = 0

    def lookup(self, digest: str, alphas: list) -> Tuple[list, dict]:
        """``L`` of each of ``alphas`` (``None`` where unknown), and the
        unknown alphas, each once, with their positions."""
        current = self.current.setdefault(digest, {})
        found = list(map(current.get, alphas))
        missing: Dict[float, List[int]] = {}
        if None in found:
            previous = self.previous.get(digest, {})
            for k, alpha in enumerate(alphas):
                if found[k] is None:
                    value = previous.get(alpha)
                    if value is None:
                        missing.setdefault(alpha, []).append(k)
                    else:
                        found[k] = value
                        self._keep(current, alpha, value)
        misses = sum(map(len, missing.values()))
        self.hits += len(alphas) - misses
        self.misses += misses
        return found, missing

    def fill(self, digest: str, found: list, missing: dict, solved) -> np.ndarray:
        """Complete a :meth:`lookup` with the ``solved`` missing alphas."""
        current = self.current[digest]
        for (alpha, positions), value in zip(missing.items(), solved.tolist()):
            self._keep(current, alpha, value)
            for k in positions:
                found[k] = value
        return np.array(found)

    def _keep(self, current: dict, alpha: float, value: float) -> None:
        if self.size < DEFAULT_MAXSIZE and alpha not in current:
            current[alpha] = value
            self.size += 1


class _Group:
    """The users behind one row of the series table: the default-schedule
    members of one cohort that joined at the same release index, or a
    single member on a personalised schedule (an override row)."""

    __slots__ = ("start", "members", "row")

    def __init__(self, start: int, members: Dict[Hashable, None]) -> None:
        self.start = start
        self.members = members
        self.row = -1


class _CohortState:
    """The rows of one :class:`~repro.fleet.cohorts.Cohort` and the ids of
    its backward / forward loss functions."""

    __slots__ = ("cohort", "loss_b", "loss_f", "groups", "overrides")

    def __init__(self, cohort: Cohort, loss_b: int, loss_f: int) -> None:
        self.cohort = cohort
        self.loss_b = loss_b
        self.loss_f = loss_f
        self.groups: Dict[int, _Group] = {}
        self.overrides: Dict[Hashable, _Group] = {}


class _SeriesTable:
    """The fleet's leakage state, one row per :class:`_Group`.

    ``series[0|1|2, row, t]`` is the row's epsilon / BPL / FPL at global
    time ``t`` -- zero before the row's join time, and stale past the
    horizon (never read, save the held FPL below a bound).
    ``keys[0|1|2|3, row]`` is its join time, the ids of its backward /
    forward loss functions, and its bound ``b``: the held FPL satisfies
    the recursion ``fpl[t] = eps[t] + L_F(fpl[t + 1])`` under the current
    budgets for every ``t < b - 1``.  Capacity doubles on demand; a
    dropped row is replaced by the last one, so new rows start zeroed.
    """

    __slots__ = ("series", "keys", "owners")

    def __init__(self) -> None:
        self.series = np.zeros((3, 0, 64))
        self.keys = np.zeros((4, 0), dtype=np.intp)
        self.owners: List[_Group] = []

    @property
    def rows(self) -> int:
        return len(self.owners)

    def reserve(self, rows: int, columns: int) -> None:
        _, have_rows, have_columns = self.series.shape
        if rows <= have_rows and columns <= have_columns:
            return
        rows = have_rows if rows <= have_rows else max(rows, 2 * have_rows)
        if columns > have_columns:
            columns = max(columns, 2 * have_columns)
        series = np.zeros((3, rows, max(columns, have_columns)))
        series[:, :have_rows, :have_columns] = self.series
        keys = np.zeros((4, rows), dtype=np.intp)
        keys[:, :have_rows] = self.keys
        self.series, self.keys = series, keys

    def add(self, owner: _Group, keys: Tuple[int, int, int, int]) -> None:
        row = self.rows
        self.reserve(row + 1, 0)
        self.series[:, row] = 0.0
        self.keys[:, row] = keys
        owner.row = row
        self.owners.append(owner)

    def drop(self, row: int) -> None:
        last = self.owners.pop()
        if last.row != row:
            self.series[:, row] = self.series[:, last.row]
            self.keys[:, row] = self.keys[:, last.row]
            last.row = row
            self.owners[row] = last


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
        self._alpha = None if alpha is None else validate_alpha(alpha)
        self._registry = registry if registry is not None else NULL_REGISTRY
        self._cache = cache if cache is not None else SolutionCache()
        self._index = CohortIndex()
        self._states: Dict[str, _CohortState] = {}
        self._user_start: Dict[Hashable, int] = {}
        self._epsilons: List[float] = []
        self._table = _SeriesTable()
        # Loss functions by matrix digest; id 0 is "no correlation" (L = 0).
        self._loss_ids: Dict[Optional[str], int] = {None: 0}
        self._losses: List[Optional[TemporalLossFunction]] = [None]
        # Worst TPL over the whole table, None once a mutation has made
        # it stale; _fresh while the table's FPL is the last sweep's at
        # this horizon.  A rollback can restore the worst, not the FPL.
        self._worst: Optional[float] = None
        self._fresh = False
        # (horizon, worst) the last add_release / add_window started
        # from: _truncate_to restores the worst when it returns there.
        self._kept: Optional[Tuple[int, float]] = None
        # The last window sweep's loss values (see _WindowMemo).
        self._memo: dict = {}
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
        self._join(user, correlations, self.horizon)

    def remove_user(self, user: Hashable) -> None:
        """Deregister ``user``; their past contribution to the fleet-wide
        maximum is no longer tracked."""
        state, owner = self._locate(user)
        self._index.remove(user)
        del self._user_start[user]
        self._kept = None
        del owner.members[user]
        if not owner.members:
            if state.overrides.pop(user, None) is None:
                del state.groups[owner.start]
            self._drop_row(owner)
        if not state.cohort.members:
            del self._states[state.cohort.key]

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
        state, _ = self._locate(user)
        own = self.user_epsilons(user) if user in state.overrides else None
        self.remove_user(user)
        self._join(user, pair, start, own)

    def _join(self, user, correlations, start, epsilons=None, bpl=None) -> None:
        """Register ``user`` from release ``start`` on: in their cohort's
        group of that join time, or -- given their own ``epsilons`` -- on
        an override row.  A new row gets its budgets and their BPL (given,
        or recomputed under the cohort's ``P_B``)."""
        state = self._state_of(self._index.add(user, correlations))
        self._user_start[user] = start
        self._kept = None
        if epsilons is not None:
            state.overrides[user] = self._new_row(
                state, start, {user: None}, epsilons, bpl
            )
            return
        group = state.groups.get(start)
        if group is None:
            group = state.groups[start] = self._new_row(
                state, start, {}, self._epsilons[start:], bpl
            )
        group.members[user] = None

    def _state_of(self, cohort: Cohort) -> _CohortState:
        """The accounting state of ``cohort``, created on first use."""
        state = self._states.get(cohort.key)
        if state is None:
            state = _CohortState(
                cohort,
                self._loss_id(cohort.backward),
                self._loss_id(cohort.forward),
            )
            self._states[cohort.key] = state
        return state

    def _loss_id(self, matrix) -> int:
        key = None if matrix is None else matrix.digest
        loss_id = self._loss_ids.get(key)
        if loss_id is None:
            loss_id = self._loss_ids[key] = len(self._losses)
            self._losses.append(TemporalLossFunction(matrix, cache=self._cache))
        return loss_id

    def _locate(self, user: Hashable) -> Tuple[_CohortState, _Group]:
        """``user``'s cohort state and the owner of their table row."""
        state = self._states[self._index.cohort_of(user).key]
        owner = state.overrides.get(user)
        if owner is None:
            owner = state.groups[self._user_start[user]]
        return state, owner

    def _new_row(self, state, start, members, epsilons, bpl=None) -> _Group:
        """Add a row for ``members`` joined at ``start`` carrying
        ``epsilons`` from then on, and their BPL (given, or recomputed
        under the cohort's ``P_B``).  Its FPL has never been swept, so
        its bound is its join time: before it the row is all zeros."""
        owner = _Group(start, members)
        self._table.add(owner, (start, state.loss_b, state.loss_f, start))
        self._worst, self._fresh = None, False
        epsilons = np.asarray(epsilons, dtype=float)
        if epsilons.size:
            if bpl is None:
                loss = self._losses[state.loss_b]
                bpl = backward_privacy_leakage(loss, epsilons)
            end = start + epsilons.size
            self._table.series[:2, owner.row, start:end] = epsilons, bpl
        return owner

    def _drop_row(self, owner: _Group) -> None:
        self._table.drop(owner.row)
        self._worst, self._fresh = None, False

    def _series(self, owner: _Group) -> np.ndarray:
        """The ``(3, horizon - start)`` eps / BPL / FPL block of
        ``owner``'s row: a view of the table."""
        return self._table.series[:, owner.row, owner.start : self.horizon]

    # ------------------------------------------------------------------
    # Checkpoint rows (repro.fleet.checkpoint, repro.durability.reshard)
    # ------------------------------------------------------------------
    def _cohort_rows(self):
        """Yield ``(key, (P_B, P_F), groups, overrides)`` per cohort in key
        order: ``groups`` as ``(start, members, bpl)`` by join time and
        ``overrides`` as ``(user, start, eps, bpl)``, series from the join
        time to the horizon (copies) -- the layout a checkpoint stores and
        :meth:`_restore` reads back."""
        for key, state in sorted(self._states.items()):
            groups = [
                (g.start, list(g.members), self._series(g)[1].copy())
                for g in sorted(state.groups.values(), key=lambda g: g.start)
            ]
            overrides = [
                (user, o.start, *self._series(o)[:2].copy())
                for user, o in state.overrides.items()
            ]
            yield key, (state.cohort.backward, state.cohort.forward), groups, overrides

    def _restore(self, epsilons, cohorts) -> None:
        """Load persisted state into this empty engine: the default budget
        series, then ``(pair, groups, overrides)`` per cohort as
        :meth:`_cohort_rows` yields them (BPL restored verbatim)."""
        self._epsilons = [float(e) for e in epsilons]
        self._table.reserve(0, self.horizon)
        for pair, groups, overrides in cohorts:
            for start, members, bpl in groups:
                for user in members:
                    self._join(user, pair, start, bpl=bpl)
            for user, start, eps, bpl in overrides:
                self._join(user, pair, start, eps, bpl)

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
        # Before _ensure_override forgets the worst: it is neutral.
        self._kept = None if self._worst is None else (self.horizon, self._worst)
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
        one O(T) recursion per step -- collapses into a single backward
        sweep (:meth:`_sweep`) that advances every window prefix of every
        row in lock-step, so the Python round-trips drop from O(K x T) to
        O(T + K).

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
        # step is one fused evaluation over every row -- identical
        # operations, in identical order, to K add_release calls.
        start = self.horizon
        self._kept = None if self._worst is None else (start, self._worst)
        try:
            for epsilon, step_overrides in zip(epsilons, per_step):
                for user in step_overrides:
                    self._ensure_override(user)
                self._epsilons.append(epsilon)
                self._extend_all(epsilon, step_overrides)
            with self._registry.span("fleet.window_worsts.seconds"):
                worsts = self._sweep(np.arange(self._table.rows), len(epsilons))
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
        """Give a default-schedule user their own row, a copy of their
        group's: their history so far equals the default schedule.  The
        copy holds the group's FPL under the group's bound, so it can
        leave the next sweep as early as the group would."""
        state = self._states[self._index.cohort_of(user).key]
        if user in state.overrides:
            return
        group = state.groups[self._user_start[user]]
        del group.members[user]
        override = state.overrides[user] = self._new_row(
            state, group.start, {user: None}, *self._series(group)[:2]
        )
        table = self._table
        table.series[2, override.row] = table.series[2, group.row]
        table.keys[3, override.row] = table.keys[3, group.row]
        if not group.members:
            del state.groups[group.start]
            self._drop_row(group)

    def _extend_all(
        self, epsilon: float, overrides: Mapping[Hashable, float]
    ) -> None:
        """Write the newest release's column for every row of the table.

        Every row's BPL increment is evaluated in one memoised, fused
        pass (:meth:`_row_losses`).  The appended values are the exact
        floats of the BPL recursion (Eq. 13) in :mod:`repro.core`: the
        batched solver matches the scalar loss path bit-for-bit (an
        invariant the parity suites pin), and the sums are the same
        scalar adds.
        """
        self._worst, self._fresh = None, False
        table = self._table
        t = len(self._epsilons) - 1
        table.reserve(0, t + 1)
        n = table.rows
        if not n:
            return
        eps = table.series[0, :n, t]
        eps[:] = epsilon
        for user, eps_u in overrides.items():
            eps[self._locate(user)[1].row] = float(eps_u)
        previous = table.series[1, :n, t - 1] if t else np.zeros(n)
        table.series[1, :n, t] = (
            self._row_losses(table.keys[1, :n], previous) + eps
        )

    def _truncate_to(self, horizon: int) -> None:
        """Restore the exact accounting state at ``horizon``: the undo
        behind :meth:`rollback` and behind a mid-mutation fault (e.g. a
        :class:`SolverError` from a loss evaluation partway through a
        window).

        The table's columns past the horizon are never read, so cutting
        the default budget series is an exact undo, even when the fault
        struck partway through a column.  Every bound drops to at most
        ``horizon + 1``: the held FPL is kept (the next sweep compares
        against it), and the budgets below ``horizon`` did not change.
        Sweeps write the table only once they finish, so after a fault
        mid-sweep no bound exceeds that already.  Override rows created
        by :meth:`_ensure_override` are left in place: a row carrying the
        default schedule is numerically identical to group membership
        (the parity suite pins the two paths bit-identical).

        Returning to the horizon the last mutation started from restores
        that state's worst TPL, so :meth:`max_tpl` after a refused step
        is a read; the table's FPL stays the refused stream's, so
        :meth:`profile` still sweeps.
        """
        del self._epsilons[horizon:]
        bounds = self._table.keys[3, : self._table.rows]
        np.minimum(bounds, horizon + 1, out=bounds)
        kept = self._kept
        self._worst = kept[1] if kept is not None and kept[0] == horizon else None
        self._fresh = False

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
        late = np.flatnonzero(self._table.keys[0, : self._table.rows] > horizon)
        if late.size:
            owner = self._table.owners[late[0]]
            raise ValueError(
                f"cannot roll back to horizon {horizon}: user "
                f"{next(iter(owner.members))!r} joined at horizon {owner.start}"
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
        :meth:`_sweep` whose first step is the probed one.  Results are
        bit-identical to the serial probe (the parity suites pin this):
        the scaled epsilons are the same ``base * s`` multiplies, the
        recursion steps the same adds on the same loss values, and the
        per-scale worst the same exact max with the same ``0.0`` floor as
        :meth:`max_tpl`.

        Override users still carried in a default group are *virtually*
        split out for the probe: they sweep their group's row under their
        own budget, and the group's row stays in the sweep while any
        member is left in it (:meth:`add_release` converts them
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
        table = self._table
        if scales_arr.size == 0 or table.rows == 0:
            return np.zeros(scales_arr.size)

        bases = np.full(table.rows, epsilon)
        split_rows: List[int] = []
        split_bases: List[float] = []
        left: Dict[int, int] = {}  # group row -> members not split out
        for user, eps_u in overrides.items():
            state, owner = self._locate(user)
            if user in state.overrides:
                bases[owner.row] = eps_u
            else:
                split_rows.append(owner.row)
                split_bases.append(eps_u)
                left[owner.row] = left.get(owner.row, len(owner.members)) - 1
        keep = np.ones(table.rows, dtype=bool)
        keep[[row for row, count in left.items() if count == 0]] = False
        rows = np.concatenate(
            [np.flatnonzero(keep), np.asarray(split_rows, dtype=np.intp)]
        )
        bases = np.concatenate([bases[keep], np.asarray(split_bases, dtype=float)])

        # The probed step's epsilons and BPL, per row per scale -- the
        # same base * s multiplies the serial probes perform, on the
        # scale-independent increment L_B(BPL_T).
        horizon = self.horizon
        previous = (
            table.series[1, rows, horizon - 1] if horizon else np.zeros(rows.size)
        )
        increments = self._row_losses(table.keys[1, rows], previous)
        head_eps = bases[:, None] * scales_arr[None, :]
        head_bpl = increments[:, None] + head_eps
        return self._sweep(rows, scales_arr.size, head=(head_eps, head_bpl))

    # ------------------------------------------------------------------
    # The backward FPL sweep
    # ------------------------------------------------------------------
    def _sweep(
        self,
        rows: np.ndarray,
        columns: int,
        head: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        query: bool = False,
    ) -> np.ndarray:
        """Run the FPL recursion (Eq. 15) of table ``rows`` backward over
        global time for ``columns`` streams at once; return each stream's
        worst TPL, floored at ``0.0`` like :meth:`max_tpl`.

        * **Window** (``head=None``): stream ``j`` is the recorded stream
          cut after release ``horizon - columns + j``.  Time point ``g``
          belongs to streams ``max(0, g - (horizon - columns))`` onward,
          whatever a row's join time, so every row shares every step.
          The last stream's FPL is written into the table and its worst
          becomes :meth:`max_tpl`'s answer until the next mutation.
          Loss values go through the two-generation :class:`_WindowMemo`.
        * **Query** (``query=True``): a window with ``columns=1``,
          memoised in the shared :class:`SolutionCache`.
        * **Probe**: ``head=(eps, bpl)``, each ``(len(rows), columns)``,
          is one unrecorded step per stream, swept first.  Nothing is
          written, ``rows`` may repeat, and loss values are solved raw.

        Each time point is one update over every row still in the sweep;
        loss evaluations are bucketed by forward-matrix digest only for
        the fused solve (:meth:`_loss_batch_multi`).  Rows that have not
        joined yet carry zeros and stay out of the solve.

        **Converged-suffix exit.**  At a time point ``g`` below a row's
        bound (see :class:`_SeriesTable`), if every stream's new FPL for
        the row equals its held FPL at ``g`` bit for bit, so does every
        earlier value: the budgets below ``g`` are the ones the held FPL
        was swept under, and the solver is deterministic per entry.  The
        row leaves the sweep there, and its TPL below ``g`` -- the
        sweep's own ``(bpl + fpl) - eps`` over the held FPL -- is folded
        into every stream's worst (bounds exceed the horizon before this
        sweep's releases by at most one, so every stream is live at such
        a ``g``).  Writing sweeps keep the held FPL below each row's exit,
        write the rest, and set the bound of every swept row to the
        horizon.  The table is written only once the sweep has finished,
        so a fault leaves the FPL rows, the bounds and the memo as they
        were.

        Bit-identical to the core FPL recursion per row per stream:
        per-entry independence of the stacked solver, the same
        elementwise adds on the same floats, and an exact max over the
        same multiset of TPL values.
        """
        table = self._table
        horizon = len(self._epsilons)
        worsts = np.zeros(columns)
        # Sorted by (forward loss, join time), the rows of one loss that
        # have joined by time g are a prefix of that loss's block.
        order = np.lexsort((table.keys[0, rows], table.keys[2, rows]))
        rows = rows[order]
        blocks = self._join_blocks(rows)
        eps, bpl = table.series[:2, rows, :horizon]
        bounds = table.keys[3, rows]
        limit = int(bounds.max(initial=0))  # no exit at or above it
        held = table.series[2, rows, :limit]
        if head is None:
            top, base = horizon, horizon - columns
            kind = "query" if query else "window"
        else:
            top, base = horizon + 1, horizon
            head_eps, head_bpl = head[0][order], head[1][order]
            kind = "probe"
        memo = _WindowMemo(self._memo) if kind == "window" else None
        # A writing sweep keeps the last stream's FPL of the rows still in
        # it at [g, edge), and flushes it as (rows, lo, hi, fpl) when rows
        # leave.
        trail = np.empty((rows.size, top)) if head is None else None
        flushed = []
        edge = depth = top
        live = rows
        alphas = np.zeros((rows.size, columns))
        for g in range(top - 1, -1, -1):
            first = max(0, g - base)
            width = columns - first
            jobs = []
            spans = []
            for loss, lo, block_starts in blocks:
                hi = lo + bisect_right(block_starts, g)
                if hi > lo:
                    jobs.append((loss, alphas[lo:hi, first:].ravel()))
                    spans.append((lo, hi))
            values = np.zeros((live.size, width))
            results = self._loss_batch_multi(
                jobs, use_cache=head is None, memo=memo
            )
            for (lo, hi), solved in zip(spans, results):
                values[lo:hi] = solved.reshape(hi - lo, width)
            if g == horizon:
                eps_g, bpl_g = head_eps, head_bpl
            else:
                eps_g, bpl_g = eps[:, g, None], bpl[:, g, None]
            stepped = values + eps_g
            alphas[:, first:] = stepped
            tpl = bpl_g + stepped - eps_g
            np.maximum(
                worsts[first:], tpl.max(axis=0, initial=0.0), out=worsts[first:]
            )
            if trail is not None:
                trail[:, g] = stepped[:, -1]
            if g >= limit:
                continue
            # Stream 0 alone first: a row whose FPL cycles in the last ulp
            # matches on some streams of a window, but not on that one.
            bits = held[:, g].view(np.int64)
            same = stepped[:, 0].view(np.int64) == bits
            if not same.any():
                continue
            same &= (stepped.view(np.int64) == bits[:, None]).all(axis=1)
            same &= bounds > g
            if not same.any():
                continue
            below = (bpl[same, :g] + held[same, :g]) - eps[same, :g]
            np.maximum(worsts, below.max(initial=0.0), out=worsts)
            keep = ~same
            if trail is not None:
                flushed.append((live, g, edge, trail[:, g:edge]))
                trail = np.empty((int(keep.sum()), g))
                edge = g
            live = live[keep]
            if not live.size:
                depth = top - g
                break
            eps, bpl, held = eps[keep, :g], bpl[keep, :g], held[keep, :g]
            bounds, alphas = bounds[keep], alphas[keep]
            limit = min(g, int(bounds.max()))
            blocks = self._join_blocks(live)
        if trail is not None:
            flushed.append((live, 0, edge, trail[:, :edge]))
            for ids, lo, hi, fpl in flushed:
                table.series[2, ids, lo:hi] = fpl
            table.keys[3, rows] = horizon
            self._worst, self._fresh = float(worsts[-1]), True
        if memo is not None:
            self._memo = memo.current
        registry = self._registry
        if registry.enabled:
            registry.histogram(
                "fleet.sweep.depth", _DEPTH_BUCKETS, kind=kind
            ).observe(depth)
            if memo is not None:
                registry.counter("fleet.sweep.memo.hits").inc(memo.hits)
                registry.counter("fleet.sweep.memo.misses").inc(memo.misses)
        return worsts

    # ------------------------------------------------------------------
    # Batched loss evaluation
    # ------------------------------------------------------------------
    def _join_blocks(self, rows: np.ndarray) -> List[tuple]:
        """``(loss, lo, join times)`` per forward-loss block of the sorted
        ``rows``: the rows of a block that have joined by time ``g`` are
        its first ``bisect_right(join times, g)``."""
        starts = self._table.keys[0, rows]
        return [
            (loss, lo, starts[lo:hi].tolist())
            for loss, lo, hi in self._loss_blocks(self._table.keys[2, rows])
        ]

    def _loss_blocks(self, loss_ids: np.ndarray) -> List[tuple]:
        """``(loss, lo, hi)`` for each run of one id in the sorted
        ``loss_ids``."""
        firsts = np.flatnonzero(np.diff(loss_ids, prepend=-1)).tolist()
        return [
            (self._losses[loss_ids[lo]], lo, hi)
            for lo, hi in zip(firsts, firsts[1:] + [loss_ids.size])
        ]

    def _row_losses(self, loss_ids: np.ndarray, values: np.ndarray) -> np.ndarray:
        """``L`` of each row's loss function (by id) at its value, in one
        memoised :meth:`_loss_batch_multi` call with one job per loss."""
        order = np.argsort(loss_ids, kind="stable")
        blocks = self._loss_blocks(loss_ids[order])
        results = self._loss_batch_multi(
            [(loss, values[order[lo:hi]]) for loss, lo, hi in blocks]
        )
        out = np.empty_like(values)
        for (_, lo, hi), solved in zip(blocks, results):
            out[order[lo:hi]] = solved
        return out

    def _loss_batch_multi(
        self, jobs, use_cache: bool = True, memo: Optional[_WindowMemo] = None
    ) -> List[np.ndarray]:
        """Evaluate ``L`` elementwise for many ``(loss-or-None, values)``
        jobs (``None`` evaluates to zeros), with the solves of *all* jobs
        fused into shared stacked sweeps (:func:`max_log_ratio_stacked`,
        one group per matrix size).  Per-job results are bit-identical
        to the scalar loss path; the fusion only changes how many solver
        entries the fleet pays per step.

        Memoised values are keyed by the *exact* float (matching the
        scalar loss memo): rounding conflated distinct alphas and made
        cached values depend on evaluation order.  Each caller has one
        home for its values:

        * the shared :class:`SolutionCache` (the default), deduplicated,
          under ``(digest, value, "batch")`` keys -- namespaced so batch
          entries never collide with the scalar ``(digest, value)``
          entries: the BPL step of a release or a probe
          (:meth:`_row_losses`) and the query sweep behind
          :meth:`max_tpl` / :meth:`profile`;
        * ``memo``, a window sweep's :class:`_WindowMemo`: under a
          constant epsilon the FPL at distance ``k`` from a stream's end
          is one float for every prefix and row, so consecutive windows
          repeat almost every alpha.  Kept apart from the LRU, they
          cannot evict the values the other paths reuse;
        * raw solves (``use_cache=False``): the probe sweep, whose scaled
          budgets rarely recur from one call to the next.  Within one
          call they do: an override row back on its group's budgets
          repeats the group's FPL (about 75% of a ``clamp`` probe's
          alphas), and :func:`max_log_ratio_stacked` solves each
          distinct ``(job, alpha)`` once, so this path adds no dedup.

        No home changes a bit (recomputation is bit-identical by the
        solver contract), so every setting yields the same floats.
        """
        results: List[Optional[np.ndarray]] = [None] * len(jobs)
        # (i, loss, alphas to solve, finish): finish turns the solved
        # alphas into job i's result (None: they are the result).
        pending: List[tuple] = []
        for i, (loss, values) in enumerate(jobs):
            values = np.asarray(values, dtype=float)
            if loss is None:
                results[i] = np.zeros_like(values)
                continue
            digest = loss.matrix.digest
            if not use_cache:
                pending.append((i, loss, values, None))
            elif memo is not None:
                found, missing = memo.lookup(digest, values.tolist())
                if missing:
                    alphas = np.fromiter(missing, float, len(missing))
                    finish = partial(memo.fill, digest, found, missing)
                    pending.append((i, loss, alphas, finish))
                else:
                    results[i] = np.array(found)
            else:
                if values.size == 1:
                    # The per-step extension path sends one alpha per
                    # group; a sort-based dedup of one element is pure
                    # overhead.
                    unique, inverse = values, _SINGLETON_IDX
                else:
                    unique, inverse = np.unique(values, return_inverse=True)
                res = np.empty_like(unique)
                missed: List[int] = []
                for k, value in enumerate(unique.tolist()):
                    hit = self._cache.get((digest, value, "batch"))
                    if hit is None:
                        missed.append(k)
                    else:
                        res[k] = hit
                if missed:
                    alphas = unique[missed]
                    finish = partial(
                        self._fill_cache, digest, alphas, res, missed, inverse
                    )
                    pending.append((i, loss, alphas, finish))
                else:
                    results[i] = res[inverse]
        by_n: Dict[int, List[tuple]] = {}
        for entry in pending:
            by_n.setdefault(entry[1].matrix.array.shape[0], []).append(entry)
        for entries in by_n.values():
            solved = max_log_ratio_stacked(
                [(loss.matrix, alphas) for _, loss, alphas, _ in entries]
            )
            for (i, _, _, finish), values in zip(entries, solved):
                results[i] = values if finish is None else finish(values)
        return results  # type: ignore[return-value]

    def _fill_cache(self, digest, alphas, res, missed, inverse, solved) -> np.ndarray:
        """Complete a shared-cache lookup with the ``solved`` ``alphas``
        (unique positions ``missed`` of ``res``)."""
        for k, alpha, value in zip(missed, alphas.tolist(), solved.tolist()):
            res[k] = value
            self._cache.put((digest, alpha, "batch"), value)
        return res[inverse]

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
        return self._series(self._locate(user)[1])[0].copy()

    def profile(self, user: Optional[Hashable] = None) -> LeakageProfile:
        """Leakage profile for one user (default: the single/first user);
        identical to the per-user accountant's answer.

        Before any release covering the user (empty stream, or a join
        later than the last release) this is :meth:`LeakageProfile.empty`,
        consistent with :meth:`max_tpl` returning ``0.0``.
        """
        _, owner = self._locate(self._resolve(user))
        if owner.start >= self.horizon:
            return LeakageProfile.empty()
        if not self._fresh:  # a known worst does not mean fresh FPL
            self._sweep(np.arange(self._table.rows), 1, query=True)
        eps, bpl, fpl = self._series(owner).copy()
        return LeakageProfile(epsilons=eps, bpl=bpl, fpl=fpl)

    def max_tpl(self) -> float:
        """Worst TPL over all users and time points (Eq. (3)) -- computed
        per table row, not per user, by the last sweep or, after a
        mutation, by a query sweep; a rollback to where the last release
        or window started restores it (:meth:`_truncate_to`)."""
        if self._worst is None:
            self._sweep(np.arange(self._table.rows), 1, query=True)
        return self._worst  # type: ignore[return-value]

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

    def __repr__(self) -> str:
        return (
            f"FleetAccountant(users={self._index.n_users}, "
            f"cohorts={self._index.n_cohorts}, releases={self.horizon}, "
            f"alpha={self._alpha})"
        )

"""The unified release session: one front door over both accounting paths.

:class:`ReleaseSession` is the Fig.-1 pipeline as a long-lived service
object.  It is configured declaratively (:class:`~repro.service.config.
SessionConfig`), runs on either accounting backend (scalar or fleet,
chosen automatically by population size), and ingests snapshots either
one at a time (:meth:`ReleaseSession.ingest`, or asynchronously with
backpressure via :meth:`ReleaseSession.aingest`) or **windowed**
(:meth:`ReleaseSession.ingest_window`): a whole
:class:`~repro.service.window.ReleaseWindow` of snapshots enters the
backend in one call, amortising backend entry, alpha probing, schedule
resolution and checkpoint-cadence checks, while still emitting one
structured :class:`~repro.service.events.ReleaseEvent` per time point.
``ingest`` is the one-element window; windowed and per-event ingestion
are bit-identical by construction (the parity suite enforces it).

Alpha enforcement is a *session* concern, not a backend concern: the
backends expose ``add_window`` + ``rollback``, and the session implements
the configured policy on top (reject / clamp / warn).  The whole window
is probed in one backend call; because the per-step worst-TPL series is
non-decreasing, the first violating step is read straight off the result,
the suffix from that step on is rolled back, and only the violating step
itself is re-decided with the per-event policy (clamp mode bisects the
largest feasible fraction of the requested budget using
probe-and-rollback, which is deterministic and therefore bit-identical
across backends and window sizes).
"""

from __future__ import annotations

import asyncio
import warnings
from pathlib import Path
from typing import Iterable, List, Mapping, Optional, Tuple

import numpy as np

from ..core.budget import validate_epsilon
from ..core.leakage import LeakageProfile
from ..fleet.solution_cache import SolutionCache
from ..mechanisms.base import as_rng
from ..mechanisms.laplace import LaplaceMechanism
from ..obs.metrics import NULL_REGISTRY
from .async_ingest import BoundedIngestQueue
from .backends import (
    AccountantBackend,
    FleetAccountantBackend,
    ScalarAccountantBackend,
    SCALAR_MANIFEST_NAME,
    make_backend,
)
from .config import SessionConfig
from .events import (
    ACCOUNTED,
    CLAMPED,
    REJECTED,
    RELEASED,
    WARNED,
    ReleaseEvent,
)
from .window import ReleaseWindow, WindowStep

__all__ = ["ReleaseSession"]

#: Absolute slack on alpha comparisons, matching the accountants' own
#: rollback tolerance so the session and a bound accountant agree on what
#: counts as a violation.
_ALPHA_TOL = 1e-12

#: Bisection levels the batched clamp evaluates per ``probe_scales``
#: backend entry -- one dyadic subtree of at most ``2**k - 1`` candidate
#: scales per entry.  4 levels turn the ~20 round-trips of the default
#: ``clamp_resolution=1e-6`` into at most 5 of 15 candidates each; deeper
#: trees save round-trips but the speculative candidate count doubles per
#: level (measured: depth 4 beats 3 and 5 on the in-process backends).
#: The first entry adds the rest of the all-left path (16 scales at the
#: default resolution, 31 in all), so a refused step costs one entry, and
#: a clamped one never more than 5 (fewer when its fit lies deep down the
#: left edge).
_PROBE_LEVELS = 4


class ReleaseSession:
    """Ingest snapshots, publish noisy aggregates, account the leakage.

    Parameters
    ----------
    config:
        The declarative session description.
    backend:
        Optional pre-built :class:`AccountantBackend`; by default one is
        constructed from the config (``auto`` selection by population
        size).  Used by :meth:`restore` and by tests that need to inject
        a specific backend instance.
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`.  By default
        the session (and every layer below it) runs on the no-op
        :data:`~repro.obs.metrics.NULL_REGISTRY`; passing a real registry
        turns on per-ingest/per-window latency histograms, per-status
        event counters, alpha probe/rollback counts, queue depth
        timeseries and backend timings, surfaced through
        ``summary()["metrics"]``.  Instrumentation never changes a float
        operation or RNG draw (the metrics parity suite pins events,
        noise and TPL series bit-identical either way).

    Examples
    --------
    >>> from repro.data import HistogramQuery
    >>> from repro.markov import two_state_matrix
    >>> from repro.service import ReleaseSession, SessionConfig
    >>> import numpy as np
    >>> P = two_state_matrix(0.8, 0.0)
    >>> session = ReleaseSession(SessionConfig(
    ...     correlations=(P, P), budgets=0.1,
    ...     query=HistogramQuery(2), seed=0))
    >>> event = session.ingest(np.array([0, 1, 1]))
    >>> event.status
    'released'
    >>> event.max_tpl >= 0.1
    True
    """

    def __init__(
        self,
        config: SessionConfig,
        *,
        backend: Optional[AccountantBackend] = None,
        cache: Optional[SolutionCache] = None,
        registry=None,
        wal=None,
    ) -> None:
        self._config = config
        self._policy = config.alpha_policy()
        self._schedule = config.budget_schedule()
        self._registry = registry if registry is not None else NULL_REGISTRY
        if cache is None:
            cache = (
                SolutionCache(maxsize=config.cache_size)
                if config.cache_size is not None
                else SolutionCache()
            )
        self._cache = cache
        self._registry.gauge_fn("session.cache", self._cache.stats)
        if backend is None:
            backend = make_backend(
                config.user_correlations(),
                backend=config.backend,
                fleet_threshold=config.fleet_threshold,
                cache=self._cache,
                shards=config.shards,
                registry=registry,
                shard_transport=config.shard_transport,
                shard_addresses=config.shard_addresses,
            )
        self._backend = backend
        self._rng = as_rng(config.seed)
        self._events: List[ReleaseEvent] = []
        self._pump: Optional[BoundedIngestQueue] = None
        self._in_pump = False  # drain-invoked ingest defers WAL sync
        self._queue_stats: Optional[dict] = None
        self._last_checkpoint_horizon = backend.horizon
        self._last_compact_horizon = backend.horizon
        self._replaying = False
        self._wal = None
        if wal is not None:
            self._attach_wal(wal)
        elif config.wal_dir is not None:
            from ..durability.wal import WriteAheadLog

            self._attach_wal(
                WriteAheadLog.create(
                    config.wal_dir,
                    partitions=getattr(backend, "n_shards", 1),
                    fsync=config.wal_fsync,
                    registry=self._registry,
                )
            )

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(
        self,
        snapshot: Optional[np.ndarray] = None,
        *,
        epsilon: Optional[float] = None,
        overrides: Optional[Mapping[object, float]] = None,
    ) -> ReleaseEvent:
        """Process one time point and return its event.

        ``snapshot`` is the database column ``D^t`` (omit it for
        accounting-only sessions); ``epsilon`` overrides the schedule for
        this time point; ``overrides`` are per-user budgets (personalised
        DP).  Publication happens only after the accounting policy admits
        the release, so rejected time points never consume noise
        randomness -- a property the cross-backend parity suite relies
        on.

        This is the one-element window: ``ingest(x)`` ==
        ``ingest_window([x])[0]``, bit for bit.
        """
        with self._registry.span("session.ingest.seconds"):
            return self.ingest_window(
                ReleaseWindow.single(
                    snapshot, epsilon=epsilon, overrides=overrides
                )
            )[0]

    def ingest_window(
        self,
        window,
        *,
        epsilon: Optional[float] = None,
        overrides: Optional[Mapping[object, float]] = None,
    ) -> List[ReleaseEvent]:
        """Process a window of time points and return one event per step.

        ``window`` is a :class:`~repro.service.window.ReleaseWindow`, or
        any iterable of snapshots which is stacked into one (``epsilon``
        / ``overrides`` are then broadcast to every step; per-step specs
        go on the :class:`~repro.service.window.WindowStep`\\ s instead).

        The whole window enters the backend in one ``add_window`` call,
        amortising backend entry, schedule resolution, alpha probing and
        the checkpoint-cadence check across its steps; the events --
        statuses, budgets, TPL numbers, noise draws -- are bit-identical
        to ingesting the same steps one at a time.  When the alpha policy
        interrupts the window (reject/clamp), the suffix is rolled back,
        the violating step is re-decided by the per-event policy, and the
        remainder continues as a fresh window, so mid-window rejections
        reuse their time point exactly like per-event ingestion does.
        With ``checkpoint_every`` set, cadence is evaluated once per
        window, so checkpoints land on window boundaries.
        """
        if isinstance(window, ReleaseWindow):
            if epsilon is not None or overrides is not None:
                raise ValueError(
                    "epsilon/overrides broadcast only applies when "
                    "building a window from snapshots; put per-step specs "
                    "on the WindowSteps instead"
                )
        else:
            window = ReleaseWindow.from_snapshots(
                window, epsilon=epsilon, overrides=overrides
            )
        if self._wal is not None and not self._replaying:
            # Write-ahead: the *requested* window becomes durable before
            # any accounting mutation, so after a crash the log either
            # contains the window (replay redoes it exactly) or the
            # mutation never happened.
            self._wal.append(window, owner_of=self._wal_owner)
        events: List[ReleaseEvent] = []
        steps = list(window.steps)
        with self._registry.span("session.window.seconds"):
            while steps:
                steps = steps[self._ingest_chunk(steps, events) :]
        if not self._replaying:
            self._maybe_checkpoint()
            self._maybe_compact()
            if (
                self._wal is not None
                and not self._in_pump
                and self._wal.fsync_mode == "batch"
            ):
                # Direct (non-queued) ingestion has no drain burst to
                # share a group commit with: the window becomes durable
                # before the caller is acknowledged, amortised to one
                # sync across every partition it touched.
                self._wal.sync()
        return events

    def _ingest_chunk(
        self, steps: List[WindowStep], events: List[ReleaseEvent]
    ) -> int:
        """Apply a maximal prefix of ``steps`` in one backend call.

        Emits events for every decided step -- all of them, or (when an
        alpha violation interrupts reject/clamp mode) the clean prefix
        plus the violating step -- and returns how many were consumed.
        All budgets are validated before the backend is touched, so a bad
        step leaves the session unchanged.
        """
        horizon = self._backend.horizon
        requested: List[float] = []
        for i, step in enumerate(steps):
            if step.epsilon is not None:
                requested.append(validate_epsilon(step.epsilon))
            else:
                requested.append(self._schedule.epsilon_for(horizon + i + 1))
        overrides = [
            dict(step.overrides) if step.overrides else None for step in steps
        ]
        # Evaluate queries before the accounting mutation (the per-event
        # path always did): together with the backends' validate-first
        # contract this keeps a failing chunk atomic -- no events, no
        # state change -- which the async queue's per-item retry of a
        # failed window relies on.
        answers: List[Optional[np.ndarray]] = [
            np.atleast_1d(self._config.query(step.snapshot))
            if self._config.query is not None and step.snapshot is not None
            else None
            for step in steps
        ]
        result = self._backend.add_window(
            ReleaseWindow(
                WindowStep(epsilon=eps, overrides=ovr)
                for eps, ovr in zip(requested, overrides)
            )
        )
        worsts = result.max_tpls
        policy = self._policy
        stop = len(steps)  # first step that needs the per-event policy
        if policy.alpha is not None and policy.mode in ("reject", "clamp"):
            violating = np.flatnonzero(worsts > policy.alpha + _ALPHA_TOL)
            if violating.size:
                # The per-step worst-TPL series is non-decreasing, so the
                # prefix before the first violation is exactly what
                # per-event ingestion would have admitted; everything from
                # the violating step on is rolled back and re-decided.
                stop = int(violating[0])
                self._backend.rollback(len(steps) - stop)
                self._registry.counter("session.alpha.rollbacks").inc()
        for i in range(stop):
            status, message = RELEASED, None
            worst = float(worsts[i])
            if policy.alpha is not None and worst > policy.alpha + _ALPHA_TOL:
                # warn mode: the bound is exceeded but the release stands.
                message = self._violation_detail(requested[i], worst)
                warnings.warn(message, RuntimeWarning, stacklevel=4)
                status = WARNED
            events.append(
                self._emit(
                    t=horizon + i + 1,
                    true_answer=answers[i],
                    requested=requested[i],
                    applied=requested[i],
                    applied_overrides=overrides[i],
                    worst=worst,
                    status=status,
                    message=message,
                )
            )
        if stop == len(steps):
            return stop
        applied, applied_overrides, worst, status, message = (
            self._apply_policy(
                requested[stop], overrides[stop], float(worsts[stop])
            )
        )
        events.append(
            self._emit(
                t=horizon + stop + 1,
                true_answer=answers[stop],
                requested=requested[stop],
                applied=applied,
                applied_overrides=applied_overrides,
                worst=worst,
                status=status,
                message=message,
            )
        )
        return stop + 1

    def _emit(
        self,
        *,
        t: int,
        true_answer: Optional[np.ndarray],
        requested: float,
        applied: float,
        applied_overrides: Optional[Mapping[object, float]],
        worst: float,
        status: str,
        message: Optional[str],
    ) -> ReleaseEvent:
        """Publish (when admitted) and record the event of one decided
        time point.  Noise is drawn here, in step order, only for
        admitted positive-budget steps -- rejected time points never
        consume randomness."""
        noisy_answer = None
        if true_answer is not None and status != REJECTED and applied > 0.0:
            mechanism = LaplaceMechanism(
                applied, self._config.query.sensitivity
            )
            noisy_answer = mechanism.perturb(true_answer, self._rng)
        elif status == RELEASED and applied == 0.0:
            status = ACCOUNTED
        alpha = self._policy.alpha
        event = ReleaseEvent(
            t=t,
            status=status,
            requested_epsilon=requested,
            epsilon=applied,
            max_tpl=worst,
            backend=self._backend.name,
            remaining_alpha=None if alpha is None else alpha - worst,
            overrides=applied_overrides,
            true_answer=true_answer,
            noisy_answer=noisy_answer,
            message=message,
        )
        self._events.append(event)
        self._registry.counter("session.events", status=status).inc()
        return event

    def run(self, dataset) -> List[ReleaseEvent]:
        """Ingest every snapshot of a
        :class:`~repro.data.trajectory.TrajectoryDataset`, coalescing
        ``SessionConfig.window_size`` snapshots per backend entry, and
        return the events of this call."""
        size = self._config.window_size
        events: List[ReleaseEvent] = []
        # Materialise one window of snapshots at a time, not the whole
        # horizon.
        for lo in range(1, dataset.horizon + 1, size):
            hi = min(lo + size, dataset.horizon + 1)
            events.extend(
                self.ingest_window(
                    ReleaseWindow.from_snapshots(
                        dataset.snapshot(t) for t in range(lo, hi)
                    )
                )
            )
        return events

    async def aingest(
        self,
        snapshot: Optional[np.ndarray] = None,
        *,
        epsilon: Optional[float] = None,
        overrides: Optional[Mapping[object, float]] = None,
    ) -> ReleaseEvent:
        """Asynchronous :meth:`ingest` through the bounded session queue.

        Concurrent producers are serialised in submission order; when the
        queue is full (``SessionConfig.queue_maxsize``) submitters are
        parked until the accounting consumer catches up -- the
        backpressure seam future sharding plugs into.  Whenever producers
        outpace the consumer, the backlog is drained in windows of up to
        ``SessionConfig.window_size`` submissions per backend entry
        (results are still delivered per submitter and are bit-identical
        to per-event draining).  Call :meth:`aclose` (or use ``async
        with``) to drain on shutdown.
        """
        if self._pump is None:
            commit = None
            if self._wal is not None and self._wal.fsync_mode == "batch":
                # Group commit: the queue runs one WAL sync per drained
                # burst, and withholds every submitter's event until it
                # lands -- nobody is acknowledged before their window is
                # durable, but a burst shares one disk flush.
                commit = self._wal.sync
            self._pump = BoundedIngestQueue(
                self._process_queued,
                maxsize=self._config.queue_maxsize,
                batch_size=self._config.window_size,
                process_batch=self._process_queued_window,
                registry=self._registry,
                commit=commit,
            )
        return await self._pump.submit((snapshot, epsilon, overrides))

    async def aingest_window(
        self,
        window,
        *,
        epsilon: Optional[float] = None,
        overrides: Optional[Mapping[object, float]] = None,
        return_exceptions: bool = False,
    ) -> List[ReleaseEvent]:
        """Asynchronous :meth:`ingest_window` through the bounded queue.

        The window's steps enter the queue as individual submissions in
        step order (so they share the queue's backpressure bound with
        every other producer) and are coalesced by the queue's batch
        drain into backend windows of up to
        ``SessionConfig.window_size`` -- bit-identical numbers either
        way, by the windowed-vs-per-event parity guarantee.  Returns one
        event per step; with ``return_exceptions=True`` a failing step
        yields its exception in place of an event instead of failing the
        whole call (the TCP server uses this to emit per-step error
        lines).
        """
        if isinstance(window, ReleaseWindow):
            if epsilon is not None or overrides is not None:
                raise ValueError(
                    "epsilon/overrides broadcast only applies when "
                    "building a window from snapshots; put per-step specs "
                    "on the WindowSteps instead"
                )
        else:
            window = ReleaseWindow.from_snapshots(
                window, epsilon=epsilon, overrides=overrides
            )
        return list(
            await asyncio.gather(
                *(
                    self.aingest(
                        step.snapshot,
                        epsilon=step.epsilon,
                        overrides=step.overrides,
                    )
                    for step in window.steps
                ),
                return_exceptions=return_exceptions,
            )
        )

    def _process_queued(self, item) -> ReleaseEvent:
        snapshot, epsilon, overrides = item
        self._in_pump = True
        try:
            return self.ingest(snapshot, epsilon=epsilon, overrides=overrides)
        finally:
            self._in_pump = False

    def _process_queued_window(self, items) -> List[ReleaseEvent]:
        """Drain one coalesced batch of queued submissions as a window
        (one event per submission, in submission order).  ``_in_pump``
        defers the batch-mode WAL sync to the queue's group commit."""
        self._in_pump = True
        try:
            return self.ingest_window(
                ReleaseWindow(
                    WindowStep(
                        snapshot=snapshot, epsilon=epsilon, overrides=overrides
                    )
                    for snapshot, epsilon, overrides in items
                )
            )
        finally:
            self._in_pump = False

    async def aclose(self) -> None:
        """Drain and stop the async ingestion queue (idempotent).  The
        queue's final operational counters stay available through
        :meth:`summary`."""
        if self._pump is not None:
            await self._pump.close()
            self._queue_stats = self._pump.stats()
            self._pump = None

    def close(self) -> None:
        """Release backend resources and flush the write-ahead log
        (idempotent).  In-process backends hold none; a sharded backend
        shuts its worker processes down, so call this (or use the
        backend as a context manager) when a sharded session is done."""
        if self._wal is not None:
            self._wal.close()
        closer = getattr(self._backend, "close", None)
        if closer is not None:
            closer()

    async def __aenter__(self) -> "ReleaseSession":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # Alpha policy
    # ------------------------------------------------------------------
    def _apply_policy(
        self,
        requested: float,
        overrides: Optional[Mapping[object, float]],
        worst: float,
    ) -> Tuple[float, Optional[Mapping[object, float]], float, str, Optional[str]]:
        """Decide one alpha-violating step under reject/clamp.

        ``worst`` is the worst-case TPL the requested release produced in
        the window :meth:`_ingest_chunk` has already rolled back, so the
        step is not applied again just to be measured.  Returns
        ``(applied_epsilon, applied_overrides, max_tpl, status,
        message)``; on return the backend state reflects the decision.
        Warn mode never reaches here -- a warned release stands as
        applied, so :meth:`_ingest_chunk` handles it without rolling the
        window back.
        """
        policy = self._policy
        detail = self._violation_detail(requested, worst)
        if policy.mode == "reject":
            return 0.0, None, self._backend.max_tpl(), REJECTED, detail
        # Clamp: largest feasible fraction of the requested budgets.
        scale = self._clamp_scale(requested, overrides, policy.alpha)
        applied = requested * scale
        if applied <= 0.0:
            message = detail + "; no positive fraction of it fits"
            return 0.0, None, self._backend.max_tpl(), REJECTED, message
        applied_overrides = (
            {user: eps * scale for user, eps in overrides.items()}
            if overrides
            else None
        )
        worst = self._backend.add_release(applied, applied_overrides)
        message = detail + f"; clamped to eps={applied:g}"
        return applied, applied_overrides, worst, CLAMPED, message

    def _violation_detail(self, requested: float, worst: float) -> str:
        """The human-readable alpha-violation message shared by every
        policy mode (and therefore identical across window sizes)."""
        return (
            f"release of eps={requested:g} raises worst-case TPL to "
            f"{worst:.6f} > alpha={self._policy.alpha:g}"
        )

    def _clamp_scale(
        self,
        requested: float,
        overrides: Optional[Mapping[object, float]],
        alpha: float,
    ) -> float:
        """Bisect the largest scale in [0, 1] whose scaled release keeps
        worst-case TPL within ``alpha``.

        The bisection's midpoints form a deterministic dyadic tree: every
        candidate the next ``_PROBE_LEVELS`` levels could visit is
        enumerated with the bisection arithmetic (``mid = 0.5 * (lo +
        hi)``, gated on ``hi - lo > clamp_resolution``), evaluated in
        **one** read-only ``probe_scales`` backend entry, and the
        bisection then walks the precomputed answers locally for as long
        as it holds the answer for its next midpoint.  The first round
        (root ``0.5`` first) also carries the rest of the all-left path
        down to the resolution, so a step refused at the cap -- the
        steady state of a stream at its alpha cap, since TPL never falls
        -- is decided in one backend entry, and a fit far down the left
        edge needs fewer rounds (never more).  Each answer is the
        worst TPL of one scale, whatever else shares its round, so the
        chosen scale is bit-identical to a one-probe-per-midpoint
        bisection (parity-pinned), with its ~20 backend round-trips
        collapsed into 1 to 5.  ``scale == 0`` is always feasible: a
        zero-budget release can never raise TPL (``L(alpha) <= alpha``),
        so the invariant maintained by reject/clamp modes keeps the
        bracket valid.
        """
        # Normalise once: an empty-but-not-None mapping must not cost a
        # dict rebuild (or a scaled copy) per probe.
        overrides = dict(overrides) if overrides else None
        resolution = self._policy.clamp_resolution
        lo, hi = 0.0, 1.0  # hi was just observed infeasible
        while hi - lo > resolution:
            mids: list = []

            def collect(lo_: float, hi_: float, depth: int) -> None:
                if depth == 0 or not hi_ - lo_ > resolution:
                    return
                mid = 0.5 * (lo_ + hi_)
                mids.append(mid)
                collect(lo_, mid, depth - 1)
                collect(mid, hi_, depth - 1)

            collect(lo, hi, _PROBE_LEVELS)
            if lo == 0.0:
                # The first round (no later one starts at 0) also carries
                # the rest of the all-left path, which a refused step
                # walks to its end.
                edge, path = hi, []
                while edge - lo > resolution:
                    edge = 0.5 * (lo + edge)
                    path.append(edge)
                mids.extend(path[_PROBE_LEVELS:])
            worsts = self._backend.probe_scales(requested, overrides, mids)
            self._registry.counter("session.alpha.probes").inc(len(mids))
            answers = dict(zip(mids, (float(w) for w in worsts)))
            while hi - lo > resolution:
                mid = 0.5 * (lo + hi)
                worst = answers.get(mid)
                if worst is None:
                    break
                if worst <= alpha + _ALPHA_TOL:
                    lo = mid
                else:
                    hi = mid
        return lo

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def config(self) -> SessionConfig:
        return self._config

    @property
    def backend(self) -> AccountantBackend:
        return self._backend

    @property
    def backend_name(self) -> str:
        return self._backend.name

    @property
    def cache(self) -> SolutionCache:
        """The shared Algorithm-1 solution cache of this session."""
        return self._cache

    @property
    def registry(self):
        """The metrics registry this session reports into (the no-op
        :data:`~repro.obs.metrics.NULL_REGISTRY` unless one was passed)."""
        return self._registry

    @property
    def events(self) -> Tuple[ReleaseEvent, ...]:
        """Every event emitted by this session object, oldest first."""
        return tuple(self._events)

    @property
    def horizon(self) -> int:
        """Accounted releases so far (rejected attempts excluded)."""
        return self._backend.horizon

    @property
    def users(self) -> Iterable[object]:
        return self._backend.users

    def max_tpl(self) -> float:
        return self._backend.max_tpl()

    def remaining_alpha(self) -> Optional[float]:
        if self._policy.alpha is None:
            return None
        return self._policy.alpha - self._backend.max_tpl()

    def profile(self, user=None) -> LeakageProfile:
        return self._backend.profile(user)

    def summary(self) -> dict:
        """Operational snapshot: backend, population, horizon, per-status
        event counts, worst-case TPL, alpha headroom, and -- once
        :meth:`aingest` has run -- the async queue's counters (depth
        high-water mark, largest coalesced window), which operators use
        to size ``window_size`` / ``queue_maxsize``.  ``"cache"`` is the
        Algorithm-1 :class:`SolutionCache`'s hit/miss/eviction counters
        (how often a memoised loss evaluation was reused); ``"metrics"``
        is the registry snapshot -- latency histograms, per-status event
        counters, backend timings -- and is ``{}`` on an un-instrumented
        session."""
        counts: dict = {}
        for event in self._events:
            counts[event.status] = counts.get(event.status, 0) + 1
        if self._pump is not None:
            queue_stats: Optional[dict] = self._pump.stats()
        else:
            queue_stats = self._queue_stats
        return {
            "backend": self._backend.name,
            "users": self._backend.n_users,
            "horizon": self._backend.horizon,
            "events": len(self._events),
            "status_counts": counts,
            "max_tpl": self._backend.max_tpl(),
            "remaining_alpha": self.remaining_alpha(),
            "queue": queue_stats,
            "cache": self._cache.stats(),
            "metrics": self._registry.snapshot(),
        }

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self, directory=None) -> Path:
        """Write a backend checkpoint to ``directory`` (default: the
        configured ``checkpoint_dir``)."""
        target = directory if directory is not None else self._config.checkpoint_dir
        if target is None:
            raise ValueError(
                "no checkpoint directory: pass one or set "
                "SessionConfig.checkpoint_dir"
            )
        path = self._backend.save(target)
        self._last_checkpoint_horizon = self._backend.horizon
        return path

    def _maybe_checkpoint(self) -> None:
        every = self._config.checkpoint_every
        if every is None:
            return
        horizon = self._backend.horizon
        if horizon - self._last_checkpoint_horizon >= every:
            self.checkpoint()

    # ------------------------------------------------------------------
    # Durability (write-ahead log)
    # ------------------------------------------------------------------
    @property
    def wal(self):
        """The attached :class:`~repro.durability.wal.WriteAheadLog`
        (``None`` unless ``SessionConfig.wal_dir`` is set or the session
        was built by :meth:`recover`)."""
        return self._wal

    def _attach_wal(self, wal) -> None:
        self._wal = wal
        self._registry.gauge_fn("wal.log_bytes", wal.size_bytes)

    def _wal_owner(self, user) -> int:
        """Which log partition records ``user``'s overrides (the owning
        shard for a sharded backend, partition 0 otherwise -- including
        unknown users, so replay re-raises the original error)."""
        owners = getattr(self._backend, "_user_shard", None)
        if owners is None:
            return 0
        return owners.get(user, 0)

    def compact_wal(self) -> Path:
        """Fold the log's tail into a fresh backend snapshot (atomic
        manifest swap; see :mod:`repro.durability.compact`), capturing
        the noise-RNG state so recovery resumes draws exactly.  Returns
        the snapshot directory."""
        if self._wal is None:
            raise ValueError(
                "no write-ahead log attached: set SessionConfig.wal_dir"
            )
        from ..durability.wal import encode_rng_state

        with self._registry.span("wal.compact.seconds"):
            snapshot = self._wal.compact(
                self._backend.save,
                horizon=self._backend.horizon,
                rng_state=encode_rng_state(self._rng.bit_generator.state),
                partitions=getattr(self._backend, "n_shards", 1),
            )
        self._last_compact_horizon = self._backend.horizon
        return snapshot

    def _maybe_compact(self) -> None:
        every = self._config.wal_compact_every
        if every is None or self._wal is None:
            return
        if self._backend.horizon - self._last_compact_horizon >= every:
            self.compact_wal()

    def _replay(self, records) -> int:
        """Re-ingest decoded WAL records through the ordinary ingestion
        path (appends and cadence suppressed).  Replay reproduces the
        original run bit for bit -- including its failures: a window the
        original rejected with an error re-raises identically and is
        skipped, leaving the same state behind."""
        from ..durability.wal import decode_window

        self._replaying = True
        try:
            replayed = 0
            for record in records:
                try:
                    self.ingest_window(decode_window(record))
                except Exception:
                    # The original ingest failed the same way after the
                    # append; the backends' validate-first contract means
                    # it mutated nothing then, so skipping mutates
                    # nothing now.
                    self._registry.counter("wal.replay_errors").inc()
                else:
                    replayed += 1
        finally:
            self._replaying = False
        self._registry.counter("wal.replayed_windows").inc(replayed)
        return replayed

    @classmethod
    def recover(
        cls, config: SessionConfig, wal_dir=None, *, registry=None
    ) -> "ReleaseSession":
        """Rebuild a session from its write-ahead log.

        Opens the log (repairing any torn tail), restores the latest
        compaction snapshot if one exists -- re-sharding it first when
        ``config.shards`` asks for a different worker count -- resumes
        the noise RNG from the snapshot's recorded state, and replays
        the tail records through the ordinary ingestion path.  The
        result is bit-identical to the uninterrupted run: same events,
        same noise draws, same TPL series, same alpha decisions (the
        crash-recovery parity suite enforces this on all three
        backends).  The log stays attached, so the recovered session
        keeps appending where the crashed one stopped.
        """
        from ..durability.wal import WriteAheadLog, decode_rng_state

        directory = wal_dir if wal_dir is not None else config.wal_dir
        if directory is None:
            raise ValueError(
                "no WAL directory: pass one or set SessionConfig.wal_dir"
            )
        wal = WriteAheadLog.open(
            directory, fsync=config.wal_fsync, registry=registry
        )
        records = wal.tail_records()
        cache = (
            SolutionCache(maxsize=config.cache_size)
            if config.cache_size is not None
            else SolutionCache()
        )
        if wal.snapshot_path is not None:
            backend = cls._restore_backend(
                config, wal.snapshot_path, cache=cache, registry=registry
            )
            session = cls(
                config, backend=backend, cache=cache, registry=registry, wal=wal
            )
            if wal.rng_state is not None:
                session._rng.bit_generator.state = decode_rng_state(
                    wal.rng_state
                )
            session._last_compact_horizon = wal.snapshot_horizon
        else:
            session = cls(config, cache=cache, registry=registry, wal=wal)
        session._replay(records)
        if wal.partitions != getattr(session._backend, "n_shards", 1):
            # Recovery re-sharded the backend; rewrite the log for the
            # new partition layout so future appends split correctly.
            session.compact_wal()
        return session

    @classmethod
    def restore(
        cls, config: SessionConfig, directory, *, registry=None
    ) -> "ReleaseSession":
        """Rebuild a session from a checkpoint written by any backend.

        The accounting state (and therefore every leakage query) is
        restored bit-for-bit; the event log is not checkpointed -- events
        describe what *this process* emitted.  The backend kind (scalar,
        fleet, or sharded fleet) is read off the checkpoint; an explicit,
        conflicting ``SessionConfig.backend`` is an error (checkpoints do
        not convert between backends), while ``"auto"`` accepts whatever
        is on disk.  Fleet and sharded checkpoints may be restored at a
        *different* ``config.shards``: the checkpoint is resharded by
        cohort content-hash first (:func:`~repro.durability.reshard.
        reshard_checkpoint`), bit-identically.  Scalar checkpoints cannot
        be sharded.  When ``directory`` holds a write-ahead log rather
        than a bare checkpoint, this delegates to :meth:`recover`.
        """
        from ..durability.wal import is_wal_dir

        directory = Path(directory)
        if is_wal_dir(directory):
            return cls.recover(config, directory, registry=registry)
        cache = (
            SolutionCache(maxsize=config.cache_size)
            if config.cache_size is not None
            else SolutionCache()
        )
        backend = cls._restore_backend(
            config, directory, cache=cache, registry=registry
        )
        return cls(config, backend=backend, cache=cache, registry=registry)

    @classmethod
    def _restore_backend(
        cls, config: SessionConfig, directory, *, cache, registry
    ) -> AccountantBackend:
        """Build the backend a checkpoint describes, resharding fleet /
        sharded checkpoints when ``config.shards`` conflicts."""
        from .sharding import SHARD_MANIFEST_NAME, ShardedFleetBackend

        directory = Path(directory)
        if (directory / SCALAR_MANIFEST_NAME).exists():
            kind = "scalar"
        elif (directory / SHARD_MANIFEST_NAME).exists():
            kind = "sharded"
        else:
            kind = "fleet"
        # Sharding rides the fleet engine, so a sharded checkpoint
        # satisfies a config pinned to "fleet" (and vice versa is an
        # error handled below via the shards count).
        pinned = config.backend
        if pinned not in ("auto", "fleet" if kind == "sharded" else kind):
            raise ValueError(
                f"checkpoint in {directory} was written by the {kind} "
                f"backend but the config pins backend="
                f"{pinned!r}; checkpoints do not convert between "
                "backends"
            )
        if kind == "scalar":
            if config.shards > 1:
                raise ValueError(
                    f"checkpoint in {directory} was written by the scalar "
                    f"backend but the config requests shards="
                    f"{config.shards}; scalar checkpoints cannot be "
                    "sharded (restore through the fleet backend instead)"
                )
            return ScalarAccountantBackend.restore(
                directory,
                config.user_correlations(),
                cache=cache,
                registry=registry,
            )
        if kind == "sharded":
            import json

            try:
                manifest = json.loads(
                    (directory / SHARD_MANIFEST_NAME).read_text(
                        encoding="utf-8"
                    )
                )
            except ValueError as error:
                raise ValueError(
                    f"torn or corrupt shard manifest in {directory}; "
                    "refusing to restore"
                ) from error
            saved = int(manifest.get("shards", 0))
            if config.shards > 1 and config.shards != saved:
                return cls._restore_resharded(
                    directory,
                    config.shards,
                    cache=cache,
                    registry=registry,
                    transport=config.shard_transport,
                    shard_addresses=config.shard_addresses,
                )
            return ShardedFleetBackend.restore(
                directory,
                cache=cache,
                shards=config.shards if config.shards > 1 else None,
                registry=registry,
                transport=config.shard_transport,
                shard_addresses=config.shard_addresses,
            )
        if config.shards > 1:
            return cls._restore_resharded(
                directory,
                config.shards,
                cache=cache,
                registry=registry,
                transport=config.shard_transport,
                shard_addresses=config.shard_addresses,
            )
        return FleetAccountantBackend.restore(
            directory, cache=cache, registry=registry
        )

    @classmethod
    def _restore_resharded(
        cls,
        directory,
        shards: int,
        *,
        cache,
        registry,
        transport="pipe",
        shard_addresses=None,
    ) -> AccountantBackend:
        """Reshard a checkpoint into a scratch directory and restore the
        sharded backend from it.  The backend owns the scratch copy and
        removes it on close: until its next checkpoint, that copy is
        what a dead worker is rebuilt from."""
        import tempfile

        from ..durability.reshard import reshard_checkpoint
        from .sharding import ShardedFleetBackend

        scratch = tempfile.TemporaryDirectory(prefix="repro-reshard-")
        try:
            reshard_checkpoint(directory, scratch.name, shards)
            backend = ShardedFleetBackend.restore(
                scratch.name,
                cache=cache,
                registry=registry,
                transport=transport,
                shard_addresses=shard_addresses,
            )
        except BaseException:
            scratch.cleanup()
            raise
        backend._owned_dir = scratch
        return backend

    def __repr__(self) -> str:
        return (
            f"ReleaseSession(backend={self._backend.name!r}, "
            f"users={self._backend.n_users}, horizon={self.horizon}, "
            f"alpha={self._policy.alpha}, mode={self._policy.mode!r})"
        )

"""Bounded asynchronous ingestion with backpressure and window coalescing.

The accounting recursions are strictly sequential -- FPL of every past
time point depends on every later release -- so a release service cannot
simply fan snapshots out to worker threads.  What it *can* do is decouple
producers (request handlers, shard feeds) from the single accounting
consumer: :class:`BoundedIngestQueue` is an ``asyncio`` FIFO with a hard
bound.  ``await submit(...)`` parks the producer while the queue is full
(backpressure) and resolves with that item's result once the drain task
has processed it, in submission order.

When a ``process_batch`` callable is configured, the drain task coalesces
up to ``batch_size`` queued items per round and hands them over together
-- the seam the windowed ingestion API
(:meth:`~repro.service.session.ReleaseSession.ingest_window`) plugs into:
whenever producers outpace the accounting consumer, the backlog is
drained as one :class:`~repro.service.window.ReleaseWindow` instead of
one backend round-trip per item.

The consumer callables run on a dedicated single-thread executor (the
queue's *lane*), never on the event loop thread.  Ordering is strict --
the drain task awaits each round before starting the next, so the
sequential recursion order is preserved -- and the loop stays free for
I/O while a round computes: connection readers keep filling the queue,
so the next round coalesces a *real* backlog instead of whatever
trickled in between loop stalls.
Result delivery (future resolution) always happens on the owning loop.

A ``commit`` callable turns the drain into a group-commit pipeline:
results of processed rounds are parked until ``commit()`` runs -- once
per burst, when the backlog empties (or ``maxsize`` results are parked)
-- and only then delivered.  The session uses this for
``wal_fsync="batch"``: many drained windows share one fsync, and no
submitter is acknowledged before its window is durable.

This is deliberately the seam the sharding work plugs into: with
``SessionConfig(shards=N)`` the windows drained here enter a
:class:`~repro.service.sharding.ShardedFleetBackend`, whose coordinator
scatters each one across worker processes and gathers the per-shard
worst-TPL series -- nothing upstream of the queue changed.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, List, Optional, Tuple

from ..obs.metrics import NULL_REGISTRY

__all__ = ["BoundedIngestQueue", "QueueClosed"]


class QueueClosed(RuntimeError):
    """Raised by :meth:`BoundedIngestQueue.submit` calls that race an
    in-progress :meth:`BoundedIngestQueue.close`.

    Without this, a submission arriving while ``close()`` is tearing the
    drain task down could enqueue an item nobody will ever process and
    park its producer on a future nobody will ever resolve.
    """


class BoundedIngestQueue:
    """FIFO queue + single drain task in front of a sequential consumer.

    Parameters
    ----------
    process:
        Synchronous callable applied to each submitted item by the drain
        task.  Exceptions it raises are delivered to the submitting
        awaiter, not swallowed.  It runs on the queue's lane thread (as
        do ``process_batch`` and ``commit``), so it must not touch the
        event loop.
    maxsize:
        Queue bound; ``submit`` blocks (asynchronously) while the queue
        holds this many unprocessed items.
    batch_size:
        Maximum number of queued items the drain task coalesces per
        round when ``process_batch`` is given.
    process_batch:
        Optional synchronous callable receiving a *list* of items and
        returning one result per item, in order.  When set it replaces
        ``process`` for every drained round (including single-item ones)
        so every item takes the same code path.  It must be atomic on
        failure -- raise before mutating any state, as the session's
        window validation does -- because when it raises, the round is
        retried item by item through ``process`` so that one poisoned
        submission fails alone instead of failing its whole batch.
    commit:
        Optional synchronous group-commit hook.  When set, results of a
        drained round are withheld until ``commit()`` has run; it runs
        once the backlog is empty (or ``maxsize`` results are parked),
        so a burst of rounds shares a single commit.  If ``commit``
        raises, every withheld submitter whose round succeeded receives
        that exception instead of a result -- nobody is acknowledged
        for work that failed to commit.

    Notes
    -----
    The queue binds to the running event loop on first ``submit`` and
    must not be shared across loops: a ``submit`` from any other loop
    raises ``RuntimeError`` immediately (the queue and its drain task
    live on the owning loop, so a foreign-loop future would hang or
    crash with ``attached to a different loop`` deep inside asyncio).
    After ``close`` the binding is released and the next ``submit``
    re-binds to its loop.

    Entries whose submitter has gone away (the awaiting task was
    cancelled) are *skipped*, not processed: charging the consumer --
    for a release session, spending privacy budget -- on behalf of an
    abandoned request would mutate state nobody observes, and any
    exception it raised would vanish.  Skipped entries are excluded from
    coalesced batches and counted in :meth:`stats` as ``cancelled``.

    ``close`` drains outstanding items before stopping, so no submitted
    work is lost on shutdown; submissions that arrive *while* ``close``
    is in progress raise :class:`QueueClosed` instead of being stranded.
    ``high_watermark`` records the deepest backlog observed and
    ``batch_high_watermark`` the largest coalesced batch -- the two
    numbers operators use to size ``maxsize`` and the session's
    ``window_size``.
    """

    def __init__(
        self,
        process: Callable[[Any], Any],
        maxsize: int = 64,
        *,
        batch_size: int = 1,
        process_batch: Optional[Callable[[List[Any]], List[Any]]] = None,
        registry=None,
        commit: Optional[Callable[[], None]] = None,
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self._process = process
        self._process_batch = process_batch
        self._registry = registry if registry is not None else NULL_REGISTRY
        self._maxsize = maxsize
        self._batch_size = batch_size
        self._commit = commit
        self._executor = None  # the lane thread, created on first drain
        self._pending: list = []  # (live, outcomes) awaiting commit
        self._pending_items = 0
        self._queue: Optional[asyncio.Queue] = None
        self._drain_task: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._in_flight = 0  # submitters between entry and result delivery
        self._closing = False
        self.submitted = 0
        self.processed = 0
        self.cancelled = 0
        self.group_commits = 0
        self.high_watermark = 0
        self.batch_high_watermark = 0

    @property
    def maxsize(self) -> int:
        return self._maxsize

    @property
    def batch_size(self) -> int:
        return self._batch_size

    @property
    def depth(self) -> int:
        """Items currently queued (unprocessed)."""
        return 0 if self._queue is None else self._queue.qsize()

    def stats(self) -> dict:
        """Operational counters, for session summaries and dashboards.
        ``processed`` counts entries actually handed to the consumer;
        ``cancelled`` counts entries skipped because their submitter
        abandoned them first (``submitted == processed + cancelled``
        once fully drained)."""
        return {
            "maxsize": self._maxsize,
            "batch_size": self._batch_size,
            "depth": self.depth,
            "submitted": self.submitted,
            "processed": self.processed,
            "cancelled": self.cancelled,
            "group_commits": self.group_commits,
            "high_watermark": self.high_watermark,
            "batch_high_watermark": self.batch_high_watermark,
        }

    async def submit(self, item: Any) -> Any:
        """Enqueue ``item`` and wait for its result.

        Applies backpressure: when the queue is full this parks until the
        drain task frees a slot.  Results (or exceptions) are delivered
        per item, in FIFO order.  Raises :class:`QueueClosed` when called
        while :meth:`close` is in progress.
        """
        if self._closing:
            raise QueueClosed("queue is closing; submission rejected")
        loop = asyncio.get_running_loop()
        if self._queue is not None and loop is not self._loop:
            raise RuntimeError(
                "BoundedIngestQueue is bound to a different event loop; "
                "it binds to the loop of its first submit -- create one "
                "queue per loop (or close() it before reusing elsewhere)"
            )
        self._ensure_started()
        assert self._queue is not None
        future: asyncio.Future = loop.create_future()
        self._in_flight += 1
        registry = self._registry
        if registry.enabled and self._queue.full():
            registry.counter("queue.backpressure_stalls").inc()
        try:
            t0 = time.perf_counter() if registry.enabled else 0.0
            await self._queue.put((item, future, t0))
            self.submitted += 1
            self.high_watermark = max(
                self.high_watermark, self._queue.qsize()
            )
            if registry.enabled:
                registry.timeseries("queue.depth").record(self._queue.qsize())
            return await future
        finally:
            self._in_flight -= 1

    async def close(self) -> None:
        """Drain every outstanding item, then stop the drain task.

        Idempotent; a fully closed queue restarts on the next
        :meth:`submit`.  Producers already parked when ``close`` begins
        are drained normally; *new* submissions racing the close raise
        :class:`QueueClosed` rather than hanging on a dying queue.
        """
        if self._queue is None:
            return
        self._closing = True
        try:
            # join() alone can return while a producer is still parked
            # inside put() (the drain's final get() frees the slot before
            # the parked putter runs), so keep draining until no submitter
            # is in flight -- otherwise cancelling the drain task would
            # strand that producer on a future nobody will ever resolve.
            while self._in_flight or not self._queue.empty():
                await self._queue.join()
                await asyncio.sleep(0)
            assert self._drain_task is not None
            self._drain_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._drain_task
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None
            self._queue = None
            self._drain_task = None
            self._loop = None
        finally:
            self._closing = False

    def _ensure_started(self) -> None:
        if self._queue is None:
            self._loop = asyncio.get_running_loop()
            if self._executor is None:
                # One thread exactly: the lane.  Rounds stay strictly
                # sequential because the drain task awaits each one, so
                # the single worker is an ordering guarantee, not a cap.
                self._executor = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="repro-lane"
                )
            self._queue = asyncio.Queue(maxsize=self._maxsize)
            self._drain_task = self._loop.create_task(self._drain())

    def _next_batch(self, first) -> list:
        """Coalesce up to ``batch_size`` queued entries, FIFO."""
        assert self._queue is not None
        batch = [first]
        while len(batch) < self._batch_size:
            try:
                batch.append(self._queue.get_nowait())
            except asyncio.QueueEmpty:
                break
        self.batch_high_watermark = max(
            self.batch_high_watermark, len(batch)
        )
        return batch

    def _finish(self, count: int) -> None:
        assert self._queue is not None
        for _ in range(count):
            self.processed += 1
            self._queue.task_done()

    def _skip_cancelled(self, count: int = 1) -> None:
        """Account for entries dropped because their submitter abandoned
        them: they are done as far as the queue is concerned, but the
        consumer never saw them."""
        assert self._queue is not None
        self._registry.counter("queue.cancelled").inc(count)
        for _ in range(count):
            self.cancelled += 1
            self._queue.task_done()

    def _observe_wait(self, entries) -> None:
        """Record how long each entry sat queued before reaching the
        consumer (only meaningful -- and only measured -- when a real
        registry stamped the submission)."""
        if not self._registry.enabled:
            return
        now = time.perf_counter()
        waits = self._registry.histogram("queue.wait.seconds")
        for entry in entries:
            waits.observe(now - entry[2])

    def _run_round(self, items: list) -> List[Tuple[str, Any]]:
        """Consumer side of one drained round: pure compute, no future or
        event-loop access, so it can run on the lane thread unchanged.
        Returns one ``("ok", result)`` / ``("error", exception)`` outcome
        per item, in order, and never raises.
        """
        if self._process_batch is not None:
            try:
                results = self._process_batch(list(items))
                if len(results) != len(items):
                    raise RuntimeError(
                        f"process_batch returned {len(results)} results "
                        f"for {len(items)} items"
                    )
            except BaseException:  # noqa: BLE001 -- retried per item below
                # process_batch raises before mutating state (its
                # documented contract), so the whole round can be retried
                # item by item: healthy submissions succeed exactly as
                # they would have with batch_size=1, and only the
                # poisoned one receives its exception.
                pass
            else:
                return [("ok", result) for result in results]
        outcomes: List[Tuple[str, Any]] = []
        for item in items:
            try:
                outcomes.append(("ok", self._process(item)))
            except BaseException as error:  # noqa: BLE001 -- relayed below
                outcomes.append(("error", error))
        return outcomes

    def _deliver(self, live: list, outcomes: List[Tuple[str, Any]]) -> None:
        """Resolve each submitter's future from its round outcome.  Runs
        on the owning loop (futures are not thread-safe).  A submitter
        that cancelled while its round was computing is simply not
        resolved."""
        for entry, (status, value) in zip(live, outcomes):
            future = entry[1]
            if future.cancelled():
                continue
            if status == "ok":
                future.set_result(value)
            else:
                future.set_exception(value)
        self._finish(len(live))

    async def _flush_pending(self) -> None:
        """Group commit: run ``commit`` once for every parked round, then
        deliver all withheld results.  On commit failure, submitters whose
        rounds *succeeded* get the commit exception instead -- their work
        is not durable, so acknowledging it would lie."""
        pending, self._pending = self._pending, []
        self._pending_items = 0
        commit_error: Optional[BaseException] = None
        try:
            await self._loop.run_in_executor(self._executor, self._commit)
        except BaseException as error:  # noqa: BLE001 -- relayed below
            commit_error = error
            self._registry.counter("queue.commit_failures").inc()
        else:
            self.group_commits += 1
            self._registry.counter("queue.group_commits").inc()
        for live, outcomes in pending:
            if commit_error is not None:
                outcomes = [
                    ("error", commit_error) if status == "ok" else (status, value)
                    for status, value in outcomes
                ]
            self._deliver(live, outcomes)

    async def _drain(self) -> None:
        assert self._queue is not None
        while True:
            first = await self._queue.get()
            if self._process_batch is None:
                batch = [first]
            else:
                batch = self._next_batch(first)
            # Cancelled submitters never reach the consumer: their
            # entries are excluded from the round up front (processing
            # them would spend budget nobody observes).
            live = []
            for entry in batch:
                if entry[1].cancelled():
                    self._skip_cancelled()
                else:
                    live.append(entry)
            if live:
                self._observe_wait(live)
                items = [entry[0] for entry in live]
                # The loop is free while the lane computes: readers keep
                # enqueuing, so the *next* round coalesces a real backlog.
                outcomes = await self._loop.run_in_executor(
                    self._executor, self._run_round, items
                )
                if self._commit is None:
                    self._deliver(live, outcomes)
                else:
                    self._pending.append((live, outcomes))
                    self._pending_items += len(live)
            # Commit once per burst: when the backlog empties (or enough
            # results are parked), not once per round.  Checked even on
            # all-cancelled rounds so parked results can't be stranded.
            if self._pending and (
                self._queue.empty() or self._pending_items >= self._maxsize
            ):
                await self._flush_pending()

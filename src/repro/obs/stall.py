"""Event-loop stall watchdog.

The serve path's whole premise is that the asyncio loop stays free for
I/O while accounting computes on the session lanes
(:class:`~repro.service.async_ingest.BoundedIngestQueue` runs its
consumer on a lane thread).  :class:`EventLoopStallMonitor` makes that
claim measurable instead of aspirational: a sampler task sleeps
``interval`` seconds and records how much *longer* than that the loop
took to wake it -- the time some callback held the loop hostage.  A
serve run should show stalls bounded by the GIL switch interval
(single-digit milliseconds); accounting on the loop thread would show
stalls the size of a backend round-trip.

Samples land in a registry ring-buffer timeseries (default name
``loop.stall.seconds``), so the gauge shows up in ``/metrics`` and
session summaries like every other metric; ``max_stall`` is also kept
locally so callers without a registry (the load generator, benchmarks)
can read the worst case directly.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Optional

__all__ = ["EventLoopStallMonitor"]


class EventLoopStallMonitor:
    """Sample event-loop scheduling latency from inside the loop.

    Parameters
    ----------
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; when given
        (and enabled), every sample is recorded into
        ``registry.timeseries(name)`` so the high-water mark is exposed
        alongside the serve metrics.
    interval:
        Sampling period in seconds.  Stalls shorter than the interval
        are still measured exactly (the overshoot is additive); stalls
        *between* wake-ups that resolve before the next sleep finishes
        are attributed to that sleep.
    name:
        Timeseries name used in the registry.
    """

    def __init__(
        self,
        registry=None,
        *,
        interval: float = 0.02,
        name: str = "loop.stall.seconds",
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self._registry = registry
        self._interval = interval
        self._name = name
        self._task: Optional[asyncio.Task] = None
        self.samples = 0
        self.max_stall = 0.0

    def start(self) -> "EventLoopStallMonitor":
        """Begin sampling on the running loop (idempotent)."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())
        return self

    async def stop(self) -> float:
        """Stop sampling; returns the worst stall observed (seconds)."""
        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
            self._task = None
        return self.max_stall

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        series = None
        if self._registry is not None and self._registry.enabled:
            series = self._registry.timeseries(self._name)
        while True:
            before = loop.time()
            await asyncio.sleep(self._interval)
            stall = max(0.0, loop.time() - before - self._interval)
            self.samples += 1
            if stall > self.max_stall:
                self.max_stall = stall
            if series is not None:
                series.record(stall)

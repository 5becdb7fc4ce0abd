"""Dependency-free metrics substrate: counters, gauges, histograms, spans.

Every layer of the serving stack -- session, ingest queue, backends,
fleet engine, solvers -- reports into one :class:`MetricsRegistry`:

* :class:`Counter` / :class:`Gauge` -- monotonic event counts and
  last-value readings;
* :class:`Histogram` -- fixed log-spaced latency buckets *plus* a bounded
  exact-sample reservoir, so ``percentile(50/99/99.9)`` is exact until
  the reservoir saturates and degrades gracefully (bucket upper bounds,
  capped at the observed maximum) afterwards;
* :class:`Timeseries` -- a ring buffer of recent readings (queue depth
  over time) with an all-time high-water mark;
* ``with registry.span("solver.dinkelbach"): ...`` -- a timer recording
  elapsed seconds into the histogram of that name.

Instrumentation must be structurally zero-cost to correctness: the
default registry everywhere is :data:`NULL_REGISTRY`, whose metrics are
shared no-op singletons, so un-instrumented runs execute the same float
operations as instrumented ones (the metrics parity suite pins
bit-identical events, noise and TPL series either way).

Snapshots (:meth:`MetricsRegistry.snapshot`) are JSON-safe dicts -- what
``ReleaseSession.summary()["metrics"]`` and ``repro serve
--stats-interval`` surface -- and :meth:`MetricsRegistry.to_prometheus`
renders the registry in the Prometheus text exposition format.

Lane threads write into one shared registry while the event loop
scrapes it.  Creating a series is atomic (``dict.setdefault``), so two
threads creating the same series share one object, and scrapes iterate
a copy of the series tables, so a series created mid-scrape cannot break
the iteration.  Recording into an existing series takes no lock; each
series' readings are only as consistent as the interleaving of its
writers allows.  Shard workers never share a registry across processes.
"""

from __future__ import annotations

import math
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timeseries",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
    "DEFAULT_RESERVOIR",
    "PROMETHEUS_CONTENT_TYPE",
]

#: The Content-Type a scraper expects for :meth:`MetricsRegistry.
#: to_prometheus` output (served by ``GET /metrics`` on a
#: ``repro serve --listen`` front door).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Log-spaced latency bucket upper bounds, in seconds: 10us .. 500s in
#: 1 / 2.5 / 5 decade steps.  Values above the last bound land in the
#: overflow bucket (rendered ``+Inf`` in the Prometheus exposition).
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    m * 10.0**e for e in range(-5, 3) for m in (1.0, 2.5, 5.0)
)

#: Exact-sample reservoir bound per histogram.  Percentiles are exact
#: while at most this many observations have been recorded; beyond it
#: the readout falls back to bucket upper bounds.
DEFAULT_RESERVOIR = 8192


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self):
        return self.value


class Gauge:
    """A last-value reading (set, not accumulated)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self):
        return self.value


class Histogram:
    """Fixed-bucket distribution with an exact-percentile reservoir.

    Parameters
    ----------
    buckets:
        Strictly increasing upper bounds; observations above the last
        bound are counted in an implicit overflow bucket.
    reservoir:
        Exact-sample cap.  ``percentile(q)`` is exact (nearest-rank over
        every recorded observation) while ``count <= reservoir``; once
        the reservoir is full, further samples update only the buckets
        and percentiles degrade to bucket upper bounds, capped at the
        observed maximum (so a saturated overflow bucket still reports a
        real number, not infinity).
    """

    __slots__ = ("bounds", "counts", "overflow", "count", "total", "min",
                 "max", "_samples", "_reservoir")

    def __init__(
        self,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
        reservoir: int = DEFAULT_RESERVOIR,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ValueError("buckets must be non-empty and strictly increasing")
        if reservoir < 1:
            raise ValueError(f"reservoir must be >= 1, got {reservoir}")
        self.bounds = bounds
        self.counts = [0] * len(bounds)
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: List[float] = []
        self._reservoir = reservoir

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        lo, hi = 0, len(self.bounds)
        while lo < hi:  # first bound >= value
            mid = (lo + hi) // 2
            if self.bounds[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        if lo == len(self.bounds):
            self.overflow += 1
        else:
            self.counts[lo] += 1
        if len(self._samples) < self._reservoir:
            self._samples.append(value)

    def percentile(self, q: float) -> Optional[float]:
        """Nearest-rank percentile (``q`` in [0, 100]); ``None`` when
        empty.  Exact while the reservoir holds every observation, bucket
        upper bounds (capped at the observed max) afterwards."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        if self.count == 0:
            return None
        rank = max(1, math.ceil(q / 100.0 * self.count))
        if len(self._samples) == self.count:
            return sorted(self._samples)[rank - 1]
        cumulative = 0
        for bound, bucket_count in zip(self.bounds, self.counts):
            cumulative += bucket_count
            if cumulative >= rank:
                # self.max is not None once count > 0
                return min(bound, self.max)  # type: ignore[arg-type]
        return self.max  # rank falls in the overflow bucket

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p99": self.percentile(99.0),
            "p999": self.percentile(99.9),
        }


class Timeseries:
    """A ring buffer of recent readings with an all-time high-water mark
    (queue depth over time is the canonical use)."""

    __slots__ = ("_ring", "count", "high_watermark")

    def __init__(self, maxlen: int = 1024) -> None:
        if maxlen < 1:
            raise ValueError(f"maxlen must be >= 1, got {maxlen}")
        self._ring: deque = deque(maxlen=maxlen)
        self.count = 0
        self.high_watermark: Optional[float] = None

    def record(self, value: float) -> None:
        value = float(value)
        self._ring.append(value)
        self.count += 1
        if self.high_watermark is None or value > self.high_watermark:
            self.high_watermark = value

    @property
    def last(self) -> Optional[float]:
        return self._ring[-1] if self._ring else None

    @property
    def recent(self) -> List[float]:
        return list(self._ring)

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "last": self.last,
            "high_watermark": self.high_watermark,
            "recent": self.recent,
        }


def _render_name(name: str, labels: Dict[str, object]) -> str:
    if not labels:
        return name
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


def _prom_name(name: str) -> str:
    """A metric name in the Prometheus grammar (dots -> underscores)."""
    return "".join(
        c if c.isalnum() or c == "_" else "_" for c in name
    )


class MetricsRegistry:
    """One process-local namespace of named metrics.

    Metrics are created on first use and keyed by rendered name --
    ``name`` plus sorted ``key="value"`` labels -- so
    ``registry.counter("rpc", shard=0)`` and ``shard=1`` are distinct
    series.  Re-requesting a name returns the same object; requesting it
    as a different metric kind is an error.
    """

    enabled = True

    def __init__(self) -> None:
        self._metrics: "Dict[str, object]" = {}
        self._gauge_fns: Dict[str, Callable[[], object]] = {}

    def _get(self, name: str, labels: Dict[str, object], kind, factory):
        key = _render_name(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            # Atomic under the GIL: a racing creator gets the winner's
            # object instead of orphaning its own increments.
            metric = self._metrics.setdefault(key, factory())
        if not isinstance(metric, kind):
            raise TypeError(
                f"metric {key!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(name, labels, Counter, Counter)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(name, labels, Gauge, Gauge)

    def histogram(
        self,
        name: str,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
        **labels,
    ) -> Histogram:
        return self._get(name, labels, Histogram, lambda: Histogram(buckets))

    def timeseries(self, name: str, maxlen: int = 1024, **labels) -> Timeseries:
        return self._get(name, labels, Timeseries, lambda: Timeseries(maxlen))

    def gauge_fn(self, name: str, fn: Callable[[], object], **labels) -> None:
        """Register a callable evaluated lazily at snapshot/exposition
        time (cache hit counts, queue depths -- state that already lives
        somewhere and should not be mirrored on every mutation)."""
        self._gauge_fns[_render_name(name, labels)] = fn

    @contextmanager
    def span(self, name: str, **labels):
        """Time a block into the histogram called ``name`` (seconds)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.histogram(name, **labels).observe(
                time.perf_counter() - start
            )

    def snapshot(self) -> dict:
        """JSON-safe ``{rendered name -> value}`` snapshot: counters and
        gauges as scalars, histograms/timeseries as dicts, gauge
        functions evaluated now."""
        out = {
            key: metric.snapshot()
            for key, metric in dict(self._metrics).items()
        }
        for key, fn in dict(self._gauge_fns).items():
            out[key] = fn()
        return out

    def to_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format."""
        lines: List[str] = []
        metrics = dict(self._metrics)
        gauge_fns = dict(self._gauge_fns)
        for key in sorted(set(metrics) | set(gauge_fns)):
            name, _, labels = key.partition("{")
            labels = ("{" + labels) if labels else ""
            base = _prom_name(name)
            metric = metrics.get(key)
            if metric is None:  # gauge function
                value = gauge_fns[key]()
                if isinstance(value, dict):
                    for field, v in value.items():
                        if isinstance(v, (int, float)) and v is not True:
                            lines.append(f"# TYPE {base}_{_prom_name(str(field))} gauge")
                            lines.append(f"{base}_{_prom_name(str(field))}{labels} {v}")
                elif isinstance(value, (int, float)):
                    lines.append(f"# TYPE {base} gauge")
                    lines.append(f"{base}{labels} {value}")
            elif isinstance(metric, Counter):
                lines.append(f"# TYPE {base} counter")
                lines.append(f"{base}{labels} {metric.value}")
            elif isinstance(metric, Gauge):
                lines.append(f"# TYPE {base} gauge")
                lines.append(f"{base}{labels} {metric.value if metric.value is not None else 'NaN'}")
            elif isinstance(metric, Timeseries):
                lines.append(f"# TYPE {base} gauge")
                last = metric.last
                lines.append(f"{base}{labels} {last if last is not None else 'NaN'}")
                hwm = metric.high_watermark
                lines.append(f"# TYPE {base}_high_watermark gauge")
                lines.append(
                    f"{base}_high_watermark{labels} "
                    f"{hwm if hwm is not None else 'NaN'}"
                )
            elif isinstance(metric, Histogram):
                lines.append(f"# TYPE {base} histogram")
                inner = labels[1:-1] if labels else ""
                cumulative = 0
                for bound, count in zip(metric.bounds, metric.counts):
                    cumulative += count
                    le = f'le="{bound}"'
                    joined = f"{inner},{le}" if inner else le
                    lines.append(f"{base}_bucket{{{joined}}} {cumulative}")
                le = 'le="+Inf"'
                joined = f"{inner},{le}" if inner else le
                lines.append(f"{base}_bucket{{{joined}}} {metric.count}")
                lines.append(f"{base}_sum{labels} {metric.total}")
                lines.append(f"{base}_count{labels} {metric.count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(metrics={len(self._metrics)}, "
            f"gauge_fns={len(self._gauge_fns)})"
        )


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class _NullTimeseries(Timeseries):
    __slots__ = ()

    def record(self, value: float) -> None:
        pass


@contextmanager
def _null_span():
    yield


class NullRegistry(MetricsRegistry):
    """The zero-cost default: every accessor returns a shared no-op
    metric, spans time nothing, snapshots are empty.  ``enabled`` is the
    cheap guard call sites use to skip building metric inputs entirely.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._counter = _NullCounter()
        self._gauge = _NullGauge()
        self._histogram = _NullHistogram()
        self._timeseries = _NullTimeseries()

    def counter(self, name: str, **labels) -> Counter:
        return self._counter

    def gauge(self, name: str, **labels) -> Gauge:
        return self._gauge

    def histogram(self, name: str, buckets=DEFAULT_BUCKETS, **labels) -> Histogram:
        return self._histogram

    def timeseries(self, name: str, maxlen: int = 1024, **labels) -> Timeseries:
        return self._timeseries

    def gauge_fn(self, name: str, fn, **labels) -> None:
        pass

    def span(self, name: str, **labels):
        return _null_span()

    def snapshot(self) -> dict:
        return {}

    def to_prometheus(self) -> str:
        return ""

    def __repr__(self) -> str:
        return "NullRegistry()"


#: The process-wide no-op registry handed to every un-instrumented layer.
NULL_REGISTRY = NullRegistry()

"""Unit tests for the observability substrate (:mod:`repro.obs`).

Covers the metric primitives' edge cases (empty / single-sample /
saturated-reservoir histogram percentiles), the registry contract
(identity, labels, kind mismatch, Prometheus exposition, the null
registry, scrapes racing lane threads that create series), queue
counters surviving session close, and the open-loop
load generator's arrival schedules and report shape.
"""

import asyncio
import math
import sys
import threading

import numpy as np
import pytest

from repro.core import max_log_ratio_batch, max_log_ratio_stacked
from repro.markov import two_state_matrix, uniform_matrix
from repro.obs import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Timeseries,
    install_solver_metrics,
    solver_metrics,
)
from repro.obs.loadgen import arrival_offsets, run_loadgen
from repro.service import ReleaseSession, SessionConfig

# ---------------------------------------------------------------------------
# Histogram percentile edge cases


def test_histogram_empty_percentiles_are_none():
    h = Histogram()
    assert h.count == 0
    assert h.percentile(50.0) is None
    assert h.mean is None
    snap = h.snapshot()
    assert snap == {
        "count": 0,
        "sum": 0.0,
        "min": None,
        "max": None,
        "mean": None,
        "p50": None,
        "p99": None,
        "p999": None,
    }


def test_histogram_single_sample_every_percentile_is_it():
    h = Histogram()
    h.observe(0.125)
    for q in (0.0, 50.0, 99.0, 99.9, 100.0):
        assert h.percentile(q) == 0.125
    assert h.min == h.max == 0.125
    assert h.mean == 0.125


def test_histogram_exact_until_reservoir_saturates():
    h = Histogram(buckets=(1.0, 2.0), reservoir=4)
    for value in (0.5, 0.25, 0.75, 0.125):
        h.observe(value)
    # Reservoir complete: nearest-rank exact percentiles.
    assert h.percentile(50.0) == 0.25
    assert h.percentile(100.0) == 0.75
    # Saturate: further samples update buckets only.
    h.observe(1.5)
    h.observe(5.0)  # overflow bucket
    assert h.count == 6
    # Degraded readout: bucket upper bounds, capped at the observed max.
    assert h.percentile(50.0) == 1.0  # rank 3 in the <=1.0 bucket
    assert h.percentile(99.9) == 5.0  # rank 6 lands in overflow -> max
    assert h.max == 5.0


def test_histogram_saturated_overflow_caps_at_observed_max():
    """A histogram whose every sample overflows the last bound must still
    report a finite observed number, not the bound or infinity."""
    h = Histogram(buckets=(1e-6,), reservoir=1)
    h.observe(7.0)
    h.observe(9.0)  # reservoir already full
    assert h.overflow == 2
    assert h.percentile(50.0) == 9.0
    assert h.percentile(99.9) == 9.0


def test_histogram_validation():
    with pytest.raises(ValueError):
        Histogram(buckets=())
    with pytest.raises(ValueError):
        Histogram(buckets=(1.0, 1.0))
    with pytest.raises(ValueError):
        Histogram(buckets=(2.0, 1.0))
    with pytest.raises(ValueError):
        Histogram(reservoir=0)
    h = Histogram()
    with pytest.raises(ValueError):
        h.percentile(-1.0)
    with pytest.raises(ValueError):
        h.percentile(100.1)


def test_default_buckets_strictly_increasing():
    assert all(
        b2 > b1 for b1, b2 in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:])
    )
    assert DEFAULT_BUCKETS[0] == pytest.approx(1e-5)
    assert DEFAULT_BUCKETS[-1] == pytest.approx(500.0)


# ---------------------------------------------------------------------------
# Counter / Gauge / Timeseries


def test_counter_and_gauge():
    c = Counter()
    c.inc()
    c.inc(4)
    assert c.value == 5 == c.snapshot()
    g = Gauge()
    assert g.snapshot() is None
    g.set(2.5)
    g.set(1.5)
    assert g.snapshot() == 1.5


def test_timeseries_ring_and_high_watermark():
    ts = Timeseries(maxlen=3)
    for value in (1, 5, 2, 3):
        ts.record(value)
    assert ts.count == 4
    assert ts.recent == [5.0, 2.0, 3.0]  # ring evicted the first reading
    assert ts.last == 3.0
    assert ts.high_watermark == 5.0  # survives eviction
    with pytest.raises(ValueError):
        Timeseries(maxlen=0)


# ---------------------------------------------------------------------------
# Registry contract


def test_registry_identity_and_labels():
    registry = MetricsRegistry()
    assert registry.counter("hits") is registry.counter("hits")
    assert registry.counter("rpc", shard=0) is not registry.counter("rpc", shard=1)
    registry.counter("rpc", shard=0).inc()
    snap = registry.snapshot()
    assert snap['rpc{shard="0"}'] == 1
    assert snap['rpc{shard="1"}'] == 0


def test_registry_kind_mismatch_raises():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(TypeError):
        registry.histogram("x")


def test_registry_gauge_fn_evaluated_at_snapshot_time():
    registry = MetricsRegistry()
    state = {"hits": 0}
    registry.gauge_fn("cache", lambda: dict(state))
    state["hits"] = 7
    assert registry.snapshot()["cache"] == {"hits": 7}


def test_registry_span_times_into_histogram():
    registry = MetricsRegistry()
    with registry.span("op.seconds", kind="test"):
        pass
    h = registry.histogram("op.seconds", kind="test")
    assert h.count == 1
    assert h.max >= 0.0


def test_prometheus_exposition():
    registry = MetricsRegistry()
    registry.counter("session.events", status="released").inc(3)
    registry.histogram("op.seconds", buckets=(0.1, 1.0)).observe(0.05)
    registry.timeseries("queue.depth").record(4)
    registry.gauge("alpha").set(0.5)
    registry.gauge_fn("cache", lambda: {"hits": 2, "misses": 1})
    text = registry.to_prometheus()
    assert '# TYPE session_events counter' in text
    assert 'session_events{status="released"} 3' in text
    assert 'op_seconds_bucket{le="0.1"} 1' in text
    assert 'op_seconds_bucket{le="+Inf"} 1' in text
    assert "op_seconds_count 1" in text
    assert "queue_depth 4.0" in text
    assert "queue_depth_high_watermark 4.0" in text
    assert "alpha 0.5" in text
    assert "cache_hits 2" in text
    assert text.endswith("\n")


def test_null_registry_is_inert():
    assert not NULL_REGISTRY.enabled
    NULL_REGISTRY.counter("x").inc(10)
    NULL_REGISTRY.histogram("y").observe(1.0)
    NULL_REGISTRY.timeseries("z").record(1.0)
    NULL_REGISTRY.gauge("g").set(1.0)
    NULL_REGISTRY.gauge_fn("f", lambda: 1)
    with NULL_REGISTRY.span("s"):
        pass
    assert NULL_REGISTRY.snapshot() == {}
    assert NULL_REGISTRY.to_prometheus() == ""
    assert NULL_REGISTRY.counter("x").value == 0
    assert isinstance(NULL_REGISTRY, NullRegistry)


def test_registry_scrapes_while_threads_create_series():
    """Lane threads create series while the loop thread scrapes: no
    scrape may fail with "dictionary changed size during iteration", and
    writers racing to create one series must all land in the same one."""
    registry = MetricsRegistry()
    writers, series, rounds = 4, 100, 5
    errors: list = []
    scrapes = 0
    done = threading.Event()

    def write(w):
        for r in range(rounds):
            for i in range(series):
                registry.counter("shared", i=i).inc()
                registry.histogram("own.seconds", w=w, r=r, i=i).observe(1e-3)

    def scrape():
        nonlocal scrapes
        while not done.is_set():
            try:
                registry.snapshot()
                registry.to_prometheus()
            except RuntimeError as exc:
                errors.append(exc)
            scrapes += 1

    scraper = threading.Thread(target=scrape)
    threads = [threading.Thread(target=write, args=(w,)) for w in range(writers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        scraper.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        done.set()
        scraper.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in [scraper, *threads])
    assert scrapes > 0
    assert errors == []
    snap = registry.snapshot()
    for i in range(series):
        assert snap[f'shared{{i="{i}"}}'] == writers * rounds


def test_solver_metrics_hook_install_and_restore():
    assert solver_metrics() is None
    registry = MetricsRegistry()
    previous = install_solver_metrics(registry)
    try:
        assert previous is None
        assert solver_metrics() is registry
    finally:
        install_solver_metrics(previous)
    assert solver_metrics() is None


def test_solver_distinct_counts_swept_entries():
    """``solves`` counts the alphas a stacked call was asked for,
    ``distinct`` the entries it solved: each job's repeats once, and no
    zero alpha or matrix without a Corollary-2 candidate (both give 0.0
    unsolved).  One increment of each per call."""
    strong, weak = two_state_matrix(0.8, 0.1), two_state_matrix(0.6, 0.3)
    jobs = [
        (strong, [0.3, 0.3, 0.0, 1.0]),  # solved: 0.3, 1.0
        (weak, [0.3, 1.0, 1.0]),  # solved: 0.3, 1.0 (another job)
        (uniform_matrix(2), [0.5, 0.5]),  # no candidate: none
        (strong, []),
    ]
    registry = MetricsRegistry()
    previous = install_solver_metrics(registry)
    try:
        max_log_ratio_stacked(jobs)
        snap = registry.snapshot()
        assert snap["solver.algorithm1.solves"] == 9
        assert snap["solver.algorithm1.distinct"] == 4
        assert snap["solver.algorithm1.seconds"]["count"] == 1
        max_log_ratio_batch(strong, [0.2, 0.2, 0.2])
        snap = registry.snapshot()
    finally:
        install_solver_metrics(previous)
    assert snap["solver.algorithm1.solves"] == 12
    assert snap["solver.algorithm1.distinct"] == 5
    assert snap["solver.algorithm1.seconds"]["count"] == 2


# ---------------------------------------------------------------------------
# Queue counters survive close


def test_queue_counters_survive_session_close():
    P = two_state_matrix(0.8, 0.1)
    registry = MetricsRegistry()
    session = ReleaseSession(
        SessionConfig(
            correlations={u: (P, P) for u in range(3)},
            budgets=0.1,
            seed=0,
            window_size=4,
        ),
        registry=registry,
    )

    async def drive():
        async with session:
            await asyncio.gather(*(session.aingest() for _ in range(9)))

    asyncio.run(drive())
    summary = session.summary()
    queue = summary["queue"]
    assert queue["submitted"] == 9
    assert queue["processed"] == 9
    assert queue["cancelled"] == 0
    assert queue["high_watermark"] >= 1
    # The metrics block survives alongside it.
    metrics = summary["metrics"]
    assert metrics["queue.wait.seconds"]["count"] == 9
    assert metrics["queue.depth"]["count"] == 9
    assert metrics["session.events{status=\"released\"}"] == 9
    # And a second close is a no-op that keeps them readable.
    session.close()
    assert session.summary()["queue"]["submitted"] == 9


# ---------------------------------------------------------------------------
# Load generator


def test_arrival_offsets_constant_is_evenly_spaced():
    offsets = arrival_offsets("constant", 100.0, 5)
    assert offsets == pytest.approx([0.0, 0.01, 0.02, 0.03, 0.04])


def test_arrival_offsets_bursty_preserves_mean_rate():
    rate, count = 200.0, 64
    offsets = arrival_offsets("bursty", rate, count, burst=8, burst_factor=4.0)
    assert all(b > a for a, b in zip(offsets, offsets[1:]))
    # Burst starts are spaced at burst/rate; the mean rate is preserved.
    assert offsets[8] - offsets[0] == pytest.approx(8 / rate)
    # Inside a burst, arrivals come burst_factor times faster.
    assert offsets[1] - offsets[0] == pytest.approx(1 / (rate * 4.0))


def test_arrival_offsets_diurnal_monotone_and_rate_modulated():
    rate, count = 100.0, 200
    offsets = arrival_offsets("diurnal", rate, count, amplitude=0.5)
    assert all(b > a for a, b in zip(offsets, offsets[1:]))
    gaps = np.diff(offsets)
    # Modulation swings instantaneous rate within [rate*(1-a), rate*(1+a)].
    assert gaps.min() >= 1.0 / (rate * 1.5) - 1e-12
    assert gaps.max() <= 1.0 / (rate * 0.5) + 1e-12
    # ... and actually modulates (not constant).
    assert gaps.max() > gaps.min() * 1.5


def test_arrival_offsets_validation():
    with pytest.raises(ValueError):
        arrival_offsets("square-wave", 100.0, 5)
    with pytest.raises(ValueError):
        arrival_offsets("constant", 0.0, 5)
    with pytest.raises(ValueError):
        arrival_offsets("constant", 100.0, 0)
    with pytest.raises(ValueError):
        arrival_offsets("bursty", 100.0, 5, burst=0)
    with pytest.raises(ValueError):
        arrival_offsets("bursty", 100.0, 5, burst_factor=1.0)
    with pytest.raises(ValueError):
        arrival_offsets("diurnal", 100.0, 5, amplitude=1.0)
    with pytest.raises(ValueError):
        arrival_offsets("diurnal", 100.0, 5, period=0.0)
    with pytest.raises(ValueError):
        arrival_offsets("adversarial", 100.0, 5, backlog=1)


def test_arrival_offsets_adversarial_dumps_whole_volleys():
    rate, count, backlog = 100.0, 40, 16
    offsets = arrival_offsets("adversarial", rate, count, backlog=backlog)
    # Every arrival in a volley lands at the same instant...
    for volley in range(count // backlog):
        chunk = offsets[volley * backlog : (volley + 1) * backlog]
        assert chunk == [volley * backlog / rate] * len(chunk)
    # ...and the volley cadence preserves the average offered rate.
    assert offsets[backlog] - offsets[0] == pytest.approx(backlog / rate)


def test_run_loadgen_adversarial_engages_backpressure():
    report = run_loadgen(
        users=5,
        rate=5000.0,
        count=120,
        schedule="adversarial",
        window=4,
        queue_size=16,
        seed=0,
    )
    assert report["completed"] == 120
    assert report["errors"] == 0
    # The default backlog (2x the queue bound) overruns the queue on
    # every volley, so producers must have parked on backpressure.
    assert report["backlog"] == 32
    assert report["backpressure_stalls"] > 0


def test_run_loadgen_inprocess_report_shape():
    report = run_loadgen(
        users=5, rate=5000.0, count=40, window=4, queue_size=8, seed=0
    )
    assert report["completed"] == 40
    assert report["errors"] == 0
    latency = report["latency_ms"]
    assert latency["p50"] is not None and latency["p50"] > 0.0
    assert latency["p999"] >= latency["p99"] >= latency["p50"]
    assert report["offered_rate"] == 5000.0
    assert report["achieved_rate"] > 0.0
    assert report["queue"]["submitted"] == 40
    assert report["queue"]["high_watermark"] >= 1
    assert report["backpressure_stalls"] >= 0
    assert math.isfinite(report["duration_seconds"])
    # The full metrics snapshot rides along for offline analysis.
    assert "session.window.seconds" in report["metrics"]

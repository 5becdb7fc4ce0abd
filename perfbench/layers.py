"""Per-layer metrics of a traced run, computed from its spans.

Every metric is defined on every workload; a layer a workload bypasses
reads 0.  Spans are scoped to the measured phases: the session phase on
``horizon`` and ``clamp``, phases A and B on ``serve`` (plus the recovery
phase for ``durability.recover.*``).  See ``perfbench/README.md`` for
what each metric should move and where it should read flat.
"""

from __future__ import annotations

import bisect
import statistics

from perfbench.checks import ALPHA_TOL

#: name -> unit, in report order.
METRICS = {
    "core.solver.calls": "count",
    "core.solver.alphas": "count",
    "core.solver.cells": "count",
    "core.solver.busy_s": "s",
    "core.cache.hit_frac": "ratio",
    "fleet.window.sweep_depth": "count",
    "fleet.window.busy_s": "s",
    "fleet.probe.sweep_depth": "count",
    "fleet.probe.busy_s": "s",
    "service.policy.rounds": "count",
    "service.policy.candidates": "count",
    "service.policy.useful_frac": "ratio",
    "service.backend.calls_per_step": "count",
    "service.shard.worker_busy_s": "s",
    "service.shard.wait_s": "s",
    "service.scalar.busy_s": "s",
    "service.window.steps": "count",
    "service.lane.wait_frac": "ratio",
    "service.queue.wait_ms": "ms",
    "service.events.retained": "count",
    "durability.wal.appends": "count",
    "durability.wal.append_ms": "ms",
    "durability.wal.syncs": "count",
    "durability.wal.sync_ms": "ms",
    "durability.wal.syncs_per_request": "ratio",
    "durability.wal.bytes_per_step": "B",
    "durability.recover.records": "count",
    "durability.recover.busy_s": "s",
    "net.requests": "count",
    "net.errors": "count",
    "net.bytes_in": "B",
    "net.bytes_out": "B",
    "net.self_ms": "ms",
    "net.generator_lag_ms": "ms",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _top_level(spans) -> list:
    """The spans whose parent is not itself among ``spans``."""
    ids = {(s.pid, s.id) for s in spans}
    return [s for s in spans if (s.pid, s.parent) not in ids]


def useful_candidates(calls, alpha: float, resolution: float) -> int:
    """Candidates the clamp bisection actually walked, replaying the walk
    over each ``probe_scales`` call's recorded ``(scales, worsts)``.  A
    decision starts over whenever a call probes ``0.5`` (the root of
    ``[0, 1]``)."""
    useful = 0
    lo, hi = 0.0, 1.0
    for scales, worsts in calls:
        if scales and scales[0] == 0.5:
            lo, hi = 0.0, 1.0
        answers = dict(zip(scales, worsts))
        while hi - lo > resolution:
            mid = 0.5 * (lo + hi)
            if mid not in answers:
                break
            useful += 1
            if answers[mid] <= alpha + ALPHA_TOL:
                lo = mid
            else:
                hi = mid
    return useful


def shard_wait(coordinator, workers) -> float:
    """Coordinator backend wall time not covered by the slowest worker's
    CPU inside the same call, summed over calls: RPC, pickling and
    scheduling cost of the shard hop."""
    per_worker: dict = {}
    for span in workers:
        per_worker.setdefault(span.pid, []).append(span)
    for spans in per_worker.values():
        spans.sort(key=lambda s: s.t0)
    starts = {pid: [s.t0 for s in spans] for pid, spans in per_worker.items()}
    total = 0.0
    for call in coordinator:
        slowest = 0.0
        for pid, spans in per_worker.items():
            i = bisect.bisect_left(starts[pid], call.t0)
            busy = 0.0
            while i < len(spans) and spans[i].t0 < call.t1:
                if spans[i].t1 <= call.t1:
                    busy += spans[i].cpu or 0.0
                i += 1
            slowest = max(slowest, busy)
        total += max(0.0, call.wall - slowest)
    return total


def compute(workload: str, spanset, raw: dict) -> dict:
    """``{metric: value}`` for every name in :data:`METRICS`."""
    window = raw["trace_window"]
    spans = [s for s in spanset.spans if window[0] <= s.t0 <= window[1]]
    worker_pids = {
        pid for pid, label in spanset.processes.items() if label.startswith("worker-")
    }

    def named(prefix, pool=None):
        return [s for s in (spans if pool is None else pool) if s.name.startswith(prefix)]

    m = dict.fromkeys(METRICS, 0.0)

    solver = named("core.solver.")
    m["core.solver.calls"] = len(solver)
    m["core.solver.alphas"] = sum(s.info.get("alphas", 0) for s in solver)
    m["core.solver.cells"] = sum(s.info.get("cells", 0) for s in solver)
    m["core.solver.busy_s"] = sum(s.cpu or 0.0 for s in solver)
    hits = sum(c["hits"] for c in raw["caches"])
    misses = sum(c["misses"] for c in raw["caches"])
    m["core.cache.hit_frac"] = _ratio(hits, hits + misses)

    for kind, name in (("window", "fleet.add_window"), ("probe", "fleet.probe")):
        calls = named(name)
        depth = sum(
            1 for s in solver if getattr(spanset.ancestor(s, "fleet."), "name", None) == name
        )
        m[f"fleet.{kind}.sweep_depth"] = _ratio(depth, len(calls))
        m[f"fleet.{kind}.busy_s"] = sum(s.cpu or 0.0 for s in calls)

    local = [s for s in spans if s.pid not in worker_pids]
    backend = _top_level(named("backend.", local))
    probes = [s for s in backend if s.name.endswith(".probe_scales")]
    decisions = raw.get("capped_decisions", 0)
    candidates = sum(len(s.info["scales"]) for s in probes)
    m["service.policy.rounds"] = _ratio(len(probes), decisions)
    m["service.policy.candidates"] = _ratio(candidates, decisions)
    if probes:
        walked = useful_candidates(
            ((s.info["scales"], s.info["worsts"]) for s in sorted(probes, key=lambda s: s.t0)),
            raw["alpha"],
            raw["clamp_resolution"],
        )
        m["service.policy.useful_frac"] = _ratio(walked, candidates)
    m["service.backend.calls_per_step"] = _ratio(len(backend), raw["decided_steps"])

    in_workers = [s for s in spans if s.pid in worker_pids]
    worker_top = _top_level(in_workers)
    m["service.shard.worker_busy_s"] = sum(s.cpu or 0.0 for s in worker_top)
    sharded = [s for s in backend if s.name.startswith("backend.sharded.")]
    m["service.shard.wait_s"] = shard_wait(sharded, worker_top)
    m["service.scalar.busy_s"] = sum(
        s.cpu or 0.0 for s in backend if s.name.startswith("backend.scalar.")
    )

    windows = named("session.ingest_window")
    if workload == "serve":  # the coalescing tenants of phase B
        windows = [s for s in windows if str(s.info.get("session")).startswith("b")]
    m["service.window.steps"] = _mean(s.info.get("steps", 0) for s in windows)
    lanes = [s for s in windows if spanset.thread_name(s).startswith("repro-lane")]
    m["service.lane.wait_frac"] = 1.0 - _ratio(
        sum(s.cpu or 0.0 for s in lanes), sum(s.wall for s in lanes)
    ) if lanes else 0.0
    m["service.queue.wait_ms"] = 1000.0 * _median(queue_waits(spans))
    m["service.events.retained"] = raw["events_retained"]

    appends = named("wal.append")
    syncs = named("wal.sync")
    m["durability.wal.appends"] = len(appends)
    m["durability.wal.append_ms"] = 1000.0 * _mean(s.wall for s in appends)
    m["durability.wal.syncs"] = len(syncs)
    m["durability.wal.sync_ms"] = 1000.0 * _mean(s.wall for s in syncs)
    requests = raw.get("requests_measured", 0)
    m["durability.wal.syncs_per_request"] = _ratio(len(syncs), requests)
    m["durability.wal.bytes_per_step"] = _ratio(raw.get("wal_bytes", 0), raw.get("wal_steps", 0))

    if "recover_window" in raw:
        lo, hi = raw["recover_window"]
        recovers = [
            s for s in spanset.spans if s.name == "session.recover" and lo <= s.t0 <= hi
        ]
        m["durability.recover.records"] = raw["recover_records"]
        m["durability.recover.busy_s"] = _median(s.cpu or 0.0 for s in recovers)

    if workload == "serve":
        m["net.requests"] = requests
        m["net.errors"] = raw["request_errors"]
        m["net.bytes_in"] = raw["bytes_in"]
        m["net.bytes_out"] = raw["bytes_out"]
        m["net.self_ms"] = 1000.0 * _median(net_self(spans))
        m["net.generator_lag_ms"] = raw["generator_lag_ms"]
    return m


def queue_waits(spans) -> list:
    """Per request: ``aingest`` wall time outside the lane window that
    served it (the latest window of the same session ending inside it)."""
    windows: dict = {}
    for s in spans:
        if s.name == "session.ingest_window":
            windows.setdefault(s.info.get("session"), []).append(s)
    for group in windows.values():
        group.sort(key=lambda s: s.t1)
    ends = {k: [s.t1 for s in v] for k, v in windows.items()}
    waits = []
    for s in spans:
        if s.name != "session.aingest":
            continue
        key = s.info.get("session")
        group = windows.get(key, [])
        i = bisect.bisect_right(ends.get(key, []), s.t1) - 1
        served = group[i].wall if i >= 0 and group[i].t0 >= s.t0 else 0.0
        waits.append(max(0.0, s.wall - served))
    return waits


def net_self(spans) -> list:
    """Per request: client send -> reply time minus the server's
    ``aingest`` time for the same ``seq`` (wire, parse, write)."""
    server = {
        s.info["seq"]: s.wall
        for s in spans
        if s.name == "session.aingest" and s.info.get("seq") is not None
    }
    return [
        max(0.0, s.wall - server[s.info["seq"]])
        for s in spans
        if s.name == "net.request" and s.info.get("seq") in server
    ]

"""Socket vs. pipe shard RPC overhead, and serve-over-TCP throughput.

Two questions the network tier must answer with numbers:

1. **What does the framed socket transport cost per window?**  The
   coordinator exchanges the same RPC with each shard either over a
   multiprocessing pipe or a length-prefixed CRC-checked TCP frame
   (:mod:`repro.net.frames`).  Both carry pickled payloads; the socket
   adds checksumming and kernel TCP on top of the pipe's plain
   byte channel.  The accounting answers must not move at all -- the
   max-TPL gap is asserted to be exactly zero -- and the socket path
   must stay within a sane factor of pipe throughput (the parity suite
   enforces bit-identity property-based; this file puts a floor under
   the cost).

2. **How many requests/sec does the TCP front door serve?**  An
   in-process :class:`~repro.net.server.ReproServer` is driven by the
   loadgen TCP client at window=64 and must complete every request with
   non-empty latency percentiles.

Run standalone for full-scale numbers::

    PYTHONPATH=src python benchmarks/bench_net.py --users 20000 --steps 256

or as part of the benchmark harness::

    PYTHONPATH=src python -m pytest benchmarks/bench_net.py -s
"""

import argparse
import asyncio
import json
import os
import threading
import time

from _harness import emit_json, population
from repro.net.server import ReproServer
from repro.obs.loadgen import run_loadgen
from repro.service import ReleaseSession, ReleaseWindow, SessionConfig

WINDOW = 64
SHARDS = 2
# The socket transport re-buys the pipe's work plus CRC + TCP; at
# harness scale (tiny windows, loopback) the floor is deliberately
# loose -- it catches a transport that collapsed (accidental
# per-byte writes, sync handshakes per op), not honest overhead.
CI_MIN_SOCKET_RATIO = 0.2
# The serve stage: cross-request window coalescing vs. the per-request
# baseline (window_size=1) on the same session lane, same wire traffic.
# The speedup floor is the PR's acceptance bar; the stall ceiling
# proves the loop stayed free for I/O while accounting computed.
CI_MIN_SERVE_SPEEDUP = 2.0
CI_MAX_STALL_MS = 50.0
SERVE_CONNECTIONS = 8
JSON_PATH = "BENCH_net.json"


def run_transport(population, steps, epsilon, window, transport):
    """Time a sharded accounting session on one shard transport."""
    session = ReleaseSession(
        SessionConfig(
            correlations=population,
            budgets=epsilon,
            backend="fleet",
            shards=SHARDS,
            shard_transport=transport,
            window_size=window,
        )
    )
    try:
        start = time.perf_counter()
        done = 0
        while done < steps:
            size = min(window, steps - done)
            session.ingest_window(ReleaseWindow.from_snapshots([None] * size))
            done += size
        elapsed = time.perf_counter() - start
        assert session.horizon == steps
        return session.max_tpl(), elapsed
    finally:
        session.close()


def _serve_config(users, window, seed, **overrides):
    from repro.markov import two_state_matrix

    matrix = two_state_matrix(0.8, 0.1)
    # Fleet backend: the coalescing win comes from vectorised
    # ``add_window`` sweeps -- the scalar backend loops per step either
    # way, so it cannot show the amortisation this stage measures.
    base = dict(
        correlations={u: (matrix, matrix) for u in range(users)},
        budgets=0.1,
        backend="fleet",
        window_size=window,
        queue_maxsize=2 * window,
        seed=seed,
    )
    base.update(overrides)
    return SessionConfig(**base)


class _ServerHarness:
    """A ReproServer on a background thread's event loop, so the
    foreground loop stays free for client driving (``run_loadgen`` owns
    it)."""

    def __init__(self, config):
        self.server = ReproServer(config)
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self.loop.run_forever, daemon=True
        )
        self._thread.start()

    def on_loop(self, coroutine, timeout=120):
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop).result(
            timeout
        )

    def start(self):
        return self.on_loop(self.server.start("127.0.0.1", 0))

    def max_stall_seconds(self) -> float:
        async def read():
            series = self.server._registry.timeseries(
                "serve.loop.stall.seconds"
            )
            return series.high_watermark

        return self.on_loop(read())

    def session_tpl(self, session_id="default") -> float:
        async def read():
            return self.server.sessions[session_id].max_tpl()

        return self.on_loop(read())

    def stop(self):
        try:
            self.on_loop(self.server.stop())
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self._thread.join(timeout=10)
            self.loop.close()


def serve_throughput(users, count, window, rate, seed):
    """Requests/sec through a real ReproServer on loopback, driven by
    the loadgen TCP client."""
    harness = _ServerHarness(_serve_config(users, window, seed))
    try:
        host, port = harness.start()
        report = run_loadgen(
            users=users,
            rate=rate,
            count=count,
            window=window,
            queue_size=2 * window,
            seed=seed,
            target="connect",
            address=f"{host}:{port}",
        )
    finally:
        harness.stop()
    return report


async def _parity_drive(host, port, lines):
    """One connection, every line written up front: a single-connection
    drive is deterministic in t-assignment (request tasks enter the
    session queue in line order), so responses compare positionally
    against a serial in-process reference."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(b"".join(lines))
    await writer.drain()
    writer.write_eof()
    out = []
    while len(out) < len(lines):
        raw = await asyncio.wait_for(reader.readline(), timeout=60)
        if not raw:
            break
        out.append(json.loads(raw))
    writer.close()
    return out


def serve_stage(users, count, window, rate, seed, connections=SERVE_CONNECTIONS):
    """Coalesced serve vs. the per-request baseline on the same lane.

    Each variant gets (1) a deterministic single-connection parity drive
    whose per-seq payloads and final TPL are compared bit-for-bit
    against a serial in-process session, and (2) an open-loop loadgen
    run over ``connections`` concurrent TCP connections for the
    throughput number.  Fresh server (fresh budgets) per drive.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    parity_count = min(count, 64)
    snapshots = rng.integers(0, 2, size=(parity_count, users))
    lines = [
        json.dumps({"snapshot": s.tolist(), "seq": i}).encode() + b"\n"
        for i, s in enumerate(snapshots)
    ]
    reference = ReleaseSession(_serve_config(users, window, seed))
    try:
        expected = [reference.ingest(s).payload() for s in snapshots]
        expected_tpl = reference.max_tpl()
    finally:
        reference.close()

    variants = {
        # One add_window per request, still drained on the session lane.
        "baseline": dict(window_size=1),
        # The hot path: backlogged requests coalesce into windows.
        "coalesced": dict(),
    }
    stage = {
        "window": window,
        "connections": connections,
        "count": count,
        "parity_requests": parity_count,
        "offered_rate": rate,
    }
    for label, overrides in variants.items():
        harness = _ServerHarness(_serve_config(users, window, seed, **overrides))
        try:
            host, port = harness.start()
            responses = asyncio.run(_parity_drive(host, port, lines))
            by_seq = {line.get("seq"): line for line in responses}
            mismatches = 0
            for i, want in enumerate(expected):
                got = dict(by_seq.get(i) or {})
                got.pop("seq", None)
                got.pop("elapsed_ms", None)
                if got != want:
                    mismatches += 1
            tpl_gap = abs(harness.session_tpl() - expected_tpl)
        finally:
            harness.stop()

        harness = _ServerHarness(_serve_config(users, window, seed, **overrides))
        try:
            host, port = harness.start()
            report = run_loadgen(
                users=users,
                rate=rate,
                count=count,
                window=window,
                queue_size=2 * window,
                seed=seed,
                target="connect",
                address=f"{host}:{port}",
                connections=connections,
            )
            max_stall_ms = harness.max_stall_seconds() * 1000.0
        finally:
            harness.stop()
        stage[label] = {
            "requests_per_second": report["achieved_rate"],
            "completed": report["completed"],
            "errors": report["errors"],
            "latency_ms": report["latency_ms"],
            "per_connection": report["per_connection"],
            "max_stall_ms": max_stall_ms,
            "payload_mismatches": mismatches,
            "tpl_gap": tpl_gap,
        }
    stage["speedup"] = stage["coalesced"]["requests_per_second"] / max(
        stage["baseline"]["requests_per_second"], 1e-12
    )
    stage["floor"] = CI_MIN_SERVE_SPEEDUP
    stage["max_stall_ms_limit"] = CI_MAX_STALL_MS
    return stage


def compare(
    users: int = 20_000,
    cohorts: int = 16,
    steps: int = 256,
    epsilon: float = 0.1,
    states: int = 3,
    seed: int = 0,
    window: int = WINDOW,
    serve_count: int = 200,
    serve_users: int = 50,
    serve_rate: float = 2000.0,
) -> dict:
    """Both transports over the same stream, plus a serve run."""
    pop = population(users, cohorts, states, seed)
    rows = []
    baseline_tpl = None
    baseline_rate = None
    for transport in ("pipe", "socket"):
        tpl, elapsed = run_transport(pop, steps, epsilon, window, transport)
        rate = steps / max(elapsed, 1e-12)
        if baseline_tpl is None:
            baseline_tpl, baseline_rate = tpl, rate
        rows.append(
            {
                "transport": transport,
                "max_tpl": tpl,
                "seconds": elapsed,
                "events_per_second": rate,
                "windows_per_second": rate / window,
                "tpl_gap_vs_pipe": abs(tpl - baseline_tpl),
                "throughput_ratio_vs_pipe": rate / baseline_rate,
            }
        )
    serve = serve_throughput(
        serve_users, serve_count, window, serve_rate, seed
    )
    stages = {
        "serve_throughput": serve_stage(
            serve_users, serve_count, window, serve_rate, seed
        )
    }
    return {
        "users": users,
        "cohorts": cohorts,
        "steps": steps,
        "epsilon": epsilon,
        "window": window,
        "shards": SHARDS,
        "cpu_count": os.cpu_count(),
        "min_socket_ratio": CI_MIN_SOCKET_RATIO,
        "min_serve_speedup": CI_MIN_SERVE_SPEEDUP,
        "results": rows,
        "serve": {
            "users": serve_users,
            "count": serve_count,
            "window": window,
            "offered_rate": serve_rate,
            "completed": serve["completed"],
            "errors": serve["errors"],
            "requests_per_second": serve["achieved_rate"],
            "latency_ms": serve["latency_ms"],
        },
        "stages": stages,
    }


def format_table(summary: dict) -> str:
    lines = [
        f"socket vs pipe shard RPC -- {summary['users']} users, "
        f"{summary['shards']} shards, {summary['steps']} steps, "
        f"window={summary['window']}, {summary['cpu_count']} cpu(s)",
        "  transport  events/s      ratio vs pipe   max-TPL gap",
    ]
    for row in summary["results"]:
        lines.append(
            f"  {row['transport']:<10s} {row['events_per_second']:<13,.1f} "
            f"{row['throughput_ratio_vs_pipe']:<15.2f} "
            f"{row['tpl_gap_vs_pipe']:.2e}"
        )
    serve = summary["serve"]
    lat = serve["latency_ms"]
    p50 = lat.get("p50")
    p99 = lat.get("p99")
    lines.append(
        f"  serve over TCP: {serve['requests_per_second']:,.1f} req/s "
        f"({serve['completed']}/{serve['count']} completed, "
        f"p50 {p50:.1f} ms, p99 {p99:.1f} ms)"
        if p50 is not None and p99 is not None
        else "  serve over TCP: no completed requests"
    )
    stage = summary.get("stages", {}).get("serve_throughput")
    if stage:
        base, coal = stage["baseline"], stage["coalesced"]
        lines.append(
            f"  serve stage ({stage['connections']} connections, "
            f"window={stage['window']}): per-request "
            f"{base['requests_per_second']:,.1f} req/s -> "
            f"coalesced {coal['requests_per_second']:,.1f} req/s "
            f"({stage['speedup']:.2f}x), worst loop stall "
            f"{coal['max_stall_ms']:.2f} ms, TPL gap {coal['tpl_gap']:.2e}"
        )
    lines.append(
        f"  floor: socket >= {CI_MIN_SOCKET_RATIO:g}x pipe throughput, "
        f"coalesced serve >= {CI_MIN_SERVE_SPEEDUP:g}x per-request, "
        f"stall < {CI_MAX_STALL_MS:g} ms, bit-identical TPL, every "
        "serve request completed"
    )
    return "\n".join(lines)


def test_net_overhead_and_serve_floor(show_table):
    """Harness-scale comparison.  Bit-identical TPL across transports is
    asserted unconditionally; the socket throughput floor is loose (CRC
    + TCP on loopback is honest overhead) but catches a collapsed
    transport; the serve run must complete everything with real
    percentiles."""
    summary = compare(users=2_000, cohorts=16, steps=128, serve_count=128)
    show_table(format_table(summary))
    emit_json(summary, JSON_PATH)
    by_transport = {row["transport"]: row for row in summary["results"]}
    assert by_transport["socket"]["tpl_gap_vs_pipe"] == 0.0
    assert (
        by_transport["socket"]["throughput_ratio_vs_pipe"]
        >= CI_MIN_SOCKET_RATIO
    )
    serve = summary["serve"]
    assert serve["completed"] == serve["count"]
    assert serve["errors"] == 0
    assert serve["latency_ms"]  # non-empty percentiles
    assert all(
        value is None or value > 0 for value in serve["latency_ms"].values()
    )
    assert serve["latency_ms"].get("p50") is not None
    stage = summary["stages"]["serve_throughput"]
    for label in ("baseline", "coalesced"):
        row = stage[label]
        assert row["completed"] == stage["count"], label
        assert row["errors"] == 0, label
        # The hard bit-identity gate: per-seq payloads and final TPL
        # must match the serial in-process run exactly, both paths.
        assert row["payload_mismatches"] == 0, label
        assert row["tpl_gap"] == 0.0, label
    assert stage["speedup"] >= CI_MIN_SERVE_SPEEDUP
    assert stage["coalesced"]["max_stall_ms"] < CI_MAX_STALL_MS

    # The lane's SLO under the worst schedule we have: adversarial
    # volleys of 2x the queue bound must not freeze the event loop.
    adversarial = run_loadgen(
        users=20,
        rate=2000.0,
        count=200,
        window=4,
        queue_size=32,
        schedule="adversarial",
        target="inprocess",
    )
    assert adversarial["completed"] == 200
    assert adversarial["loop_stall_ms"] is not None
    assert adversarial["loop_stall_ms"] < CI_MAX_STALL_MS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=20_000)
    parser.add_argument("--cohorts", type=int, default=16)
    parser.add_argument("--steps", type=int, default=256)
    parser.add_argument("--epsilon", type=float, default=0.1)
    parser.add_argument("--states", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--window", type=int, default=WINDOW)
    parser.add_argument("--serve-count", type=int, default=200)
    parser.add_argument("--serve-users", type=int, default=50)
    parser.add_argument("--serve-rate", type=float, default=2000.0)
    parser.add_argument("-o", "--output", default=JSON_PATH)
    args = parser.parse_args()
    summary = compare(
        users=args.users,
        cohorts=args.cohorts,
        steps=args.steps,
        epsilon=args.epsilon,
        states=args.states,
        seed=args.seed,
        window=args.window,
        serve_count=args.serve_count,
        serve_users=args.serve_users,
        serve_rate=args.serve_rate,
    )
    print(format_table(summary))
    path = emit_json(summary, args.output)
    print(f"results written to {path}")


if __name__ == "__main__":
    main()

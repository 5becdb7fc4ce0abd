"""The ``serve`` workload: server launch, load generator, crash, recovery.

One generator process (the benchmark itself) drives a server process
over ``SERVE_CONNECTIONS`` TCP connections in the JSON-lines protocol:

* set-up: start the server, connect, and send one request to every
  tenant (creating its session and WAL); set-up ends at the last reply;
* phase A: the small tenants receive single-step requests open-loop at
  ``SERVE_RATE``; each request is timed from its *scheduled* send;
* phase B: the fleet tenants run closed-loop with ``SERVE_DEPTH``
  requests in flight each, so the server coalesces full windows;
* crash: ``SIGUSR1`` (server writes its state) then ``SIGKILL``;
* recovery: every phase-A tenant is recovered from its WAL once per
  round, and the rounds alternate with the cold starts behind
  ``setup_s``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from perfbench import inputs
from perfbench.session_proc import vm_hwm_mb

#: Seconds to wait for any single reply before counting it missing.
REPLY_TIMEOUT = 20.0

#: How long before a scheduled send the open-loop generator stops
#: sleeping and yields to the loop until the send is due.
SPIN = 0.002


def cpu_split() -> tuple:
    """``(generator CPUs, server CPUs)``: one CPU each when the process
    may use two or more, so the generator never preempts the server;
    otherwise both share what there is."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[0]}, {cpus[-1]}


class Connection:
    """One TCP connection; replies are matched to requests by ``seq``."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: dict = {}
        self.closed = False
        self.unexpected = 0
        self.bytes_out = 0
        self.bytes_in = 0
        self._task = asyncio.get_running_loop().create_task(self._read())

    async def _read(self) -> None:
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                now = time.perf_counter()
                self.bytes_in += len(line)
                reply = json.loads(line)
                future = self.pending.pop(reply.get("seq"), None)
                if future is None or future.done():
                    self.unexpected += 1
                else:
                    future.set_result((now, reply))
        finally:
            self.closed = True
            for future in self.pending.values():
                if not future.done():
                    future.set_exception(ConnectionError("connection closed"))

    def send(self, seq: int, line: bytes) -> asyncio.Future:
        future = asyncio.get_running_loop().create_future()
        if self.closed:
            future.set_exception(ConnectionError("connection closed"))
            return future
        self.pending[seq] = future
        self.bytes_out += len(line)
        self.writer.write(line)
        return future

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        await asyncio.gather(self._task, return_exceptions=True)


class Request:
    __slots__ = ("seq", "tenant", "phase", "line", "sched", "sent", "replied", "reply", "error")

    def __init__(self, seq, tenant, phase, snapshot) -> None:
        self.seq = seq
        self.tenant = tenant
        self.phase = phase
        payload = {"session": tenant, "seq": seq, "snapshot": snapshot.tolist()}
        self.line = (json.dumps(payload) + "\n").encode("utf-8")
        self.sched = self.sent = self.replied = None
        self.reply = None
        self.error = None

    @property
    def ok(self) -> bool:
        return self.reply is not None and "error" not in self.reply


async def _complete(request: Request, future) -> None:
    try:
        request.replied, request.reply = await asyncio.wait_for(future, REPLY_TIMEOUT)
    except (asyncio.TimeoutError, ConnectionError) as error:
        request.error = repr(error)


def _plan_requests(seed: int, seconds: float) -> dict:
    """Every request of a run, built (and serialised) before any timing."""
    n_a, n_b = inputs.serve_counts(seconds)
    tenants = inputs.serve_tenants(seed)
    small = [t for t in tenants if t.name.startswith("a")]
    big = [t for t in tenants if t.name.startswith("b")]
    rng = np.random.default_rng([seed, 2])
    seq = itertools.count(1)

    def request(tenant, phase):
        snap = rng.integers(0, inputs.SERVE_STATES, size=tenant.users)
        return Request(next(seq), tenant.name, phase, snap)

    return {
        "tenants": tenants,
        "setup": [request(t, "setup") for t in tenants],
        "A": [request(small[i % len(small)], "A") for i in range(n_a)],
        "B": [request(big[i % len(big)], "B") for i in range(n_b)],
    }


async def _connect(port: int) -> list:
    conns = []
    for _ in range(inputs.SERVE_CONNECTIONS):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        conns.append(Connection(reader, writer))
    return conns


async def _setup(conns, requests) -> None:
    waits = []
    for i, request in enumerate(requests):
        request.sent = time.perf_counter()
        waits.append(_complete(request, conns[i % len(conns)].send(request.seq, request.line)))
    await asyncio.gather(*waits)


async def _phase_a(conns, requests) -> None:
    """Open loop: request ``i`` is due at ``start + i / rate``."""
    loop = asyncio.get_running_loop()
    start = time.perf_counter() + 0.05
    waits = []
    for i, request in enumerate(requests):
        request.sched = start + i / inputs.SERVE_RATE
        # The loop's timer fires up to ~1 ms late; sleep short and yield
        # the rest, so replies are still read while the send waits.
        delay = request.sched - time.perf_counter() - SPIN
        if delay > 0:
            await asyncio.sleep(delay)
        while time.perf_counter() < request.sched:
            await asyncio.sleep(0)
        request.sent = time.perf_counter()
        future = conns[i % len(conns)].send(request.seq, request.line)
        waits.append(loop.create_task(_complete(request, future)))
    await asyncio.gather(*waits)


async def _phase_b(conns, requests) -> tuple:
    """Closed loop: every tenant keeps ``SERVE_DEPTH`` requests in flight
    on its own connection (tenants are dealt to connections in turn)."""
    per_tenant: dict = {}
    for request in requests:
        per_tenant.setdefault(request.tenant, []).append(request)

    async def client(conn, queue) -> None:
        for request in queue:
            request.sent = time.perf_counter()
            await _complete(request, conn.send(request.seq, request.line))

    clients = []
    for k, tenant_requests in enumerate(per_tenant.values()):
        queue = iter(tenant_requests)
        conn = conns[k % len(conns)]
        clients += [client(conn, queue) for _ in range(inputs.SERVE_DEPTH)]
    start = time.perf_counter()
    await asyncio.gather(*clients)
    return start, time.perf_counter()


def _start_server(ctx, seed: int, tag: str, cpus: set, trace_dir=None):
    """Launch the server process on ``cpus``; returns ``(process, port,
    paths)``."""
    wal_root = ctx.work / f"wal-{tag}"
    stats = ctx.work / f"server-stats-{tag}.json"
    cmd = [
        sys.executable, "-m", "perfbench.server_proc",
        "--seed", str(seed), "--wal-root", str(wal_root), "--stats", str(stats),
    ]
    if trace_dir is not None:
        cmd += ["--trace", str(trace_dir)]
    proc = subprocess.Popen(
        cmd,
        cwd=ctx.root,
        env=ctx.env,
        stdout=subprocess.PIPE,
        preexec_fn=lambda: os.sched_setaffinity(0, cpus),
    )
    line = proc.stdout.readline()
    if not line:
        proc.wait()
        raise RuntimeError(f"server exited with code {proc.returncode} before binding")
    return proc, json.loads(line)["port"], wal_root, stats


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def cold_start(ctx, seed: int, tag: str, cpus: set, trace_dir=None) -> float:
    """One set-up sample: seconds from launching the server until every
    tenant's first request is answered.  With ``trace_dir`` the server
    installs the layer wrappers (its spans are never written)."""
    plan = _plan_requests(seed, 0)
    t0 = time.monotonic()
    proc, port, _, _ = _start_server(ctx, seed, tag, cpus, trace_dir)
    try:

        async def drive() -> None:
            conns = await _connect(port)
            await _setup(conns, plan["setup"])
            for conn in conns:
                await conn.close()

        asyncio.run(drive())
        elapsed = time.monotonic() - t0
        if not all(r.ok for r in plan["setup"]):
            raise RuntimeError("a set-up request failed")
        return elapsed
    finally:
        _stop(proc)


def run(ctx, seed: int, seconds: float, samples: int, tag: str, tracer=None, trace_dir=None) -> dict:
    """The measured serve run, then ``samples`` recovery rounds with the
    other ``samples - 1`` cold starts between them; returns raw timings,
    counts and checks.  ``tag`` keeps this run's WAL and state files
    apart from other runs'.  This process, the generator, runs on its
    own CPU for the duration and every server on another."""
    generator_cpus, server_cpus = cpu_split()
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, generator_cpus)
    try:
        return _run(ctx, seed, seconds, samples, tag, server_cpus, tracer, trace_dir)
    finally:
        os.sched_setaffinity(0, allowed)


def _run(ctx, seed, seconds, samples, tag, server_cpus, tracer, trace_dir) -> dict:
    plan = _plan_requests(seed, seconds)
    out: dict = {}
    t0 = time.monotonic()
    proc, port, wal_root, stats_path = _start_server(ctx, seed, tag, server_cpus, trace_dir)
    try:

        async def drive() -> dict:
            conns = await _connect(port)
            await _setup(conns, plan["setup"])
            setup_end = time.monotonic()
            window_a = [time.perf_counter()]
            await _phase_a(conns, plan["A"])
            window_a.append(time.perf_counter())
            b_start, b_end = await _phase_b(conns, plan["B"])
            for conn in conns:
                await conn.close()
            return {
                "setup_end": setup_end,
                "window_a": window_a,
                "window_b": [b_start, b_end],
                "unexpected": sum(c.unexpected for c in conns),
                "bytes_out": sum(c.bytes_out for c in conns),
                "bytes_in": sum(c.bytes_in for c in conns),
            }

        out.update(asyncio.run(drive()))
        out["setup_s"] = [out.pop("setup_end") - t0]
        os.kill(proc.pid, signal.SIGUSR1)
        deadline = time.monotonic() + 30
        while not stats_path.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        out["server"] = json.loads(stats_path.read_text(encoding="utf-8"))
        out["peak_rss_mb"] = vm_hwm_mb(proc.pid)
    finally:
        _stop(proc)  # SIGKILL: the crash the WAL must survive
    out["wal_bytes"] = sum(f.stat().st_size for f in wal_root.rglob("*") if f.is_file())
    out["requests"] = {
        phase: [
            [r.seq, r.tenant, r.sched, r.sent, r.replied, r.reply, r.error]
            for r in plan[phase]
        ]
        for phase in ("setup", "A", "B")
    }
    if tracer is not None:
        for phase in ("setup", "A", "B"):
            for r in plan[phase]:
                if r.replied is not None:
                    tracer.record("net.request", r.sent, r.replied, {"seq": r.seq, "phase": phase})
    # Recovery rounds alternate with the cold starts, so their samples
    # spread over the rest of the run: ~12 s of recoveries back to back
    # fell in one or two of the VM's speed states, and their median
    # spread by a third between runs.
    recovery = Recovery(plan, wal_root)
    for k in range(samples):
        if k:
            out["setup_s"].append(
                cold_start(ctx, seed, f"{tag}-cold{k}", server_cpus, trace_dir)
            )
        recovery.round()
    out["recover"] = recovery.result()
    return out


class Recovery:
    """Recovers every phase-A tenant from its WAL, one round at a time,
    and compares each with the tenant's last acknowledged reply
    (recovery only reads the log, so every round replays the same
    records)."""

    def __init__(self, plan, wal_root: Path) -> None:
        self.tenants = [t for t in plan["tenants"] if t.name.startswith("a")]
        self.wal_root = wal_root
        self.last: dict = {}
        for request in plan["setup"] + plan["A"]:
            if request.ok:
                t = request.reply["t"]
                if t > self.last.get(request.tenant, (0, None))[0]:
                    self.last[request.tenant] = (t, request.reply["max_tpl"])
        self.seconds: dict = {t.name: [] for t in self.tenants}
        self.matched = True
        self.records = 0
        self.rounds = 0
        self.start = time.perf_counter()

    def round(self) -> None:
        from repro.service import ReleaseSession

        for tenant in self.tenants:
            config = tenant.config(self.wal_root / tenant.name)
            t0 = time.perf_counter()
            session = ReleaseSession.recover(config)
            self.seconds[tenant.name].append(time.perf_counter() - t0)
            expected = self.last.get(tenant.name, (0, 0.0))
            self.matched &= (session.horizon, session.max_tpl()) == expected
            if self.rounds == 0:
                self.records += len(session.wal.tail_records())
            session.close()
        self.rounds += 1

    def result(self) -> dict:
        """The seconds of each recovery per tenant, whether every one
        matched, the records of one round, and the span of the rounds."""
        return {
            "seconds": self.seconds,
            "matched": self.matched,
            "records": self.records,
            "window": [self.start, time.perf_counter()],
        }

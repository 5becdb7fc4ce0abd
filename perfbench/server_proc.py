"""The ``serve`` workload's server: ``repro serve --listen`` with tenants.

Run by ``perfbench/run.py`` as::

    python -m perfbench.server_proc --seed 0 --wal-root DIR --stats FILE \
        [--trace DIR]

It builds the same :class:`repro.net.ReproServer` that ``repro serve
--listen`` runs -- a live metrics registry with the solver hook installed
-- binds ``127.0.0.1:0`` and prints ``{"port": N}`` on stdout.  Sessions
come from the public ``session_factory``: each tenant id maps to its own
seeded population and a batch-fsync WAL under ``--wal-root``.

``SIGUSR1`` writes the run's server-side state to ``--stats`` (and, when
traced, the spans to the trace directory) before the benchmark SIGKILLs
the process.  ``SIGTERM`` stops the server gracefully.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--wal-root", required=True)
    parser.add_argument("--stats", required=True)
    parser.add_argument("--trace", default=None, help="span output directory")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from perfbench import tracing

        tracer = tracing.Tracer(args.trace, "server")
        tracing.install(tracer)

    from perfbench.inputs import serve_tenants
    from repro.net.server import ReproServer, build_session
    from repro.obs import MetricsRegistry, install_solver_metrics

    tenants = {t.name: t for t in serve_tenants(args.seed)}
    wal_root = Path(args.wal_root)

    def session_factory(config, session_id, *, registry=None):
        # build_session gives each tenant the sub-directory wal_root/<id>.
        session = build_session(tenants[session_id].config(wal_root), session_id, registry=registry)
        if tracer is not None:
            tracer.sessions[id(session)] = session_id
        return session

    registry = MetricsRegistry()
    base = next(iter(tenants.values())).config(wal_root)
    server = ReproServer(base, registry=registry, session_factory=session_factory)

    def write_stats() -> None:
        sessions = server.sessions
        stats = {
            "events_retained": {sid: len(s.events) for sid, s in sessions.items()},
            "cache": {sid: s.cache.stats() for sid, s in sessions.items()},
            "horizon": {sid: s.horizon for sid, s in sessions.items()},
            "max_tpl": {sid: s.max_tpl() for sid, s in sessions.items()},
        }
        if tracer is not None:
            tracer.dump()
        path = Path(args.stats)
        path.with_suffix(".tmp").write_text(json.dumps(stats), encoding="utf-8")
        path.with_suffix(".tmp").replace(path)

    async def run() -> None:
        loop = asyncio.get_running_loop()
        _, port = await server.start("127.0.0.1", 0)
        print(json.dumps({"port": port}), flush=True)
        stop = asyncio.Event()
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        loop.add_signal_handler(signal.SIGUSR1, write_stats)
        await stop.wait()
        await server.stop()

    previous = install_solver_metrics(registry)
    try:
        asyncio.run(run())
    finally:
        install_solver_metrics(previous)
    return 0


if __name__ == "__main__":
    sys.exit(main())

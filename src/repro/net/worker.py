"""Standalone socket shard worker: ``repro shard-worker --listen``.

A shard worker is the socket-transport twin of the forked pipe worker
in :mod:`repro.service.sharding`: it owns one private
:class:`~repro.fleet.engine.FleetAccountant` per coordinator connection
and answers the same ``(op, args)`` command protocol, framed per
:mod:`repro.net.frames`.

Connection lifecycle::

    accept -> handshake -> spec frame (correlations, restore_dir,
    cache_maxsize) -> ("ok"|"error", ...) engine-ready reply ->
    command loop -> disconnect -> back to accept

The engine is built **per connection** from the coordinator-supplied
spec, which is what makes reconnect-with-restore work: a coordinator
that lost this worker (or whose previous worker was killed) redials,
ships the spec for the shard's last checkpoint, and replays the steps
since -- the worker needs no state of its own between connections.

Frame payloads are pickle; only listen on trusted networks (see the
package docstring).
"""

from __future__ import annotations

import json
import socket
import sys
from typing import Optional

from ..service.sharding import build_shard_engine, run_shard_loop
from .frames import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameError,
    TransportClosed,
    TransportTimeout,
)
from .transport import SocketTransport

__all__ = ["serve_shard_worker", "spawned_socket_worker"]


def _serve_connection(transport: SocketTransport) -> bool:
    """Handle one coordinator: spec, engine-ready reply, command loop.
    Returns True if the coordinator sent an explicit ``close``."""
    try:
        spec = transport.recv(timeout=30.0)
        correlations, restore_dir, cache_maxsize = spec
    except (TransportClosed, TransportTimeout, FrameError, ValueError):
        transport.close()
        return False
    try:
        engine = build_shard_engine(correlations, restore_dir, cache_maxsize)
    except BaseException as error:  # noqa: BLE001 -- relayed as handshake
        try:
            transport.send(("error", error))
        except TransportClosed:
            pass
        finally:
            transport.close()
        return False
    try:
        transport.send(("ok", None))  # engine-ready handshake
        return run_shard_loop(transport, engine)
    except TransportClosed:
        return False
    finally:
        transport.close()


def serve_shard_worker(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    once: bool = False,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    announce=None,
    ready=None,
) -> None:
    """Run a shard worker until interrupted (the ``repro shard-worker``
    entry point).

    Serves one coordinator at a time -- a shard has exactly one
    coordinator by construction -- and returns to ``accept`` when it
    disconnects, so a restarted coordinator (or a coordinator that
    restored this shard after a network fault) can redial.  ``once``
    exits after the first coordinator closes (used by tests and
    supervised deployments that prefer a respawn per session).

    ``announce`` receives one ``{"shard_worker": {"host", "port"}}``
    dict after bind (default: JSON line on stderr, so scripts can
    discover a ``--listen HOST:0`` ephemeral port); ``ready`` (tests)
    receives the bound ``(host, port)``.
    """
    server = socket.create_server((host, port), backlog=1, reuse_port=False)
    bound_host, bound_port = server.getsockname()[:2]
    payload = {"shard_worker": {"host": bound_host, "port": bound_port}}
    if announce is None:
        print(json.dumps(payload), file=sys.stderr, flush=True)
    else:
        announce(payload)
    if ready is not None:
        ready((bound_host, bound_port))
    try:
        while True:
            conn, _peer = server.accept()
            try:
                transport = SocketTransport.accept(
                    conn, max_frame_bytes=max_frame_bytes
                )
            except (FrameError, TransportClosed, TransportTimeout, OSError):
                continue  # not a coordinator; next accept
            closed = _serve_connection(transport)
            if once and closed:
                break
    finally:
        server.close()


def spawned_socket_worker(
    ctrl_conn, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> None:
    """Entry point for coordinator-spawned local socket workers.

    Binds loopback on an ephemeral port, reports the port over the
    one-shot control pipe, then serves exactly like the standalone
    worker.  Exits when a coordinator sends ``close``; a coordinator
    that merely disconnected (transport fault) gets a fresh accept --
    though the coordinator's restore path respawns rather than redials,
    so in practice this process lives for one connection.
    """

    def report(address: Optional[tuple]) -> None:
        try:
            ctrl_conn.send(address[1])
        finally:
            ctrl_conn.close()

    serve_shard_worker(
        "127.0.0.1",
        0,
        once=True,
        max_frame_bytes=max_frame_bytes,
        announce=lambda payload: None,
        ready=report,
    )

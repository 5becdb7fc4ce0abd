"""repro.net: the socket serving tier.

Two halves sharing one framing layer:

- **Server front door** (:mod:`repro.net.server`): an asyncio TCP
  server speaking the same JSON-lines wire format as ``repro serve``
  on stdin — multi-client, per-client :class:`ReleaseSession` registry
  keyed by a client-supplied session id, per-request ``seq`` echo with
  an idempotency cache (a retried ``seq`` replays the cached result
  instead of double-charging budget), structured error payloads, and a
  plain-HTTP ``GET /metrics`` endpoint exposing the Prometheus text
  exposition of :mod:`repro.obs`.

- **Shard transport** (:mod:`repro.net.transport` /
  :mod:`repro.net.worker`): the coordinator RPC of
  :class:`~repro.service.sharding.ShardedFleetBackend` behind a
  :class:`ShardTransport` protocol with two implementations — the
  original ``multiprocessing.Pipe`` and a length-prefixed CRC-framed
  socket (``repro shard-worker --listen``) so shard workers can run on
  other machines. When a worker's transport fails, the coordinator
  reconnects and restores it from the last checkpoint plus its restore
  record, so a killed worker rejoins without breaking bit-identity.

The shard frame payload is **pickle** (numpy arrays and exception
objects must round-trip bit-exactly); only ever expose shard workers
on a trusted network. The client-facing JSON-lines protocol carries no
pickles. See ``docs/wire-protocol.md`` for both formats.
"""

from .frames import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameDecoder,
    FrameError,
    FrameTooLarge,
    HandshakeError,
    TransportClosed,
    TransportTimeout,
    encode_frame,
    encode_handshake,
)
from .transport import PipeTransport, ShardTransport, SocketTransport

__all__ = [
    "DEFAULT_MAX_FRAME_BYTES",
    "FrameDecoder",
    "FrameError",
    "FrameTooLarge",
    "HandshakeError",
    "PipeTransport",
    "ReproServer",
    "ShardTransport",
    "SocketTransport",
    "TransportClosed",
    "TransportTimeout",
    "encode_frame",
    "encode_handshake",
    "serve_shard_worker",
]


def __getattr__(name):
    # ``server`` imports repro.service (sessions) and ``worker`` imports
    # repro.service.sharding (the op dispatch); both are loaded lazily so
    # that service code can import the transport layer without a cycle.
    if name == "ReproServer":
        from .server import ReproServer

        return ReproServer
    if name == "serve_shard_worker":
        from .worker import serve_shard_worker

        return serve_shard_worker
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

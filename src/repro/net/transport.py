"""Pluggable shard transports for :class:`ShardedFleetBackend`.

The coordinator's RPC is a sequence of ``(op, args)`` requests answered
by ``("ok" | "error", payload)`` replies. :class:`PipeTransport` wraps
the original same-machine ``multiprocessing.Pipe``;
:class:`SocketTransport` speaks the framed protocol of
:mod:`repro.net.frames` over TCP so workers can live on other machines.
Both normalise failure into :class:`TransportClosed` /
:class:`TransportTimeout`, which is what the coordinator's
reconnect-with-restore logic keys on.
"""

from __future__ import annotations

import select
import socket
import time
from multiprocessing.connection import Connection
from typing import Any, Optional, Protocol, Tuple, runtime_checkable

from .frames import (
    DEFAULT_MAX_FRAME_BYTES,
    HANDSHAKE_LEN,
    FrameDecoder,
    FrameError,
    TransportClosed,
    TransportTimeout,
    decode_handshake,
    encode_frame,
    encode_handshake,
    recv_exact,
)

__all__ = [
    "PipeTransport",
    "ShardTransport",
    "SocketTransport",
    "parse_address",
]


def parse_address(address) -> Tuple[str, int]:
    """Normalise ``"host:port"`` / ``(host, port)`` into a tuple."""
    if isinstance(address, str):
        host, sep, port = address.rpartition(":")
        if not sep or not host:
            raise ValueError(
                f"shard address {address!r} is not of the form HOST:PORT"
            )
        return host, int(port)
    host, port = address
    return str(host), int(port)


@runtime_checkable
class ShardTransport(Protocol):
    """One bidirectional message channel to one shard worker."""

    def send(self, obj: Any) -> None:
        """Ship one message; raises :class:`TransportClosed` on a dead
        peer."""

    def recv(self, timeout: Optional[float] = None) -> Any:
        """Block for one message; :class:`TransportTimeout` after
        ``timeout`` seconds, :class:`TransportClosed` on hangup."""

    def poll(self, timeout: float = 0.0) -> bool:
        """True if a message is ready within ``timeout`` seconds."""

    def close(self) -> None:
        """Release the channel (idempotent)."""


class PipeTransport:
    """The original same-machine transport: a ``multiprocessing``
    duplex pipe to a forked worker process."""

    def __init__(self, conn: Connection):
        self._conn = conn
        self._closed = False

    def send(self, obj: Any) -> None:
        try:
            self._conn.send(obj)
            return
        except (OSError, ValueError) as error:
            message = str(error)
        # Raised outside the handler, so no exception chain keeps the
        # failed send's traceback alive: it holds multiprocessing's
        # pickle buffer (a view of a BytesIO), and collecting it then
        # reports "BufferError: Existing exports of data".
        raise TransportClosed(message)

    def recv(self, timeout: Optional[float] = None) -> Any:
        if timeout is not None:
            try:
                ready = self._conn.poll(timeout)
            except (OSError, EOFError) as error:
                raise TransportClosed(str(error)) from error
            if not ready:
                raise TransportTimeout(
                    f"no reply from shard worker within {timeout}s"
                )
        try:
            return self._conn.recv()
        except (EOFError, OSError) as error:
            raise TransportClosed(str(error)) from error

    def poll(self, timeout: float = 0.0) -> bool:
        try:
            return self._conn.poll(timeout)
        except (OSError, EOFError):
            return True  # a closed pipe "has news": recv will raise

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._conn.close()
            except OSError:  # pragma: no cover - platform dependent
                pass


class SocketTransport:
    """Framed pickle messages over a TCP socket (see
    :mod:`repro.net.frames` for the wire layout)."""

    def __init__(
        self,
        sock: socket.socket,
        *,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(None)
        self._sock = sock
        self._decoder = FrameDecoder(max_frame_bytes=max_frame_bytes)
        self._ready: list = []
        self._max_frame_bytes = max_frame_bytes
        self._closed = False

    # -- construction ---------------------------------------------------

    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        *,
        timeout: float = 10.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> "SocketTransport":
        """Dial a worker and exchange the protocol preamble."""
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as error:
            raise TransportClosed(
                f"cannot connect to shard worker at {host}:{port}: {error}"
            ) from error
        try:
            sock.settimeout(timeout)
            sock.sendall(encode_handshake())
            decode_handshake(recv_exact(sock, HANDSHAKE_LEN))
        except BaseException:
            sock.close()
            raise
        return cls(sock, max_frame_bytes=max_frame_bytes)

    @classmethod
    def accept(
        cls,
        sock: socket.socket,
        *,
        timeout: float = 10.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> "SocketTransport":
        """Worker side: validate the peer preamble, then answer it."""
        try:
            sock.settimeout(timeout)
            decode_handshake(recv_exact(sock, HANDSHAKE_LEN))
            sock.sendall(encode_handshake())
        except BaseException:
            sock.close()
            raise
        return cls(sock, max_frame_bytes=max_frame_bytes)

    # -- messaging ------------------------------------------------------

    def send(self, obj: Any) -> None:
        if self._closed:
            raise TransportClosed("transport is closed")
        frame = encode_frame(obj, max_frame_bytes=self._max_frame_bytes)
        try:
            self._sock.sendall(frame)
        except OSError as error:
            raise TransportClosed(str(error)) from error

    def recv(self, timeout: Optional[float] = None) -> Any:
        if self._ready:
            return self._ready.pop(0)
        if self._closed:
            raise TransportClosed("transport is closed")
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if deadline is None:
                self._sock.settimeout(None)
            else:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TransportTimeout(
                        f"no reply from shard worker within {timeout}s"
                    )
                self._sock.settimeout(remaining)
            try:
                chunk = self._sock.recv(1 << 16)
            except socket.timeout as error:
                raise TransportTimeout(
                    f"no reply from shard worker within {timeout}s"
                ) from error
            except OSError as error:
                raise TransportClosed(str(error)) from error
            if not chunk:
                raise TransportClosed("peer closed the connection")
            try:
                frames = self._decoder.feed(chunk)
            except FrameError:
                self.close()
                raise
            if frames:
                self._ready.extend(frames[1:])
                return frames[0]

    def poll(self, timeout: float = 0.0) -> bool:
        if self._ready:
            return True
        if self._closed:
            return True  # recv will raise immediately
        readable, _, _ = select.select([self._sock], [], [], timeout)
        return bool(readable)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()

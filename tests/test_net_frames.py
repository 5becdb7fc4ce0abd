"""Edge-case tests for the framed shard wire (repro.net.frames /
repro.net.transport): partial reads, torn frames, CRC corruption,
oversized announcements, handshake rejection, peer disconnects and the
HOST:PORT address parser.
"""

import pickle
import socket
import struct
import threading
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.frames import (
    DEFAULT_MAX_FRAME_BYTES,
    HANDSHAKE_LEN,
    MAGIC,
    PROTOCOL_VERSION,
    FrameDecoder,
    FrameError,
    FrameTooLarge,
    HandshakeError,
    TransportClosed,
    TransportTimeout,
    decode_handshake,
    encode_frame,
    encode_handshake,
)
from repro.net.transport import PipeTransport, SocketTransport, parse_address


class TestFrameCodec:
    def test_round_trip_one_frame(self):
        decoder = FrameDecoder()
        obj = {"op": "add_window", "array": np.arange(5.0)}
        frames = decoder.feed(encode_frame(obj))
        assert len(frames) == 1
        assert frames[0]["op"] == "add_window"
        np.testing.assert_array_equal(frames[0]["array"], np.arange(5.0))
        assert len(decoder) == 0

    def test_byte_at_a_time_arrival(self):
        """A frame torn into single-byte reads completes exactly once,
        exactly when its final byte lands."""
        decoder = FrameDecoder()
        data = encode_frame(("ok", 1.5)) + encode_frame(("ok", 2.5))
        seen = []
        for i, byte in enumerate(data):
            got = decoder.feed(bytes([byte]))
            seen.extend(got)
        assert seen == [("ok", 1.5), ("ok", 2.5)]
        assert len(decoder) == 0

    @given(
        chunks=st.lists(st.integers(1, 40), min_size=1, max_size=20),
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=5,
        ),
    )
    def test_arbitrary_chunking_preserves_frames(self, chunks, values):
        data = b"".join(encode_frame(v) for v in values)
        decoder = FrameDecoder()
        out = []
        offset = 0
        i = 0
        while offset < len(data):
            size = chunks[i % len(chunks)]
            out.extend(decoder.feed(data[offset : offset + size]))
            offset += size
            i += 1
        assert out == values

    def test_torn_tail_stays_buffered(self):
        decoder = FrameDecoder()
        data = encode_frame("whole") + encode_frame("torn")
        assert decoder.feed(data[:-3]) == ["whole"]
        assert len(decoder) > 0  # the torn frame waits for its tail
        assert decoder.feed(data[-3:]) == ["torn"]

    def test_crc_corruption_detected(self):
        data = bytearray(encode_frame("payload"))
        data[-1] ^= 0xFF
        with pytest.raises(FrameError, match="CRC"):
            FrameDecoder().feed(bytes(data))

    def test_oversized_announcement_rejected_before_buffering(self):
        """A hostile/garbage length prefix raises immediately -- the
        decoder must not wait for (or allocate) the announced bytes."""
        header = struct.pack("<II", DEFAULT_MAX_FRAME_BYTES + 1, 0)
        with pytest.raises(FrameTooLarge):
            FrameDecoder().feed(header)

    def test_encode_respects_frame_ceiling(self):
        with pytest.raises(FrameTooLarge):
            encode_frame(b"x" * 64, max_frame_bytes=16)

    def test_custom_ceiling_round_trips(self):
        payload = b"y" * 32
        frame = encode_frame(payload, max_frame_bytes=1024)
        decoder = FrameDecoder(max_frame_bytes=1024)
        assert decoder.feed(frame) == [payload]
        # The announced length includes pickle overhead; below the raw
        # payload size it must be refused.
        small = FrameDecoder(max_frame_bytes=8)
        with pytest.raises(FrameTooLarge):
            small.feed(frame)

    def test_numpy_bit_exact_round_trip(self):
        rng = np.random.default_rng(7)
        array = rng.standard_normal(257)
        (out,) = FrameDecoder().feed(encode_frame(array))
        assert out.dtype == array.dtype
        assert np.array_equal(out, array)  # bitwise, not approx

    def test_exception_round_trip(self):
        (out,) = FrameDecoder().feed(
            encode_frame(("error", KeyError("ghost")))
        )
        status, error = out
        assert status == "error"
        assert isinstance(error, KeyError)
        assert error.args == ("ghost",)


class TestHandshake:
    def test_round_trip(self):
        data = encode_handshake()
        assert len(data) == HANDSHAKE_LEN
        assert data.startswith(MAGIC)
        assert decode_handshake(data) == PROTOCOL_VERSION

    def test_rejects_wrong_magic(self):
        with pytest.raises(HandshakeError, match="REPRONET"):
            decode_handshake(b"GET / HTTP/1.1\r\n"[:HANDSHAKE_LEN])

    def test_rejects_short_read(self):
        with pytest.raises(HandshakeError):
            decode_handshake(MAGIC)

    def test_rejects_future_version(self):
        data = MAGIC + struct.pack("<I", PROTOCOL_VERSION + 1)
        with pytest.raises(HandshakeError, match="version"):
            decode_handshake(data)


class TestParseAddress:
    def test_host_port_string(self):
        assert parse_address("worker.example:9001") == (
            "worker.example",
            9001,
        )
        assert parse_address("127.0.0.1:0") == ("127.0.0.1", 0)

    def test_tuple_passthrough(self):
        assert parse_address(("localhost", 8000)) == ("localhost", 8000)

    def test_rejects_bare_host_or_port(self):
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_address("localhost")
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_address(":9000")
        with pytest.raises(ValueError):
            parse_address("host:not-a-port")


def _socket_pair():
    """A connected (client, server) SocketTransport pair over loopback,
    handshake included."""
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    result = {}

    def accept():
        conn, _ = listener.accept()
        result["server"] = SocketTransport.accept(conn)

    thread = threading.Thread(target=accept)
    thread.start()
    client = SocketTransport.connect("127.0.0.1", port)
    thread.join(timeout=10)
    listener.close()
    return client, result["server"]


class TestSocketTransport:
    def test_bidirectional_messages(self):
        client, server = _socket_pair()
        try:
            client.send(("add_window", ([0.1, 0.2], [{}, {}])))
            assert server.recv(timeout=5) == (
                "add_window",
                ([0.1, 0.2], [{}, {}]),
            )
            reply = ("ok", np.array([0.5, 0.7]))
            server.send(reply)
            status, payload = client.recv(timeout=5)
            assert status == "ok"
            assert np.array_equal(payload, reply[1])
        finally:
            client.close()
            server.close()

    def test_poll_and_buffered_extra_frames(self):
        client, server = _socket_pair()
        try:
            assert client.poll(0.0) is False
            server.send(1)
            server.send(2)
            assert client.poll(5.0) is True
            assert client.recv(timeout=5) == 1
            # The second frame may have arrived in the same segment; it
            # must be readable either way, and poll must say so.
            assert client.poll(5.0) is True
            assert client.recv(timeout=5) == 2
        finally:
            client.close()
            server.close()

    def test_recv_timeout(self):
        client, server = _socket_pair()
        try:
            with pytest.raises(TransportTimeout):
                client.recv(timeout=0.05)
            # A timeout is not fatal: the reply can still arrive.
            server.send("late")
            assert client.recv(timeout=5) == "late"
        finally:
            client.close()
            server.close()

    def test_peer_disconnect_mid_request(self):
        client, server = _socket_pair()
        server.close()
        try:
            with pytest.raises(TransportClosed):
                client.recv(timeout=5)
            with pytest.raises(TransportClosed):
                # The send may need a second write for the RST to land.
                for _ in range(20):
                    client.send("anyone home?")
        finally:
            client.close()

    def test_closed_transport_raises(self):
        client, server = _socket_pair()
        client.close()
        client.close()  # idempotent
        server.close()
        with pytest.raises(TransportClosed):
            client.send("x")
        with pytest.raises(TransportClosed):
            client.recv()
        assert client.poll() is True  # "has news": recv raises

    def test_corrupt_stream_closes_transport(self):
        """Garbage on the wire (post-handshake) is a FrameError and the
        transport refuses further use -- resynchronising a pickle stream
        is not possible."""
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        result = {}

        def accept():
            conn, _ = listener.accept()
            result["conn"] = conn
            conn.recv(HANDSHAKE_LEN)
            conn.sendall(encode_handshake())
            payload = pickle.dumps("x")
            header = struct.pack(
                "<II", len(payload), zlib.crc32(payload) ^ 1
            )
            conn.sendall(header + payload)

        thread = threading.Thread(target=accept)
        thread.start()
        client = SocketTransport.connect("127.0.0.1", port)
        thread.join(timeout=10)
        try:
            with pytest.raises(FrameError):
                client.recv(timeout=5)
            with pytest.raises(TransportClosed):
                client.recv(timeout=5)
        finally:
            client.close()
            result["conn"].close()
            listener.close()

    def test_connect_refused_is_transport_closed(self):
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # port now (very likely) refuses connections
        with pytest.raises(TransportClosed):
            SocketTransport.connect("127.0.0.1", port, timeout=2.0)

    def test_accept_rejects_non_protocol_peer(self):
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        result = {}

        def accept():
            conn, _ = listener.accept()
            try:
                SocketTransport.accept(conn, timeout=5.0)
            except (HandshakeError, TransportClosed) as error:
                result["error"] = error

        thread = threading.Thread(target=accept)
        thread.start()
        raw = socket.create_connection(("127.0.0.1", port))
        raw.sendall(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        thread.join(timeout=10)
        raw.close()
        listener.close()
        assert isinstance(result["error"], HandshakeError)


class TestPipeTransport:
    def test_round_trip_and_timeout(self):
        import multiprocessing

        a, b = multiprocessing.Pipe()
        ta, tb = PipeTransport(a), PipeTransport(b)
        try:
            ta.send({"x": np.arange(3)})
            message = tb.recv(timeout=5)
            assert np.array_equal(message["x"], np.arange(3))
            with pytest.raises(TransportTimeout):
                ta.recv(timeout=0.05)
        finally:
            ta.close()
            tb.close()

    def test_peer_close_surfaces_transport_closed(self):
        import multiprocessing

        a, b = multiprocessing.Pipe()
        ta, tb = PipeTransport(a), PipeTransport(b)
        tb.close()
        try:
            with pytest.raises(TransportClosed):
                ta.recv(timeout=5)
            assert ta.poll(0.0) is True  # closed pipe "has news"
        finally:
            ta.close()

    def test_send_to_closed_peer_drops_the_failed_send(self):
        """A send on a dead pipe raises TransportClosed with no chained
        exception: the failed send's traceback pins multiprocessing's
        pickle buffer, and collecting such a chain printed
        'BufferError: Existing exports of data'."""
        import multiprocessing

        a, b = multiprocessing.Pipe()
        ta, tb = PipeTransport(a), PipeTransport(b)
        tb.close()
        try:
            with pytest.raises(TransportClosed) as caught:
                ta.send({"x": np.arange(1 << 16)})  # larger than the pipe buffer
            assert caught.value.__cause__ is None
            assert caught.value.__context__ is None
        finally:
            ta.close()

    def test_exception_hierarchy_matches_worker_loop(self):
        """run_shard_loop catches (EOFError, OSError); both transport
        errors must fall inside that net, and inside the stdlib timeout
        taxonomy."""
        assert issubclass(TransportClosed, ConnectionError)
        assert issubclass(TransportClosed, OSError)
        assert issubclass(TransportTimeout, TimeoutError)
        assert issubclass(TransportTimeout, OSError)

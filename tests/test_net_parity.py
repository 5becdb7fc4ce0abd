"""Parity suite for the socket shard transport (repro.net).

The bit-identity guarantee carries over the wire: a sharded session on
the framed socket transport answers bit-identically to the pipe
transport (and therefore to the single-process fleet backend) --
events with noise, worst-case TPL, per-user leakage series, alpha
decisions -- including after a worker is SIGKILLed mid-stream and the
coordinator reconnects-with-restore from its restore record.
"""

import os
import signal
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_service_parity import (
    N_USERS,
    alpha_policies,
    populations,
    serial_clamp_scale,
    streams,
)

from repro.data import HistogramQuery
from repro.markov import two_state_matrix
from repro.service import ReleaseSession, SessionConfig


def make_session(population, alpha, mode, seed, transport, shards=2):
    return ReleaseSession(
        SessionConfig(
            correlations=population,
            budgets=0.1,  # overridden per ingest
            query=HistogramQuery(4),
            alpha=alpha,
            alpha_mode=mode,
            backend="fleet",
            shards=shards,
            shard_transport=transport,
            seed=seed,
        )
    )


def drive(session, stream, seed, *, kill_at=None):
    """Ingest ``stream``; optionally SIGKILL shard 0's worker right
    before step ``kill_at`` to force a mid-stream restore."""
    rng = np.random.default_rng(seed)  # identical snapshots per run
    events = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for step, (epsilon, overrides) in enumerate(stream):
            if kill_at is not None and step == kill_at:
                victim = session.backend._procs[0]
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(timeout=10)
            snapshot = rng.integers(0, 4, size=N_USERS)
            events.append(
                session.ingest(snapshot, epsilon=epsilon, overrides=overrides)
            )
    return events


def assert_bit_identical(reference, ref_events, candidate, cand_events):
    for a, b in zip(ref_events, cand_events):
        pa = a.payload(include_true_answer=True)
        pb = b.payload(include_true_answer=True)
        pa.pop("backend")
        pb.pop("backend")
        assert pa == pb  # noise included: bitwise payload equality
    assert reference.max_tpl() == candidate.max_tpl()
    for user in range(N_USERS):
        pa = reference.profile(user)
        pb = candidate.profile(user)
        assert np.array_equal(pa.epsilons, pb.epsilons)
        assert np.array_equal(pa.bpl, pb.bpl)
        assert np.array_equal(pa.fpl, pb.fpl)
        assert np.array_equal(pa.tpl, pb.tpl)


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    population=populations(),
    stream=streams(),
    policy=alpha_policies(),
    seed=st.integers(0, 2**16),
    shards=st.integers(2, 3),
)
def test_socket_transport_bit_identical_to_pipe(
    population, stream, policy, seed, shards
):
    """Pipe- and socket-transported sharded sessions agree bit for bit
    on identical streams: events (noise included), TPL series, per-user
    profiles and alpha decisions."""
    alpha, mode = policy
    pipe = make_session(population, alpha, mode, seed, "pipe", shards)
    try:
        pipe_events = drive(pipe, stream, seed)
        sock = make_session(population, alpha, mode, seed, "socket", shards)
        try:
            sock_events = drive(sock, stream, seed)
            assert_bit_identical(pipe, pipe_events, sock, sock_events)
        finally:
            sock.close()
    finally:
        pipe.close()


FIXED_STREAM = [
    (0.3, None),
    (0.2, {1: 0.05}),
    (0.4, None),
    (0.1, None),
    (0.25, {0: 0.02, 3: 0.3}),
    (0.15, None),
]


def fixed_population():
    m_hi = two_state_matrix(0.9, 0.2)
    m_lo = two_state_matrix(0.6, 0.4)
    return {u: (m_hi, m_lo) for u in range(N_USERS)}


@pytest.mark.parametrize("transport", ["pipe", "socket"])
@pytest.mark.parametrize("kill_at", [1, 3])
def test_worker_kill_mid_stream_restores_bit_identity(transport, kill_at):
    """SIGKILL a shard worker mid-stream: the coordinator reconnects,
    replays its restore record, re-issues the in-flight op -- and the stream's
    remainder stays bit-identical to an undisturbed session.  This is
    the reconnect-with-restore acceptance criterion, on both
    transports."""
    population = fixed_population()
    reference = make_session(population, None, "reject", 7, "pipe")
    try:
        ref_events = drive(reference, FIXED_STREAM, 7)
        survivor = make_session(population, None, "reject", 7, transport)
        try:
            events = drive(survivor, FIXED_STREAM, 7, kill_at=kill_at)
            assert_bit_identical(reference, ref_events, survivor, events)
        finally:
            survivor.close()
    finally:
        reference.close()


@pytest.mark.parametrize("transport", ["pipe", "socket"])
def test_worker_kill_during_alpha_clamp_stream(transport):
    """The clamp policy's rollbacks lower the restore record's ``low``
    mark; a worker killed in the middle of such a stream must still
    land bit-identical."""
    population = fixed_population()
    stream = [(0.5, None), (0.6, None), (0.7, None), (0.4, None)]
    reference = make_session(population, 1.2, "clamp", 13, "pipe")
    try:
        ref_events = drive(reference, stream, 13)
        survivor = make_session(population, 1.2, "clamp", 13, transport)
        try:
            events = drive(survivor, stream, 13, kill_at=2)
            assert_bit_identical(reference, ref_events, survivor, events)
        finally:
            survivor.close()
    finally:
        reference.close()


@pytest.mark.parametrize("transport", ["pipe", "socket"])
def test_kill_then_checkpoint_then_kill(transport, tmp_path):
    """A save() after a restore resets the restore record; a second
    kill must restore from the fresh checkpoint, not replay steps the
    checkpoint already holds."""
    population = fixed_population()
    reference = make_session(population, None, "reject", 21, "pipe")
    try:
        ref_events = drive(reference, FIXED_STREAM, 21)
        survivor = make_session(population, None, "reject", 21, transport)
        try:
            rng = np.random.default_rng(21)
            events = []
            for step, (epsilon, overrides) in enumerate(FIXED_STREAM):
                if step in (1, 4):
                    victim = survivor.backend._procs[0]
                    os.kill(victim.pid, signal.SIGKILL)
                    victim.join(timeout=10)
                snapshot = rng.integers(0, 4, size=N_USERS)
                events.append(
                    session_ingest(survivor, snapshot, epsilon, overrides)
                )
                if step == 2:
                    survivor.backend.save(str(tmp_path / "ckpt"))
            assert_bit_identical(reference, ref_events, survivor, events)
        finally:
            survivor.close()
    finally:
        reference.close()


def session_ingest(session, snapshot, epsilon, overrides):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return session.ingest(snapshot, epsilon=epsilon, overrides=overrides)


@pytest.mark.parametrize("transport", ["pipe", "socket"])
def test_batched_probe_survives_worker_kill(transport):
    """``probe_scales`` is read-only and the restore record ignores it: a
    worker SIGKILLed right before a clamp-heavy step is restored from
    the record and re-serves the whole probe batch, and the clamped
    scales stay bit-identical to an in-process fleet session -- both
    against the batched bisection and the serial reference loop."""
    population = fixed_population()
    stream = [(0.5, None), (0.7, {1: 0.3}), (0.6, None), (0.8, None)]

    def fleet_session(serial_clamp):
        session = ReleaseSession(
            SessionConfig(
                correlations=population,
                budgets=0.1,  # overridden per ingest
                query=HistogramQuery(4),
                alpha=1.0,
                alpha_mode="clamp",
                backend="fleet",
                seed=33,
            )
        )
        if serial_clamp:
            session._clamp_scale = serial_clamp_scale(session)
        return session

    reference = fleet_session(False)
    ref_events = drive(reference, stream, 33)
    assert any(e.status == "clamped" for e in ref_events)

    serial = fleet_session(True)
    serial_events = drive(serial, stream, 33)
    assert_bit_identical(reference, ref_events, serial, serial_events)

    survivor = make_session(population, 1.0, "clamp", 33, transport)
    try:
        events = drive(survivor, stream, 33, kill_at=1)
        assert_bit_identical(reference, ref_events, survivor, events)
    finally:
        survivor.close()

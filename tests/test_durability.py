"""Tests for the durability subsystem: WAL framing, torn-tail repair,
compaction crash stages, crash-recovery parity and log-replay
re-sharding.

The hard guarantee under test: a session recovered from its write-ahead
log (snapshot + tail replay) is *bit-identical* to the uninterrupted
run -- same events, same noise draws, same TPL series, same alpha
decisions -- on the scalar, fleet and sharded backends, and stays
bit-identical when recovery re-shards the backend to a different worker
count.
"""

import dataclasses
import json
import os
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from strategies import transition_matrices

from repro.data import HistogramQuery
from repro.durability import (
    WriteAheadLog,
    decode_window,
    encode_window,
    inspect_wal,
    is_wal_dir,
    reshard_checkpoint,
)
from repro.durability.wal import (
    _FRAME,
    _HEADER,
    decode_rng_state,
    encode_rng_state,
    merge_records,
    split_record,
)
from repro.fleet import FleetAccountant, load_checkpoint, save_checkpoint
from repro.markov import two_state_matrix
from repro.obs import MetricsRegistry
from repro.service import (
    ReleaseSession,
    ReleaseWindow,
    SessionConfig,
    WindowStep,
)

N_USERS = 5
N_STATES = 3


def make_config(tmp, **kwargs):
    P = two_state_matrix(0.8, 0.1)
    defaults = dict(
        correlations={u: (P, P) for u in range(N_USERS)},
        budgets=0.1,
        query=HistogramQuery(N_STATES),
        backend="fleet",
        seed=7,
        wal_dir=Path(tmp) / "wal",
    )
    defaults.update(kwargs)
    return SessionConfig(**defaults)


def drive(session, n, *, seed=3, start=0):
    """Ingest ``n`` deterministic snapshots (resumable via ``start``)."""
    rng = np.random.default_rng(seed)
    snapshots = rng.integers(0, N_STATES, size=(start + n, N_USERS))
    events = []
    for t in range(start, start + n):
        events.append(session.ingest(snapshots[t]))
    return events


def crash(session):
    """Abandon ``session`` the way a SIGKILL would: release its WAL's
    segment handles with no sync and no clean close (``append`` has
    already flushed, so the bytes on disk are what a killed process
    leaves), and stop a sharded backend's worker processes."""
    session._wal._close_writers()
    close = getattr(session.backend, "close", None)
    if close is not None:
        close()


def payloads(events, *, drop_backend=False):
    out = []
    for event in events:
        payload = event.payload(include_true_answer=True)
        if drop_backend:
            payload.pop("backend")
        out.append(payload)
    return out


# ---------------------------------------------------------------------------
# Codec round trips
# ---------------------------------------------------------------------------
class TestCodec:
    def test_window_round_trip(self):
        window = ReleaseWindow(
            [
                WindowStep(
                    snapshot=np.array([0, 1, 2], dtype=np.int64),
                    epsilon=0.25,
                    overrides={3: 0.1, "tenant-a": 0.0},
                ),
                WindowStep(snapshot=None, epsilon=None, overrides=None),
            ]
        )
        decoded = decode_window(
            json.loads(json.dumps(encode_window(window)))
        )
        assert np.array_equal(decoded.steps[0].snapshot, window.steps[0].snapshot)
        assert decoded.steps[0].snapshot.dtype == np.int64
        assert decoded.steps[0].epsilon == 0.25
        assert decoded.steps[0].overrides == {3: 0.1, "tenant-a": 0.0}
        assert decoded.steps[1].snapshot is None
        assert decoded.steps[1].epsilon is None
        assert decoded.steps[1].overrides is None

    def test_split_merge_round_trip(self):
        record = encode_window(
            ReleaseWindow(
                [
                    WindowStep(
                        snapshot=np.array([1, 0]),
                        epsilon=0.5,
                        overrides={0: 0.1, 1: 0.2, 2: 0.3},
                    )
                ]
            )
        )
        parts = split_record(record, 3, lambda user: user % 3)
        # Partition 0 carries the snapshot and budget; others are
        # skeleton steps with only their shard's overrides.
        assert "snapshot" in parts[0]["steps"][0]
        assert "snapshot" not in parts[1]["steps"][0]
        assert parts[1]["steps"][0]["overrides"] == [[1, 0.2]]
        merged = merge_records(parts)
        assert decode_window(merged).steps[0].overrides == {
            0: 0.1,
            1: 0.2,
            2: 0.3,
        }
        assert np.array_equal(
            decode_window(merged).steps[0].snapshot, [1, 0]
        )

    def test_rng_state_round_trip(self):
        state = np.random.default_rng(5).bit_generator.state
        encoded = json.loads(json.dumps(encode_rng_state(state)))
        assert decode_rng_state(encoded) == state

    def test_rng_state_round_trips_ndarrays(self):
        state = {"nested": {"key": np.arange(4, dtype=np.uint32)}}
        decoded = decode_rng_state(
            json.loads(json.dumps(encode_rng_state(state)))
        )
        assert np.array_equal(decoded["nested"]["key"], np.arange(4))
        assert decoded["nested"]["key"].dtype == np.uint32


# ---------------------------------------------------------------------------
# WAL basics
# ---------------------------------------------------------------------------
def one_step_window(epsilon=0.1):
    return ReleaseWindow(
        [WindowStep(snapshot=np.array([0, 1, 2, 1, 0]), epsilon=epsilon)]
    )


class TestWriteAheadLog:
    def test_append_read_round_trip(self, tmp_path):
        wal = WriteAheadLog.create(tmp_path / "wal")
        wal.append(one_step_window(0.1))
        wal.append(one_step_window(0.2))
        wal.close()
        reopened = WriteAheadLog.open(tmp_path / "wal")
        records = reopened.tail_records()
        assert [r["steps"][0]["epsilon"] for r in records] == [0.1, 0.2]
        assert reopened.tail_count == 2

    def test_create_refuses_existing_log(self, tmp_path):
        WriteAheadLog.create(tmp_path / "wal").close()
        with pytest.raises(ValueError, match="already holds"):
            WriteAheadLog.create(tmp_path / "wal")

    def test_open_rejects_non_wal_directory(self, tmp_path):
        with pytest.raises(ValueError, match="does not hold"):
            WriteAheadLog.open(tmp_path)

    def test_open_rejects_torn_manifest(self, tmp_path):
        WriteAheadLog.create(tmp_path / "wal").close()
        (tmp_path / "wal" / "wal_manifest.json").write_text('{"format": 1,')
        with pytest.raises(ValueError, match="torn or corrupt WAL manifest"):
            WriteAheadLog.open(tmp_path / "wal")

    def test_rejects_unknown_fsync_mode(self, tmp_path):
        with pytest.raises(ValueError, match="fsync mode"):
            WriteAheadLog.create(tmp_path / "wal", fsync="sometimes")

    def test_append_after_close_raises(self, tmp_path):
        wal = WriteAheadLog.create(tmp_path / "wal")
        wal.close()
        with pytest.raises(ValueError, match="closed"):
            wal.append(one_step_window())

    def test_fsync_never_still_round_trips(self, tmp_path):
        wal = WriteAheadLog.create(tmp_path / "wal", fsync="never")
        wal.append(one_step_window())
        wal.close()
        assert WriteAheadLog.open(tmp_path / "wal").tail_count == 1

    def test_fsync_counter_only_in_always_mode(self, tmp_path):
        registry = MetricsRegistry()
        wal = WriteAheadLog.create(tmp_path / "a", registry=registry)
        wal.append(one_step_window())
        wal.close()
        assert registry.counter("wal.fsyncs").value >= 1
        lazy = MetricsRegistry()
        wal = WriteAheadLog.create(
            tmp_path / "b", fsync="never", registry=lazy
        )
        wal.append(one_step_window())
        wal.close()
        assert lazy.counter("wal.fsyncs").value == 0

    def test_inspect_reports_counts_and_sizes(self, tmp_path):
        wal = WriteAheadLog.create(tmp_path / "wal", partitions=2)
        wal.append(one_step_window(), owner_of=lambda user: 0)
        wal.close()
        info = inspect_wal(tmp_path / "wal")
        assert info["partitions"] == 2
        assert info["tail_records"] == 1
        assert info["total_records"] == 1
        assert info["torn"] is False
        assert len(info["files"]) == 2
        assert all(entry["bytes"] > len(_HEADER) for entry in info["files"])

    def test_is_wal_dir(self, tmp_path):
        assert not is_wal_dir(tmp_path)
        WriteAheadLog.create(tmp_path / "wal").close()
        assert is_wal_dir(tmp_path / "wal")


# ---------------------------------------------------------------------------
# Crash injection: torn tails
# ---------------------------------------------------------------------------
def segment_paths(directory):
    return sorted(Path(directory).glob("segment-*.log"))


class TestTornTails:
    def make_log(self, directory, appends=3, partitions=1):
        wal = WriteAheadLog.create(directory, partitions=partitions)
        for i in range(appends):
            wal.append(
                one_step_window(0.1 * (i + 1)), owner_of=lambda user: 0
            )
        wal.close()
        return wal

    def test_mid_record_truncation_repaired(self, tmp_path):
        self.make_log(tmp_path / "wal", appends=3)
        (path,) = segment_paths(tmp_path / "wal")
        # Kill the process mid-append: cut the last record in half.
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 10])
        assert inspect_wal(tmp_path / "wal")["torn"] is True
        wal = WriteAheadLog.open(tmp_path / "wal")
        assert wal.tail_count == 2
        assert [r["steps"][0]["epsilon"] for r in wal.tail_records()] == [
            pytest.approx(0.1),
            pytest.approx(0.2),
        ]
        # Repair truncated the file; re-open finds nothing torn.
        assert inspect_wal(tmp_path / "wal")["torn"] is False

    def test_torn_frame_header_repaired(self, tmp_path):
        self.make_log(tmp_path / "wal", appends=2)
        (path,) = segment_paths(tmp_path / "wal")
        with open(path, "ab") as handle:
            handle.write(struct.pack("<I", 40))  # half a frame header
        assert WriteAheadLog.open(tmp_path / "wal").tail_count == 2

    def test_corrupt_crc_truncates_from_there(self, tmp_path):
        self.make_log(tmp_path / "wal", appends=3)
        (path,) = segment_paths(tmp_path / "wal")
        data = bytearray(path.read_bytes())
        # Flip a payload byte of the *second* record: it and everything
        # after it are unreadable.
        first_len = _FRAME.unpack_from(data, len(_HEADER))[0]
        second_payload = len(_HEADER) + _FRAME.size + first_len + _FRAME.size
        data[second_payload] ^= 0xFF
        path.write_bytes(bytes(data))
        assert WriteAheadLog.open(tmp_path / "wal").tail_count == 1

    def test_partitions_truncated_to_common_count(self, tmp_path):
        # Crash between the partition writes of one append: partition 0
        # has the record, partition 1 does not.
        self.make_log(tmp_path / "wal", appends=2, partitions=2)
        p0, p1 = segment_paths(tmp_path / "wal")
        data = p1.read_bytes()
        length = _FRAME.unpack_from(data, len(_HEADER))[0]
        p1.write_bytes(data[: len(_HEADER) + _FRAME.size + length])
        wal = WriteAheadLog.open(tmp_path / "wal")
        assert wal.tail_count == 1
        # Partition 0 was rolled back too.
        records, _, torn = __import__(
            "repro.durability.wal", fromlist=["_scan_segment"]
        )._scan_segment(p0)
        assert len(records) == 1 and not torn

    def test_appends_continue_after_repair(self, tmp_path):
        self.make_log(tmp_path / "wal", appends=2)
        (path,) = segment_paths(tmp_path / "wal")
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        wal = WriteAheadLog.open(tmp_path / "wal")
        wal.append(one_step_window(0.9))
        wal.close()
        records = WriteAheadLog.open(tmp_path / "wal").tail_records()
        assert [r["steps"][0]["epsilon"] for r in records] == [
            pytest.approx(0.1),
            pytest.approx(0.9),
        ]


# ---------------------------------------------------------------------------
# Compaction: crash at every stage
# ---------------------------------------------------------------------------
class TestCompaction:
    def run_session(self, tmp, steps=6, **kwargs):
        config = make_config(tmp, **kwargs)
        session = ReleaseSession(config)
        drive(session, steps)
        return config, session

    def test_compaction_folds_tail_into_snapshot(self, tmp_path):
        config, session = self.run_session(tmp_path, steps=6)
        session.compact_wal()
        session.close()
        info = inspect_wal(config.wal_dir)
        assert info["base_records"] == 6
        assert info["tail_records"] == 0
        assert info["snapshot_horizon"] == 6
        assert info["rng_state_saved"] is True

    def test_compaction_cadence(self, tmp_path):
        config, session = self.run_session(
            tmp_path, steps=7, wal_compact_every=3
        )
        session.close()
        info = inspect_wal(config.wal_dir)
        assert info["base_records"] == 6  # two compactions at 3 and 6
        assert info["tail_records"] == 1
        assert info["total_records"] == 7

    def test_orphan_snapshot_tmp_swept(self, tmp_path):
        config, session = self.run_session(tmp_path)
        session.close()
        # Crash during snapshot write: a half-written .tmp directory.
        orphan = Path(config.wal_dir) / "snapshot-000001.tmp"
        orphan.mkdir()
        (orphan / "junk.npz").write_bytes(b"partial")
        session = ReleaseSession.recover(config)
        session.close()
        assert not orphan.exists()
        assert len(session.events) == 6  # replayed tail intact

    def test_orphan_future_segments_swept(self, tmp_path):
        config, session = self.run_session(tmp_path)
        session.close()
        # Crash after writing fresh segments but before the manifest
        # swap: seq-1 files exist but the manifest still points at seq-0.
        orphan = Path(config.wal_dir) / "segment-000001-p0.log"
        orphan.write_bytes(_HEADER)
        session = ReleaseSession.recover(config)
        session.close()
        assert not orphan.exists()

    def test_stale_segments_after_swap_swept(self, tmp_path):
        config, session = self.run_session(tmp_path)
        session.compact_wal()
        session.close()
        # Crash after the manifest swap but before cleanup: resurrect
        # the pre-compaction segment and snapshot.
        stale_seg = Path(config.wal_dir) / "segment-000000-p0.log"
        stale_seg.write_bytes(_HEADER)
        stale_snap = Path(config.wal_dir) / "snapshot-000000"
        stale_snap.mkdir()
        session = ReleaseSession.recover(config)
        session.close()
        assert not stale_seg.exists()
        assert not stale_snap.exists()
        assert session.backend.horizon == 6

    def test_compact_without_wal_raises(self, tmp_path):
        session = ReleaseSession(make_config(tmp_path, wal_dir=None))
        with pytest.raises(ValueError, match="no write-ahead log"):
            session.compact_wal()


# ---------------------------------------------------------------------------
# Crash recovery: bit-identical to the uninterrupted run
# ---------------------------------------------------------------------------
BACKENDS = ["scalar", "fleet"]


def baseline_config(tmp, backend, **kwargs):
    extra = {}
    if backend == "scalar":
        extra["backend"] = "scalar"
    elif backend == "sharded":
        extra.update(backend="fleet", shards=2)
    else:
        extra["backend"] = "fleet"
    extra.update(kwargs)
    return make_config(tmp, **extra)


class TestCrashRecovery:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_recovery_bit_identical(self, backend, tmp_path):
        total, crash_at = 10, 6
        # Uninterrupted baseline (no WAL: logging must not change draws).
        base = ReleaseSession(
            baseline_config(tmp_path / "base", backend, wal_dir=None)
        )
        base_events = drive(base, total)
        base.close()

        config = baseline_config(tmp_path / "live", backend)
        crashed = ReleaseSession(config)
        drive(crashed, crash_at)
        crash(crashed)

        recovered = ReleaseSession.recover(config)
        assert payloads(recovered.events) == payloads(base_events[:crash_at])
        tail_events = drive(recovered, total - crash_at, start=crash_at)
        recovered.close()
        assert payloads(tail_events) == payloads(base_events[crash_at:])
        assert recovered.max_tpl() == base.max_tpl()
        for user in range(N_USERS):
            pa, pb = base.profile(user), recovered.profile(user)
            assert np.array_equal(pa.tpl, pb.tpl)
            assert np.array_equal(pa.epsilons, pb.epsilons)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_recovery_with_compaction_bit_identical(self, backend, tmp_path):
        total, crash_at = 12, 8
        base = ReleaseSession(
            baseline_config(tmp_path / "base", backend, wal_dir=None)
        )
        base_events = drive(base, total)
        base.close()

        config = baseline_config(
            tmp_path / "live", backend, wal_compact_every=3
        )
        crashed = ReleaseSession(config)
        drive(crashed, crash_at)
        crash(crashed)

        recovered = ReleaseSession.recover(config)
        # Only the tail since the last compaction is replayed as events.
        replayed = len(recovered.events)
        assert replayed < crash_at
        assert payloads(recovered.events) == payloads(
            base_events[crash_at - replayed : crash_at]
        )
        tail_events = drive(recovered, total - crash_at, start=crash_at)
        recovered.close()
        assert payloads(tail_events) == payloads(base_events[crash_at:])
        assert recovered.max_tpl() == base.max_tpl()
        for user in range(N_USERS):
            assert np.array_equal(
                base.profile(user).tpl, recovered.profile(user).tpl
            )

    def test_recovery_after_torn_tail_drops_only_the_torn_append(
        self, tmp_path
    ):
        config = make_config(tmp_path)
        crashed = ReleaseSession(config)
        drive(crashed, 5)
        crash(crashed)
        # Tear the last record: the crash hit mid-append, so the fifth
        # ingest never completed and recovery resumes at four.
        (path,) = segment_paths(config.wal_dir)
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        recovered = ReleaseSession.recover(config)
        recovered.close()
        assert len(recovered.events) == 4
        assert recovered.backend.horizon == 4

    def test_sharded_recovery_bit_identical(self, tmp_path):
        total, crash_at = 8, 5
        base = ReleaseSession(
            baseline_config(tmp_path / "base", "sharded", wal_dir=None)
        )
        base_events = drive(base, total)
        base_tpl = base.max_tpl()
        base.close()

        config = baseline_config(
            tmp_path / "live", "sharded", wal_compact_every=3
        )
        crashed = ReleaseSession(config)
        drive(crashed, crash_at)
        crash(crashed)

        recovered = ReleaseSession.recover(config)
        replayed = len(recovered.events)
        assert payloads(recovered.events) == payloads(
            base_events[crash_at - replayed : crash_at]
        )
        tail_events = drive(recovered, total - crash_at, start=crash_at)
        assert payloads(tail_events) == payloads(base_events[crash_at:])
        assert recovered.max_tpl() == base_tpl
        recovered.close()

    def test_recovered_session_keeps_logging(self, tmp_path):
        config = make_config(tmp_path)
        session = ReleaseSession(config)
        drive(session, 3)
        session.close()
        recovered = ReleaseSession.recover(config)
        drive(recovered, 2, start=3)
        recovered.close()
        assert inspect_wal(config.wal_dir)["total_records"] == 5

    def test_recover_without_wal_dir_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no WAL directory"):
            ReleaseSession.recover(make_config(tmp_path, wal_dir=None))

    def test_restore_delegates_to_recover_for_wal_dirs(self, tmp_path):
        config = make_config(tmp_path)
        session = ReleaseSession(config)
        drive(session, 4)
        session.close()
        restored = ReleaseSession.restore(config, config.wal_dir)
        restored.close()
        assert restored.backend.horizon == 4
        assert restored.wal is not None

    def test_replay_metrics_counted(self, tmp_path):
        config = make_config(tmp_path)
        session = ReleaseSession(config)
        drive(session, 4)
        session.close()
        registry = MetricsRegistry()
        recovered = ReleaseSession.recover(config, registry=registry)
        recovered.close()
        assert registry.counter("wal.replayed_windows").value == 4
        assert registry.counter("wal.replay_errors").value == 0


# ---------------------------------------------------------------------------
# Property-based crash-recovery parity (alpha decisions, overrides,
# zero budgets, arbitrary crash points)
# ---------------------------------------------------------------------------
@st.composite
def wal_streams(draw):
    horizon = draw(st.integers(3, 6))
    steps = []
    for _ in range(horizon):
        epsilon = draw(
            st.one_of(st.just(0.0), st.floats(0.01, 0.5, allow_nan=False))
        )
        users = draw(
            st.lists(st.integers(0, N_USERS - 1), unique=True, max_size=2)
        )
        overrides = {
            u: draw(st.floats(0.0, 0.8, allow_nan=False)) for u in users
        }
        steps.append((epsilon, overrides or None))
    return steps


def run_wal_stream(config, stream, seed, *, upto=None, session=None):
    if session is None:
        session = ReleaseSession(config)
    rng = np.random.default_rng(seed)
    events = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for i, (epsilon, overrides) in enumerate(stream):
            snapshot = rng.integers(0, 4, size=N_USERS)
            if upto is not None and i < upto:
                continue  # replayed already; just advance the rng
            events.append(
                session.ingest(snapshot, epsilon=epsilon, overrides=overrides)
            )
    return session, events


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    matrix=transition_matrices(min_n=2, max_n=4),
    stream=wal_streams(),
    policy=st.sampled_from(
        [(None, "reject"), (0.3, "reject"), (0.3, "clamp"), (0.3, "warn")]
    ),
    crash_frac=st.floats(0.2, 0.9),
    compact_every=st.one_of(st.none(), st.just(2)),
    seed=st.integers(0, 2**16),
)
@pytest.mark.parametrize("backend", BACKENDS)
def test_crash_recovery_parity(
    backend, matrix, stream, policy, crash_frac, compact_every, seed
):
    """Crash anywhere in any stream -- zero budgets, per-user overrides
    and alpha decisions landing before and after the crash -- and the
    recovered session finishes the stream bit-identically."""
    alpha, mode = policy
    crash_at = max(1, int(len(stream) * crash_frac))
    with tempfile.TemporaryDirectory() as tmp:
        kwargs = dict(
            correlations={u: (matrix, matrix) for u in range(N_USERS)},
            budgets=0.1,
            query=HistogramQuery(4),
            alpha=alpha,
            alpha_mode=mode,
            backend=backend,
            seed=seed,
        )
        base = ReleaseSession(SessionConfig(**kwargs))
        _, base_events = run_wal_stream(None, stream, seed, session=base)

        config = SessionConfig(
            wal_dir=Path(tmp) / "wal",
            wal_compact_every=compact_every,
            **kwargs,
        )
        crashed, _ = run_wal_stream(config, stream[:crash_at], seed)
        crash(crashed)

        recovered = ReleaseSession.recover(config)
        replayed = len(recovered.events)
        assert payloads(recovered.events) == payloads(
            base_events[crash_at - replayed : crash_at]
        )
        _, tail_events = run_wal_stream(
            config, stream, seed, upto=crash_at, session=recovered
        )
        assert payloads(tail_events) == payloads(base_events[crash_at:])
        assert recovered.max_tpl() == base.max_tpl()
        for user in range(N_USERS):
            pa, pb = base.profile(user), recovered.profile(user)
            assert np.array_equal(pa.epsilons, pb.epsilons)
            assert np.array_equal(pa.bpl, pb.bpl)
            assert np.array_equal(pa.fpl, pb.fpl)
            assert np.array_equal(pa.tpl, pb.tpl)
        recovered.close()


# ---------------------------------------------------------------------------
# Re-sharding: checkpoint-level and by log replay
# ---------------------------------------------------------------------------
def build_fleet(n_users=8, releases=5):
    P = two_state_matrix(0.8, 0.1)
    Q = two_state_matrix(0.6, 0.2)
    fleet = FleetAccountant(
        {u: ((P, P) if u % 2 else (Q, Q)) for u in range(n_users)}
    )
    for i in range(releases):
        fleet.add_release(0.1, overrides={0: 0.05} if i == 2 else None)
    return fleet


class TestReshardCheckpoint:
    def test_reshard_preserves_state(self, tmp_path):
        fleet = build_fleet()
        save_checkpoint(fleet, tmp_path / "src")
        reshard_checkpoint(tmp_path / "src", tmp_path / "dst", 3)
        manifest = json.loads(
            (tmp_path / "dst" / "shard_manifest.json").read_text()
        )
        assert manifest["shards"] == 3
        assert manifest["n_users"] == 8
        users = set()
        tpls = []
        for i in range(3):
            engine = load_checkpoint(tmp_path / "dst" / f"shard_{i}")
            users.update(engine.users)
            if engine.n_users:
                tpls.append(engine.max_tpl())
        assert users == set(range(8))
        assert max(tpls) == fleet.max_tpl()

    def test_reshard_to_one_writes_plain_fleet_checkpoint(self, tmp_path):
        fleet = build_fleet()
        save_checkpoint(fleet, tmp_path / "src")
        reshard_checkpoint(tmp_path / "src", tmp_path / "dst", 1)
        restored = load_checkpoint(tmp_path / "dst")
        assert set(restored.users) == set(fleet.users)
        assert restored.max_tpl() == fleet.max_tpl()
        for user in fleet.users:
            assert np.array_equal(
                restored.profile(user).tpl, fleet.profile(user).tpl
            )

    def test_scalar_checkpoints_cannot_be_resharded(self, tmp_path):
        P = two_state_matrix(0.8, 0.1)
        session = ReleaseSession(
            SessionConfig(
                correlations={0: (P, P)}, budgets=0.1, backend="scalar"
            )
        )
        session.ingest()
        session.checkpoint(tmp_path / "src")
        with pytest.raises(ValueError, match="cannot be resharded"):
            reshard_checkpoint(tmp_path / "src", tmp_path / "dst", 2)

    def test_torn_shard_manifest_refuses_reshard(self, tmp_path):
        fleet = build_fleet()
        save_checkpoint(fleet, tmp_path / "src")
        reshard_checkpoint(tmp_path / "src", tmp_path / "mid", 2)
        (tmp_path / "mid" / "shard_manifest.json").write_text('{"shards":')
        with pytest.raises(ValueError, match="torn or corrupt shard manifest"):
            reshard_checkpoint(tmp_path / "mid", tmp_path / "dst", 3)


class TestReshardByReplay:
    @pytest.mark.parametrize("new_shards", [2, 3])
    def test_recover_into_different_shard_count(self, new_shards, tmp_path):
        """A fleet-backed WAL recovered at ``shards=N`` continues
        bit-identically to the in-process fleet baseline."""
        total, crash_at = 9, 6
        base = ReleaseSession(
            baseline_config(tmp_path / "base", "fleet", wal_dir=None)
        )
        base_events = drive(base, total)
        base.close()

        config = make_config(
            tmp_path / "live", backend="fleet", wal_compact_every=4
        )
        first = ReleaseSession(config)
        drive(first, crash_at)
        first.close()

        sharded_config = dataclasses.replace(config, shards=new_shards)
        recovered = ReleaseSession.recover(sharded_config)
        assert recovered.backend_name == "sharded"
        assert recovered.backend.n_shards == new_shards
        replayed = len(recovered.events)
        assert payloads(recovered.events, drop_backend=True) == payloads(
            base_events[crash_at - replayed : crash_at], drop_backend=True
        )
        tail_events = drive(recovered, total - crash_at, start=crash_at)
        assert payloads(tail_events, drop_backend=True) == payloads(
            base_events[crash_at:], drop_backend=True
        )
        assert recovered.max_tpl() == base.max_tpl()
        for user in range(N_USERS):
            assert np.array_equal(
                base.profile(user).tpl, recovered.profile(user).tpl
            )
        # Recovery rewrote the log for the new shard layout.
        assert recovered.wal.partitions == new_shards
        recovered.close()

    def test_sharded_wal_recovers_at_fewer_shards(self, tmp_path):
        total, crash_at = 8, 5
        base = ReleaseSession(
            baseline_config(tmp_path / "base", "fleet", wal_dir=None)
        )
        base_events = drive(base, total)
        base.close()

        config = make_config(
            tmp_path / "live",
            backend="fleet",
            shards=3,
            wal_compact_every=3,
        )
        first = ReleaseSession(config)
        drive(first, crash_at)
        first.close()

        narrower = dataclasses.replace(config, shards=2)
        recovered = ReleaseSession.recover(narrower)
        assert recovered.backend.n_shards == 2
        tail_events = drive(recovered, total - crash_at, start=crash_at)
        assert payloads(tail_events, drop_backend=True) == payloads(
            base_events[crash_at:], drop_backend=True
        )
        assert recovered.max_tpl() == base.max_tpl()
        recovered.close()

    def test_torn_snapshot_shard_manifest_refuses_recovery(self, tmp_path):
        config = make_config(
            tmp_path, backend="fleet", shards=2, wal_compact_every=2
        )
        session = ReleaseSession(config)
        drive(session, 4)
        session.close()
        snapshots = sorted(Path(config.wal_dir).glob("snapshot-*"))
        assert snapshots
        (snapshots[-1] / "shard_manifest.json").write_text('{"shards":')
        with pytest.raises(ValueError, match="torn or corrupt shard manifest"):
            ReleaseSession.recover(config)


# ---------------------------------------------------------------------------
# Group commit (wal_fsync="batch")
# ---------------------------------------------------------------------------
class TestGroupCommit:
    """``wal_fsync="batch"`` amortises fsyncs across a burst without
    weakening what the log records: recovery stays bit-identical, and a
    clean close leaves nothing pending a sync."""

    def test_config_accepts_batch_mode(self):
        with tempfile.TemporaryDirectory() as tmp:
            config = make_config(tmp, wal_fsync="batch")
            assert config.wal_fsync == "batch"
        with pytest.raises(ValueError):
            SessionConfig(
                correlations={0: (two_state_matrix(0.8, 0.1),) * 2},
                budgets=0.1,
                wal_fsync="sometimes",
            )

    def test_sync_is_the_durability_point(self):
        with tempfile.TemporaryDirectory() as tmp:
            registry = MetricsRegistry()
            log = WriteAheadLog.create(
                Path(tmp) / "wal", fsync="batch", registry=registry
            )
            for _ in range(5):
                log.append(one_step_window())
            fsyncs = registry.counter("wal.fsyncs")
            assert fsyncs.value == 0  # appends only mark dirty
            log.sync()
            assert fsyncs.value == 1  # one partition, one fsync
            assert registry.counter("wal.group_commits").value == 1
            log.sync()  # nothing dirty: no-op
            assert fsyncs.value == 1
            log.close()

    def test_batch_mode_recovery_is_bit_identical(self):
        with tempfile.TemporaryDirectory() as tmp_a, \
                tempfile.TemporaryDirectory() as tmp_b:
            straight = ReleaseSession(make_config(tmp_a, wal_fsync="always"))
            batched = ReleaseSession(make_config(tmp_b, wal_fsync="batch"))
            expected = payloads(drive(straight, 6))
            assert payloads(drive(batched, 6)) == expected
            batched.close()
            recovered = ReleaseSession.recover(
                make_config(tmp_b, wal_fsync="batch")
            )
            assert payloads(drive(recovered, 2, start=6)) == payloads(
                drive(straight, 2, start=6)
            )
            recovered.close()
            straight.close()

    def test_queued_burst_shares_one_group_commit(self):
        import asyncio

        with tempfile.TemporaryDirectory() as tmp:
            registry = MetricsRegistry()
            config = make_config(
                tmp, wal_fsync="batch", window_size=4, queue_maxsize=8
            )
            session = ReleaseSession(config, registry=registry)
            rng = np.random.default_rng(3)
            snapshots = rng.integers(0, N_STATES, size=(8, N_USERS))

            async def scenario():
                async with session:
                    return await asyncio.gather(
                        *(session.aingest(s) for s in snapshots)
                    )

            events = asyncio.run(scenario())
            assert [e.t for e in events] == list(range(1, 9))
            commits = registry.counter("wal.group_commits").value
            # 8 submissions over window_size=4 -> >= 2 windows appended,
            # but the burst shares fewer syncs than windows.
            assert 1 <= commits <= 2
            assert session.summary()["queue"]["group_commits"] == commits
            session.close()

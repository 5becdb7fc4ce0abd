"""Parity and lifecycle tests for the process-sharded fleet backend.

The hard guarantee extends the existing scalar/fleet and
windowed/per-event parity suites: a :class:`ShardedFleetBackend` at any
shard count is *bit-identical* to the single-process
:class:`FleetAccountantBackend` on identical streams -- events, TPL
series, alpha decisions (including clamp's probe-and-rollback
bisection), per-user overrides (routed to the owning shard), and
checkpoint/restore taken mid-stream.
"""

import dataclasses
import os
import signal
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_service_parity import (
    N_USERS,
    alpha_policies,
    populations,
    run_stream,
    streams,
)

from repro.data import HistogramQuery
from repro.markov import two_state_matrix
from repro.service import (
    FleetAccountantBackend,
    ReleaseSession,
    ReleaseWindow,
    SessionConfig,
    ShardedFleetBackend,
    WindowStep,
    make_backend,
    shard_of_digest,
)
from repro.service.sharding import SHARD_MANIFEST_NAME


def run_stream_sharded(population, stream, alpha, mode, seed, shards):
    """The same stream as :func:`run_stream`, on a sharded session."""
    session = ReleaseSession(
        SessionConfig(
            correlations=population,
            budgets=0.1,  # overridden per ingest
            query=HistogramQuery(4),
            alpha=alpha,
            alpha_mode=mode,
            backend="fleet",
            shards=shards,
            seed=seed,
        )
    )
    rng = np.random.default_rng(seed)  # identical snapshots per backend
    events = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for epsilon, overrides in stream:
            snapshot = rng.integers(0, 4, size=N_USERS)
            events.append(
                session.ingest(snapshot, epsilon=epsilon, overrides=overrides)
            )
    return session, events


@settings(
    max_examples=10,
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
def test_sharded_bit_identical_to_fleet(population, stream, policy, seed, shards):
    """Full-session parity: payloads (noise included), worst TPL and
    per-user leakage series match the single-process fleet backend bit
    for bit, across overrides, zero budgets and alpha decisions."""
    alpha, mode = policy
    fleet, fleet_events = run_stream(
        "fleet", population, stream, alpha, mode, seed
    )
    sharded, sharded_events = run_stream_sharded(
        population, stream, alpha, mode, seed, shards
    )
    try:
        for a, b in zip(fleet_events, sharded_events):
            pa = a.payload(include_true_answer=True)
            pb = b.payload(include_true_answer=True)
            assert pa.pop("backend") == "fleet"
            assert pb.pop("backend") == "sharded"
            assert pa == pb
        assert fleet.max_tpl() == sharded.max_tpl()
        for user in population:
            pa = fleet.profile(user)
            pb = sharded.profile(user)
            assert np.array_equal(pa.epsilons, pb.epsilons)
            assert np.array_equal(pa.bpl, pb.bpl)
            assert np.array_equal(pa.fpl, pb.fpl)
            assert np.array_equal(pa.tpl, pb.tpl)
    finally:
        sharded.close()


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    population=populations(),
    stream=streams(),
    seed=st.integers(0, 2**16),
)
def test_sharded_checkpoint_restore_mid_stream(population, stream, seed, tmp_path_factory):
    """Checkpoint after a prefix of the stream, restore, continue with
    the suffix: the restored session finishes bit-identical to an
    uninterrupted single-process fleet run (accounting-only, so noise
    state is out of the picture)."""
    directory = tmp_path_factory.mktemp("shard-ckpt")
    config = SessionConfig(
        correlations=population,
        budgets=0.1,
        alpha=None,
        backend="fleet",
        shards=2,
        seed=seed,
    )
    cut = max(1, len(stream) // 2)
    session = ReleaseSession(config)
    try:
        for epsilon, overrides in stream[:cut]:
            session.ingest(epsilon=epsilon, overrides=overrides)
        session.checkpoint(directory)
    finally:
        session.close()

    restored = ReleaseSession.restore(config, directory)
    try:
        assert restored.backend_name == "sharded"
        assert restored.horizon == cut
        for epsilon, overrides in stream[cut:]:
            restored.ingest(epsilon=epsilon, overrides=overrides)

        reference, _ = run_stream(
            "fleet", population, stream, None, "reject", seed
        )
        assert restored.max_tpl() == reference.max_tpl()
        for user in population:
            pa = reference.profile(user)
            pb = restored.profile(user)
            assert np.array_equal(pa.epsilons, pb.epsilons)
            assert np.array_equal(pa.bpl, pb.bpl)
            assert np.array_equal(pa.fpl, pb.fpl)
            assert np.array_equal(pa.tpl, pb.tpl)
    finally:
        restored.close()


RECORD_USERS = 6
_budgets = st.sampled_from([0.0, 0.05, 0.1, 0.3])
_overrides = st.dictionaries(
    st.integers(0, RECORD_USERS - 1), _budgets, max_size=2
)
_record_ops = st.tuples(
    st.sampled_from([None, None, 0, 1]),  # shard to SIGKILL before the op
    st.sampled_from(["window", "window", "rollback", "save", "probe"]),
    st.lists(st.tuples(_budgets, _overrides), min_size=1, max_size=3),
    st.integers(1, 4),
)


def record_population():
    m = two_state_matrix(0.8, 0.1)
    n = two_state_matrix(0.5, 0.2)
    k = two_state_matrix(0.9, 0.3)
    pairs = [(m, m), (n, n), (k, m)]
    return {u: pairs[u % len(pairs)] for u in range(RECORD_USERS)}


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(program=st.lists(_record_ops, min_size=6, max_size=14))
def test_restore_record_matches_fleet_through_kills(program, tmp_path_factory):
    """Random windows with overrides, rollbacks (also below the last
    checkpoint), saves and probes, each possibly hit by a SIGKILL of a
    worker just before it: after every op the sharded backend answers
    exactly as the single-process fleet backend -- worsts, probes, max
    TPL -- and every user's profile matches at the end.  A killed worker
    is rebuilt from the last checkpoint (or the original partition) plus
    the restore record, then the op in flight is re-issued."""
    directory = tmp_path_factory.mktemp("record")
    population = record_population()
    reference = FleetAccountantBackend(population)
    sharded = ShardedFleetBackend(population, shards=2)
    scales = [0.25, 0.5, 1.0]
    try:
        for step, (victim, op, steps, n) in enumerate(program):
            if victim is not None:
                proc = sharded._procs[victim]
                os.kill(proc.pid, signal.SIGKILL)
                proc.join(timeout=10)
            if op == "window":
                window = ReleaseWindow(
                    WindowStep(epsilon=eps, overrides=ovr or None)
                    for eps, ovr in steps
                )
                assert np.array_equal(
                    sharded.add_window(window).max_tpls,
                    reference.add_window(window).max_tpls,
                )
            elif op == "rollback":
                n = min(n, reference.horizon)
                reference.rollback(n)
                sharded.rollback(n)
            elif op == "save":
                sharded.save(directory / f"ckpt_{step}")
            else:
                eps, ovr = steps[0]
                assert np.array_equal(
                    sharded.probe_scales(eps, ovr, scales),
                    reference.probe_scales(eps, ovr, scales),
                )
            assert sharded.horizon == reference.horizon
            assert sharded.max_tpl() == reference.max_tpl()
        for user in population:
            pa = reference.profile(user)
            pb = sharded.profile(user)
            assert np.array_equal(pa.epsilons, pb.epsilons)
            assert np.array_equal(pa.bpl, pb.bpl)
            assert np.array_equal(pa.fpl, pb.fpl)
            assert np.array_equal(pa.tpl, pb.tpl)
    finally:
        sharded.close()


class TestShardOfDigest:
    def test_deterministic_and_in_range(self):
        digests = [f"digest-{i}:none" for i in range(50)]
        for shards in (1, 2, 4, 7):
            first = [shard_of_digest(d, shards) for d in digests]
            assert [shard_of_digest(d, shards) for d in digests] == first
            assert all(0 <= s < shards for s in first)

    def test_stable_values(self):
        """The assignment is part of the checkpoint contract: these pins
        fail if the hash ever changes (which would orphan checkpoints)."""
        assert shard_of_digest("none:none", 4) == shard_of_digest("none:none", 4)
        assert shard_of_digest("a:b", 1) == 0

    def test_rejects_bad_shards(self):
        with pytest.raises(ValueError):
            shard_of_digest("a:b", 0)


class TestBackendLifecycle:
    @pytest.fixture
    def population(self):
        m = two_state_matrix(0.8, 0.1)
        n = two_state_matrix(0.5, 0.2)
        return {u: ((m, m) if u % 2 else (n, n)) for u in range(6)}

    def test_make_backend_shard_selection(self, population):
        backend = make_backend(population, shards=2)
        try:
            assert isinstance(backend, ShardedFleetBackend)
            assert backend.name == "sharded"
            assert backend.n_shards == 2
        finally:
            backend.close()
        assert isinstance(
            make_backend(population, shards=1, backend="fleet"),
            FleetAccountantBackend,
        )
        with pytest.raises(ValueError, match="scalar"):
            make_backend(population, backend="scalar", shards=2)
        with pytest.raises(ValueError, match="shards"):
            make_backend(population, shards=0)

    def test_config_rejects_scalar_sharding(self, population):
        with pytest.raises(ValueError, match="scalar"):
            SessionConfig(
                correlations=population,
                budgets=0.1,
                backend="scalar",
                shards=2,
            )
        with pytest.raises(ValueError, match="shards"):
            SessionConfig(correlations=population, budgets=0.1, shards=0)

    def test_users_routed_to_owning_shard(self, population):
        backend = ShardedFleetBackend(population, shards=3)
        try:
            assert sum(backend.shard_sizes()) == backend.n_users == 6
            for user in population:
                assert backend.shard_of(user) < 3
            # Same cohort -> same shard (the partition is by digest).
            assert backend.shard_of(0) == backend.shard_of(2) == backend.shard_of(4)
            assert backend.shard_of(1) == backend.shard_of(3) == backend.shard_of(5)
            with pytest.raises(KeyError):
                backend.shard_of("ghost")
        finally:
            backend.close()

    def test_closed_backend_refuses_queries(self, population):
        backend = ShardedFleetBackend(population, shards=2)
        backend.close()
        backend.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            backend.max_tpl()

    def test_dead_shard_restores_transparently_by_default(self, population):
        """A shard process dying mid-stream is respawned, rebuilt and
        caught up from the coordinator's restore record: the next query
        answers as if nothing happened, bit for bit."""
        backend = ShardedFleetBackend(population, shards=2)
        try:
            before = backend.add_release(0.1)
            victim = backend._procs[0]
            victim.terminate()
            victim.join(timeout=5)
            assert backend.max_tpl() == before
            assert backend.horizon == 1
            # The restored worker keeps accounting identically.
            reference = FleetAccountantBackend(population)
            reference.add_release(0.1)
            assert backend.add_release(0.2) == reference.add_release(0.2)
        finally:
            backend.close()

    def test_dead_shard_fails_the_backend_closed(self, population, tmp_path):
        """A dead shard that cannot be restored (its checkpoint is gone)
        must surface as one clear error and close the backend -- never
        leave surviving shards with unread replies a later query could
        misread as its answer."""
        import shutil

        backend = ShardedFleetBackend(population, shards=2)
        try:
            backend.add_release(0.1)
            backend.save(tmp_path / "ckpt")
            shutil.rmtree(tmp_path / "ckpt")
            victim = backend._procs[0]
            victim.terminate()
            victim.join(timeout=5)
            with pytest.raises(RuntimeError, match="terminated unexpectedly"):
                backend.max_tpl()
            # The failure is terminal and explicit, not a stale read.
            with pytest.raises(RuntimeError, match="closed"):
                backend.max_tpl()
        finally:
            backend.close()

    def test_failed_window_leaves_every_shard_unchanged(self, population):
        backend = ShardedFleetBackend(population, shards=2)
        try:
            backend.add_release(0.1)
            with pytest.raises(KeyError, match="ghost"):
                backend.add_release(0.1, overrides={"ghost": 0.2})
            with pytest.raises(Exception):
                backend.add_release(-1.0)
            assert backend.horizon == 1
            assert backend.max_tpl() == FleetAccountantBackend(
                population
            ).add_release(0.1)
        finally:
            backend.close()

    def test_worker_setup_failure_surfaces_the_real_exception(
        self, population, tmp_path
    ):
        """A worker that cannot build its engine (here: its shard
        checkpoint directory is missing) must relay the actual setup
        exception through the startup handshake, not die into an opaque
        'terminated unexpectedly' on the first command."""
        import shutil

        backend = ShardedFleetBackend(population, shards=2)
        try:
            backend.add_release(0.1)
            backend.save(tmp_path)
        finally:
            backend.close()
        shutil.rmtree(tmp_path / "shard_1")
        with pytest.raises(FileNotFoundError):
            ShardedFleetBackend.restore(tmp_path)

    def test_restore_rejects_checkpoint_with_disagreeing_shards(
        self, population, tmp_path
    ):
        """Shards saved from different states (a torn save) must refuse
        to restore instead of merging phantom releases."""
        import shutil

        backend = ShardedFleetBackend(population, shards=2)
        try:
            backend.add_release(0.1)
            backend.save(tmp_path / "a")
            backend.add_release(0.1)
            backend.save(tmp_path / "b")
        finally:
            backend.close()
        shutil.rmtree(tmp_path / "a" / "shard_1")
        shutil.copytree(tmp_path / "b" / "shard_1", tmp_path / "a" / "shard_1")
        with pytest.raises(ValueError, match="disagrees"):
            ShardedFleetBackend.restore(tmp_path / "a")

    def test_restore_rejects_conflicting_shard_count(self, population, tmp_path):
        backend = ShardedFleetBackend(population, shards=2)
        try:
            backend.add_release(0.1)
            backend.save(tmp_path)
        finally:
            backend.close()
        assert (tmp_path / SHARD_MANIFEST_NAME).exists()
        assert (tmp_path / "shard_0" / "arrays.npz").exists()
        with pytest.raises(ValueError, match="re-sharding"):
            ShardedFleetBackend.restore(tmp_path, shards=4)
        restored = ShardedFleetBackend.restore(tmp_path, shards=2)
        try:
            assert restored.horizon == 1
        finally:
            restored.close()

    def test_session_restore_respects_backend_pins(self, population, tmp_path):
        config = SessionConfig(
            correlations=population, budgets=0.1, backend="fleet", shards=2
        )
        session = ReleaseSession(config)
        try:
            session.ingest()
            session.checkpoint(tmp_path)
        finally:
            session.close()
        with pytest.raises(ValueError, match="backend"):
            ReleaseSession.restore(
                SessionConfig(
                    correlations=population, budgets=0.1, backend="scalar"
                ),
                tmp_path,
            )
        # "auto" (and "fleet") accept the sharded checkpoint as-is.
        restored = ReleaseSession.restore(
            SessionConfig(correlations=population, budgets=0.1), tmp_path
        )
        try:
            assert restored.backend_name == "sharded"
            assert restored.horizon == 1
        finally:
            restored.close()

    def test_restore_rejects_resharding_scalar_checkpoints(
        self, population, tmp_path
    ):
        """Scalar checkpoints replay from their manifest and have no
        cohort structure to shard -- asking for shards on one is still a
        refused misconfiguration."""
        config = SessionConfig(
            correlations=population, budgets=0.1, backend="scalar"
        )
        session = ReleaseSession(config)
        session.ingest()
        session.checkpoint(tmp_path)
        with pytest.raises(ValueError, match="cannot be sharded"):
            ReleaseSession.restore(
                SessionConfig(
                    correlations=population,
                    budgets=0.1,
                    shards=2,
                ),
                tmp_path,
            )

    def test_restore_reshards_fleet_checkpoints(self, population, tmp_path):
        """A fleet checkpoint restored at ``shards=2`` is resharded by
        cohort content-hash (this used to raise): same users, same
        horizon, bit-identical leakage."""
        config = SessionConfig(
            correlations=population, budgets=0.1, backend="fleet"
        )
        session = ReleaseSession(config)
        session.ingest()
        session.checkpoint(tmp_path)
        restored = ReleaseSession.restore(
            SessionConfig(correlations=population, budgets=0.1, shards=2),
            tmp_path,
        )
        try:
            assert restored.backend_name == "sharded"
            assert restored.backend.n_shards == 2
            assert restored.horizon == session.horizon
            assert restored.max_tpl() == session.max_tpl()
            assert set(restored.users) == set(session.users)
        finally:
            restored.close()

    def test_resharded_restore_survives_worker_kill(self, population, tmp_path):
        """A session restored at a different shard count rebuilds a dead
        worker from its resharded copy, which the backend keeps until it
        closes (the copy used to be deleted on return, so the next
        ingest raised 'terminated unexpectedly' from FileNotFoundError).
        The events after the kill match an uninterrupted restore."""
        config = SessionConfig(
            correlations=population,
            budgets=0.1,
            query=HistogramQuery(2),
            backend="fleet",
            shards=2,
            seed=5,
        )
        rng = np.random.default_rng(3)
        session = ReleaseSession(config)
        try:
            for epsilon in (0.1, 0.2, 0.15):
                snapshot = rng.integers(0, 2, size=len(population))
                session.ingest(snapshot, epsilon=epsilon)
            session.checkpoint(tmp_path)
        finally:
            session.close()
        resharded = dataclasses.replace(config, shards=3)
        reference = ReleaseSession.restore(resharded, tmp_path)
        survivor = ReleaseSession.restore(resharded, tmp_path)
        try:
            assert survivor.backend.n_shards == 3
            victim = survivor.backend._procs[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            for epsilon in (0.2, 0.05, 0.3):
                snapshot = rng.integers(0, 2, size=len(population))
                a = reference.ingest(snapshot, epsilon=epsilon)
                b = survivor.ingest(snapshot, epsilon=epsilon)
                assert a.payload(include_true_answer=True) == b.payload(
                    include_true_answer=True
                )
            assert survivor.max_tpl() == reference.max_tpl()
            for user in population:
                pa = reference.profile(user)
                pb = survivor.profile(user)
                assert np.array_equal(pa.tpl, pb.tpl)
            copy = Path(survivor.backend._owned_dir.name)
            assert copy.exists()
        finally:
            reference.close()
            survivor.close()
        assert not copy.exists()  # the copy goes with the backend

    def test_cache_size_bounds_each_worker_cache(self, population):
        """SessionConfig.cache_size must reach the worker processes: each
        shard's private SolutionCache is built at that size."""
        session = ReleaseSession(
            SessionConfig(
                correlations=population,
                budgets=0.1,
                backend="fleet",
                shards=2,
                cache_size=7,
            )
        )
        try:
            session.ingest()
            backend = session.backend
            sizes = [
                backend._call(i, "cache_maxsize")
                for i in range(backend.n_shards)
            ]
            assert sizes == [7, 7]
        finally:
            session.close()


class TestTimedGather:
    """``shard.rpc.seconds`` must record each shard's *own* round-trip:
    a fixed-order gather folds every earlier shard's wait into later
    shards' labels, so one slow shard poisoned all of them.  Every
    scatter goes through the one polling collector, ``_scatter``."""

    @staticmethod
    def _fake_backend(delays):
        """A ShardedFleetBackend skeleton over in-memory transports whose
        replies become pollable only after ``delays[i]`` seconds."""
        import time as _time

        from repro.obs import MetricsRegistry
        from repro.service.sharding import ShardedFleetBackend

        class FakeTransport:
            def __init__(self, delay):
                self._delay = delay
                self._ready_at = None

            def send(self, message):
                self._ready_at = _time.monotonic() + self._delay

            def poll(self, timeout=0.0):
                if self._ready_at is None:
                    return False
                remaining = self._ready_at - _time.monotonic()
                if remaining <= 0:
                    return True
                if timeout and timeout > remaining:
                    _time.sleep(remaining)
                    return True
                if timeout:
                    _time.sleep(timeout)
                return _time.monotonic() >= self._ready_at

            def recv(self, timeout=None):
                while not self.poll(0.0):
                    _time.sleep(0.001)
                self._ready_at = None
                return ("ok", 42)

        backend = object.__new__(ShardedFleetBackend)
        backend._transports = [FakeTransport(d) for d in delays]
        backend._registry = MetricsRegistry()
        return backend

    @pytest.mark.parametrize("slow_first", [True, False])
    def test_rpc_labels_are_order_independent(self, slow_first):
        delays = [0.15, 0.0] if slow_first else [0.0, 0.15]
        backend = self._fake_backend(delays)
        outcomes = backend._scatter([(i, "noop", None) for i in range(2)])
        assert outcomes == [("ok", 42), ("ok", 42)]
        snapshot = backend._registry.snapshot()
        recorded = {
            int(key.split('shard="')[1].rstrip('"}')): stats["max"]
            for key, stats in snapshot.items()
            if key.startswith("shard.rpc.seconds")
        }
        slow, fast = (0, 1) if slow_first else (1, 0)
        # The fast shard's label must not inherit the slow shard's wait.
        assert recorded[fast] < 0.1
        assert recorded[slow] >= 0.14

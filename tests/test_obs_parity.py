"""Property-based parity: instrumentation is structurally zero-cost.

The observability layer's hard guarantee: attaching a live
:class:`~repro.obs.metrics.MetricsRegistry` to a session (and installing
the process-wide solver hook) changes *no* number -- events including
noise, per-user TPL series and alpha decisions are bit-identical to an
uninstrumented run of the same stream, on every backend.  Timers only
read clocks around the accounting calls; nothing feeds back.

This is the observability analogue of ``test_service_parity``: same
population/stream/policy strategies, but the axis under test is
metrics-on vs. metrics-off rather than scalar vs. fleet.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_service_parity import alpha_policies, populations, streams

from repro.data import HistogramQuery
from repro.markov import random_stochastic_matrix, two_state_matrix
from repro.obs import MetricsRegistry, install_solver_metrics
from repro.service import ReleaseSession, SessionConfig

N_USERS = 5


def run_stream(population, stream, alpha, mode, seed, *, registry, shards=1):
    """Route ``stream`` through a session, optionally instrumented; the
    solver hook is installed/restored around the run so instrumented and
    uninstrumented executions differ only in observation."""
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
        ),
        registry=registry,
    )
    previous = install_solver_metrics(registry) if registry is not None else None
    try:
        rng = np.random.default_rng(seed)  # identical snapshots per run
        events = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for epsilon, overrides in stream:
                snapshot = rng.integers(0, 4, size=N_USERS)
                events.append(
                    session.ingest(
                        snapshot, epsilon=epsilon, overrides=overrides
                    )
                )
        # Pull the numbers out before close() tears the shard workers down.
        profiles = {user: session.profile(user) for user in population}
        return events, session.max_tpl(), profiles
    finally:
        if registry is not None:
            install_solver_metrics(previous)
        session.close()


def assert_profiles_equal(profiles_a, profiles_b):
    assert profiles_a.keys() == profiles_b.keys()
    for user, pa in profiles_a.items():
        pb = profiles_b[user]
        assert np.array_equal(pa.epsilons, pb.epsilons)
        assert np.array_equal(pa.bpl, pb.bpl)
        assert np.array_equal(pa.fpl, pb.fpl)
        assert np.array_equal(pa.tpl, pb.tpl)


def assert_events_equal(events_a, events_b):
    assert len(events_a) == len(events_b)
    for a, b in zip(events_a, events_b):
        assert a.payload(include_true_answer=True) == b.payload(
            include_true_answer=True
        )


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
)
@pytest.mark.parametrize("backend", ["scalar", "fleet"])
def test_metrics_do_not_change_results(backend, population, stream, policy, seed):
    alpha, mode = policy

    def run(registry):
        session = ReleaseSession(
            SessionConfig(
                correlations=population,
                budgets=0.1,
                query=HistogramQuery(4),
                alpha=alpha,
                alpha_mode=mode,
                backend=backend,
                seed=seed,
            ),
            registry=registry,
        )
        previous = (
            install_solver_metrics(registry) if registry is not None else None
        )
        try:
            rng = np.random.default_rng(seed)
            events = []
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                for epsilon, overrides in stream:
                    snapshot = rng.integers(0, 4, size=N_USERS)
                    events.append(
                        session.ingest(
                            snapshot, epsilon=epsilon, overrides=overrides
                        )
                    )
            return session, events
        finally:
            if registry is not None:
                install_solver_metrics(previous)

    plain, plain_events = run(None)
    registry = MetricsRegistry()
    metered, metered_events = run(registry)
    assert_events_equal(plain_events, metered_events)
    assert plain.max_tpl() == metered.max_tpl()
    assert_profiles_equal(
        {user: plain.profile(user) for user in population},
        {user: metered.profile(user) for user in population},
    )

    # The registry actually observed the run -- this is parity of the
    # *numbers*, not a no-op registry.
    snapshot = registry.snapshot()
    assert snapshot["session.ingest.seconds"]["count"] == len(stream)
    assert any(key.startswith("backend.add_window") for key in snapshot)
    if any(pair != (None, None) for pair in population.values()):
        # Only correlated users trigger LFP solves; an all-uncorrelated
        # population legitimately records no solver metrics.
        assert any(key.startswith("solver.") for key in snapshot)


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
def test_metrics_do_not_change_results_sharded(population, stream, seed):
    """Same guarantee across the process-sharded backend: the coordinator's
    scatter/gather timers observe without perturbing the merged series."""
    plain_events, plain_tpl, plain_profiles = run_stream(
        population, stream, None, "reject", seed, registry=None, shards=2
    )
    registry = MetricsRegistry()
    metered_events, metered_tpl, metered_profiles = run_stream(
        population, stream, None, "reject", seed, registry=registry, shards=2
    )
    assert_events_equal(plain_events, metered_events)
    assert plain_tpl == metered_tpl
    assert_profiles_equal(plain_profiles, metered_profiles)

    snapshot = registry.snapshot()
    assert snapshot['backend.add_window.seconds{backend="sharded"}'][
        "count"
    ] == len(stream)
    assert "shard.scatter.seconds" in snapshot
    assert "shard.merge.seconds" in snapshot
    assert 'shard.rpc.seconds{shard="0"}' in snapshot
    assert 'shard.rpc.seconds{shard="1"}' in snapshot


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    population=populations(),
    stream=streams(),
    seed=st.integers(0, 2**16),
)
@pytest.mark.parametrize("backend", ["scalar", "fleet"])
def test_metrics_do_not_change_clamp_decisions(backend, population, stream, seed):
    """Clamp-forced variant: a tight alpha makes most steps hit the
    batched ``probe_scales`` bisection, and the instrumented run must
    still reproduce every clamped scale bit for bit -- while the
    registry shows the probe activity it observed."""
    alpha = 0.05  # tight enough that 0.01-0.5 budgets keep clamping

    def run(registry):
        session = ReleaseSession(
            SessionConfig(
                correlations=population,
                budgets=0.1,
                query=HistogramQuery(4),
                alpha=alpha,
                alpha_mode="clamp",
                backend=backend,
                seed=seed,
            ),
            registry=registry,
        )
        previous = (
            install_solver_metrics(registry) if registry is not None else None
        )
        try:
            rng = np.random.default_rng(seed)
            events = []
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                for epsilon, overrides in stream:
                    snapshot = rng.integers(0, 4, size=N_USERS)
                    events.append(
                        session.ingest(
                            snapshot, epsilon=epsilon, overrides=overrides
                        )
                    )
            return session, events
        finally:
            if registry is not None:
                install_solver_metrics(previous)

    plain, plain_events = run(None)
    registry = MetricsRegistry()
    metered, metered_events = run(registry)
    assert_events_equal(plain_events, metered_events)
    assert plain.max_tpl() == metered.max_tpl()

    if any(e.status == "clamped" for e in plain_events):
        snapshot = registry.snapshot()
        assert snapshot["session.alpha.probes"] > 0
        assert metered.summary()["cache"] == metered.cache.stats()
        if backend == "fleet":
            # The fleet backend serves whole probe batches in one entry.
            assert any(
                key.startswith("backend.probe_scales.seconds")
                for key in snapshot
            )


def test_metrics_do_not_change_an_early_exit_stream():
    """A stream long enough, on models converging fast enough, that the
    fleet's window sweeps stop short of t=0 (the converged-suffix exit)
    and answer from their memo: metrics on and off give the same
    numbers, and the registry saw the early exits."""
    fast = two_state_matrix(0.6, 0.4)
    slower = random_stochastic_matrix(3, seed=6)
    population = {
        u: (fast, fast) if u % 2 else (slower, slower) for u in range(N_USERS)
    }
    stream = [(0.1, None)] * 40 + [(0.1, {1: 0.05})] + [(0.1, None)] * 9
    plain = run_stream(population, stream, None, "reject", 5, registry=None)
    registry = MetricsRegistry()
    metered = run_stream(population, stream, None, "reject", 5, registry=registry)
    assert_events_equal(plain[0], metered[0])
    assert plain[1] == metered[1]
    assert_profiles_equal(plain[2], metered[2])

    snapshot = registry.snapshot()
    depth = snapshot['fleet.sweep.depth{kind="window"}']
    assert depth["count"] == len(stream)
    assert depth["max"] < len(stream)  # later sweeps left before t=0
    assert snapshot["fleet.sweep.memo.hits"] > snapshot["fleet.sweep.memo.misses"]


def test_metrics_do_not_change_a_stream_with_repeated_alphas():
    """Two users on one override schedule share every budget with each
    other, and every budget after the override step with their group, so
    their FPL rows repeat and the clamp probes hand the stacked solver
    jobs that repeat alphas: metrics on and off give the same numbers,
    and the solver swept fewer entries than it was asked for."""
    model = random_stochastic_matrix(3, seed=6)
    population = {u: (model, model) for u in range(N_USERS)}
    stream = [(0.1, None)] * 3 + [(0.1, {0: 0.05, 1: 0.05})] + [(0.1, None)] * 8
    plain = run_stream(population, stream, 0.15, "clamp", 3, registry=None)
    registry = MetricsRegistry()
    metered = run_stream(population, stream, 0.15, "clamp", 3, registry=registry)
    assert_events_equal(plain[0], metered[0])
    assert plain[1] == metered[1]
    assert_profiles_equal(plain[2], metered[2])
    assert any(event.status == "clamped" for event in plain[0])

    snapshot = registry.snapshot()
    solves = snapshot["solver.algorithm1.solves"]
    assert 0 < snapshot["solver.algorithm1.distinct"] < solves / 2

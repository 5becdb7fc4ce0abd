"""Property-based parity: scalar- and fleet-backed sessions are bit-identical.

The acceptance bar of the service redesign: route identical streams --
including per-user budget overrides and alpha-policy decisions -- through
a scalar-backed and a fleet-backed :class:`ReleaseSession` and assert
*bit-identical* TPL series and event payloads (everything except the
backend label).  Noise is included in the comparison: both sessions make
identical publish/reject decisions, so their RNG draw sequences match.

The windowed-ingestion redesign adds the second hard guarantee on top:
feeding the same stream through :meth:`ReleaseSession.ingest_window` in
windows of any size is bit-identical to per-event ingestion, on both
backends, including zero budgets, per-user overrides and alpha decisions
(reject / clamp / warn) landing mid-window.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from strategies import transition_matrices

from repro.data import HistogramQuery
from repro.markov import two_state_matrix
from repro.service import (
    ReleaseSession,
    ReleaseWindow,
    SessionConfig,
    WindowStep,
)
from repro.service.session import _ALPHA_TOL as ALPHA_TOL

N_USERS = 5


@st.composite
def populations(draw):
    """A small population over 1-3 distinct correlation pairs, with some
    users facing one-sided or absent correlation knowledge."""
    n_models = draw(st.integers(1, 3))
    models = [draw(transition_matrices(min_n=2, max_n=4)) for _ in range(n_models)]
    pairs = []
    for m in models:
        kind = draw(st.sampled_from(["both", "backward", "forward"]))
        pairs.append(
            (m if kind != "forward" else None, m if kind != "backward" else None)
        )
    pairs.append((None, None))  # the traditional-DP adversary
    return {
        u: pairs[draw(st.integers(0, len(pairs) - 1))] for u in range(N_USERS)
    }


@st.composite
def streams(draw):
    """3-6 time points of (epsilon, overrides) including zero budgets."""
    horizon = draw(st.integers(3, 6))
    steps = []
    for _ in range(horizon):
        epsilon = draw(
            st.one_of(
                st.just(0.0),
                st.floats(0.01, 0.5, allow_nan=False),
            )
        )
        users = draw(
            st.lists(
                st.integers(0, N_USERS - 1), unique=True, max_size=2
            )
        )
        overrides = {
            u: draw(st.floats(0.0, 0.8, allow_nan=False)) for u in users
        }
        steps.append((epsilon, overrides or None))
    return steps


@st.composite
def alpha_policies(draw):
    alpha = draw(st.one_of(st.none(), st.floats(0.05, 1.0, allow_nan=False)))
    if alpha is None:
        return None, "reject"
    return alpha, draw(st.sampled_from(["reject", "clamp", "warn"]))


def serial_clamp_scale(session):
    """A one-probe-per-midpoint clamp bisection over ``session``'s
    backend -- apply the scaled release, read the worst TPL, roll it
    back -- to stand in for the session's batched ``_clamp_scale``."""
    backend = session.backend
    resolution = session.config.clamp_resolution

    def clamp_scale(requested, overrides, alpha):
        lo, hi = 0.0, 1.0  # hi was just observed infeasible
        while hi - lo > resolution:
            mid = 0.5 * (lo + hi)
            scaled = (
                {user: eps * mid for user, eps in overrides.items()}
                if overrides
                else None
            )
            worst = backend.add_release(requested * mid, scaled)
            backend.rollback_last()
            if worst <= alpha + ALPHA_TOL:
                lo = mid
            else:
                hi = mid
        return lo

    return clamp_scale


def run_stream(
    backend,
    population,
    stream,
    alpha,
    mode,
    seed,
    serial_clamp=False,
    resolution=1e-6,
):
    session = ReleaseSession(
        SessionConfig(
            correlations=population,
            budgets=0.1,  # overridden per ingest
            query=HistogramQuery(4),
            alpha=alpha,
            alpha_mode=mode,
            backend=backend,
            seed=seed,
            clamp_resolution=resolution,
        )
    )
    if serial_clamp:
        session._clamp_scale = serial_clamp_scale(session)
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
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    population=populations(),
    stream=streams(),
    policy=alpha_policies(),
    seed=st.integers(0, 2**16),
)
def test_backends_bit_identical(population, stream, policy, seed):
    alpha, mode = policy
    scalar, scalar_events = run_stream(
        "scalar", population, stream, alpha, mode, seed
    )
    fleet, fleet_events = run_stream(
        "fleet", population, stream, alpha, mode, seed
    )

    # Event payloads identical bit-for-bit, modulo the backend label
    # (true answers included here: this is a trusted-side comparison).
    for a, b in zip(scalar_events, fleet_events):
        pa = a.payload(include_true_answer=True)
        pb = b.payload(include_true_answer=True)
        assert pa.pop("backend") == "scalar"
        assert pb.pop("backend") == "fleet"
        assert pa == pb

    # Per-user leakage series identical bit-for-bit.
    assert scalar.max_tpl() == fleet.max_tpl()
    for user in population:
        pa = scalar.profile(user)
        pb = fleet.profile(user)
        assert np.array_equal(pa.epsilons, pb.epsilons)
        assert np.array_equal(pa.bpl, pb.bpl)
        assert np.array_equal(pa.fpl, pb.fpl)
        assert np.array_equal(pa.tpl, pb.tpl)


#: A stream that takes the clamp's walk everywhere its first round
#: reaches (see test_reach_stream_walks_every_reach): at REACH_ALPHA the
#: second step fits at a scale below 1/16, so the walk leaves the
#: all-left path after the first round's subtree, and every later step is
#: refused (scale 0) at the default resolution.
_M = two_state_matrix(0.8, 0.1)
REACH_POPULATION = {u: (_M, _M) for u in range(N_USERS - 1)}
REACH_POPULATION[N_USERS - 1] = (None, None)
REACH_STREAM = [(0.43, None), (0.5, None), (0.5, {1: 0.9}), (0.5, None)]
REACH_ALPHA = 0.45

#: The default clamp resolution and two coarser ones: 1e-3 cuts the
#: all-left path short, 0.3 leaves a first round of 3 scales.
RESOLUTIONS = [1e-6, 1e-3, 0.3]


def reach_examples(test):
    """The REACH stream as an explicit example at every resolution."""
    for resolution in RESOLUTIONS:
        test = example(
            population=REACH_POPULATION,
            stream=REACH_STREAM,
            alpha=REACH_ALPHA,
            seed=0,
            resolution=resolution,
        )(test)
    return test


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    population=populations(),
    stream=streams(),
    alpha=st.floats(0.05, 0.6, allow_nan=False),
    seed=st.integers(0, 2**16),
    resolution=st.sampled_from(RESOLUTIONS),
)
@reach_examples
@pytest.mark.parametrize("backend", ["scalar", "fleet"])
def test_batched_clamp_bit_identical_to_serial(
    backend, population, stream, alpha, seed, resolution
):
    """The dyadic-tree ``probe_scales`` bisection must pick the exact
    scale the one-probe-per-round-trip loop picks: every event payload
    (noise stream included) and leakage series bit-identical -- on
    refused steps, on fits the first round's all-left path walks past its
    subtree to reach, and at coarse resolutions."""
    batched, batched_events = run_stream(
        backend, population, stream, alpha, "clamp", seed, resolution=resolution
    )
    serial, serial_events = run_stream(
        backend,
        population,
        stream,
        alpha,
        "clamp",
        seed,
        serial_clamp=True,
        resolution=resolution,
    )
    for a, b in zip(batched_events, serial_events):
        assert a.payload(include_true_answer=True) == b.payload(
            include_true_answer=True
        )
    assert batched.max_tpl() == serial.max_tpl()
    for user in population:
        pa = batched.profile(user)
        pb = serial.profile(user)
        assert np.array_equal(pa.epsilons, pb.epsilons)
        assert np.array_equal(pa.bpl, pb.bpl)
        assert np.array_equal(pa.fpl, pb.fpl)
        assert np.array_equal(pa.tpl, pb.tpl)


@pytest.mark.parametrize("resolution", RESOLUTIONS)
def test_reach_stream_walks_every_reach(resolution):
    """The explicit examples above are not vacuous: the stream has
    refused steps at every resolution and, at the finer two, a fit below
    1/16 whose walk leaves the all-left path after the first subtree."""
    _, events = run_stream(
        "fleet",
        REACH_POPULATION,
        REACH_STREAM,
        REACH_ALPHA,
        "clamp",
        0,
        resolution=resolution,
    )
    statuses = [event.status for event in events]
    assert "rejected" in statuses[1:]
    if resolution < 2**-5:
        fit = events[1].epsilon / events[1].requested_epsilon
        assert events[1].status == "clamped"
        assert 2**-5 < fit < 2**-4


def run_stream_windowed(backend, population, stream, alpha, mode, seed, size):
    """The same stream as :func:`run_stream`, ingested through
    ``ingest_window`` in windows of ``size`` steps."""
    session = ReleaseSession(
        SessionConfig(
            correlations=population,
            budgets=0.1,  # overridden per step
            query=HistogramQuery(4),
            alpha=alpha,
            alpha_mode=mode,
            backend=backend,
            seed=seed,
            window_size=size,
        )
    )
    rng = np.random.default_rng(seed)  # identical snapshots per run
    steps = [
        WindowStep(
            snapshot=rng.integers(0, 4, size=N_USERS),
            epsilon=epsilon,
            overrides=overrides,
        )
        for epsilon, overrides in stream
    ]
    events = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for lo in range(0, len(steps), size):
            events.extend(
                session.ingest_window(ReleaseWindow(steps[lo : lo + size]))
            )
    return session, events


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    population=populations(),
    stream=streams(),
    policy=alpha_policies(),
    seed=st.integers(0, 2**16),
    size=st.integers(2, 6),
)
@pytest.mark.parametrize("backend", ["scalar", "fleet"])
def test_windowed_matches_per_event(backend, population, stream, policy, seed, size):
    """Windowed ingestion is bit-identical to per-event ingestion --
    events (noise included), TPL series and alpha decisions -- even when
    zero budgets, overrides or clamp/reject/warn decisions land
    mid-window."""
    alpha, mode = policy
    per_event, event_stream = run_stream(
        backend, population, stream, alpha, mode, seed
    )
    windowed, window_stream = run_stream_windowed(
        backend, population, stream, alpha, mode, seed, size
    )

    assert len(event_stream) == len(window_stream)
    for a, b in zip(event_stream, window_stream):
        assert a.payload(include_true_answer=True) == b.payload(
            include_true_answer=True
        )

    assert per_event.max_tpl() == windowed.max_tpl()
    assert per_event.horizon == windowed.horizon
    for user in population:
        pa = per_event.profile(user)
        pb = windowed.profile(user)
        assert np.array_equal(pa.epsilons, pb.epsilons)
        assert np.array_equal(pa.bpl, pb.bpl)
        assert np.array_equal(pa.fpl, pb.fpl)
        assert np.array_equal(pa.tpl, pb.tpl)


def test_colliding_cache_keys_stay_bit_identical():
    """Regression (hypothesis-found): this stream produces two BPL alphas
    that agree to 15 digits but differ in the last ulps
    (0.15029782511280618 from the override user, 0.1502978251128056 from
    the default schedule).  The solution caches used to key on
    round(alpha, 15), so whichever backend evaluated first poisoned the
    entry for the other and the backends drifted apart in the last ulp.
    Keys now carry the exact float."""
    from repro.markov.matrix import TransitionMatrix

    M = TransitionMatrix(np.array([[0.5, 0.5], [0.0, 1.0]]))
    population = {u: (M, M) for u in range(N_USERS)}
    stream = [(0.5, None), (0.0, {0: 1e-15}), (0.0, None), (0.0, None)]
    scalar, _ = run_stream("scalar", population, stream, None, "reject", 0)
    fleet, _ = run_stream("fleet", population, stream, None, "reject", 0)
    for user in population:
        pa = scalar.profile(user)
        pb = fleet.profile(user)
        assert np.array_equal(pa.bpl, pb.bpl)
        assert np.array_equal(pa.fpl, pb.fpl)
        assert np.array_equal(pa.tpl, pb.tpl)


@settings(max_examples=10, deadline=None)
@given(stream=streams(), seed=st.integers(0, 2**16))
def test_session_matches_legacy_accountant(stream, seed):
    """The session's accounting (no alpha policy) equals driving the
    scalar accountant by hand -- the redesign changed the front door, not
    the numbers."""
    from repro.core import TemporalPrivacyAccountant
    from repro.markov import two_state_matrix

    P = two_state_matrix(0.8, 0.1)
    population = {u: (P, P) for u in range(N_USERS)}
    session, events = run_stream(
        "fleet", population, stream, None, "reject", seed
    )
    reference = TemporalPrivacyAccountant((P, P))
    for epsilon, _ in stream:
        reference.add_release(epsilon)
    # User 0 never receives an override in this comparison only when the
    # stream says so; compare a user that stayed on the default schedule.
    defaults = [
        u
        for u in population
        if not any((overrides or {}).get(u) is not None for _, overrides in stream)
    ]
    if defaults:
        user = defaults[0]
        assert np.array_equal(session.profile(user).tpl, reference.profile(0).tpl)
    assert events[-1].max_tpl == session.max_tpl()

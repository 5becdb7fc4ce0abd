"""Tests for the unified repro.service session API."""

import numpy as np
import pytest

from repro.core import BudgetAllocation, allocate_quantified, allocate_upper_bound
from repro.data import HistogramQuery, Trajectory, TrajectoryDataset
from repro.exceptions import InvalidPrivacyParameterError
from repro.markov import identity_matrix, two_state_matrix, uniform_matrix
from repro.service import (
    ACCOUNTED,
    CLAMPED,
    REJECTED,
    RELEASED,
    WARNED,
    AccountantBackend,
    AlphaPolicy,
    BudgetSchedule,
    FleetAccountantBackend,
    ReleaseSession,
    ScalarAccountantBackend,
    SessionConfig,
    make_backend,
)


@pytest.fixture
def pair():
    m = two_state_matrix(0.8, 0.1)
    return (m, m)


@pytest.fixture
def query():
    return HistogramQuery(2)


@pytest.fixture
def dataset():
    rng = np.random.default_rng(5)
    return TrajectoryDataset(
        [Trajectory(u, rng.integers(0, 2, size=6)) for u in range(12)],
        n_states=2,
    )


def make_session(pair, query=None, users=1, **kwargs):
    correlations = pair if users == 1 else {u: pair for u in range(users)}
    kwargs.setdefault("budgets", 0.1)
    kwargs.setdefault("seed", 0)
    return ReleaseSession(
        SessionConfig(correlations=correlations, query=query, **kwargs)
    )


# ---------------------------------------------------------------------------
# Budget schedules
# ---------------------------------------------------------------------------
class TestBudgetSchedule:
    def test_scalar_is_horizon_free(self):
        schedule = BudgetSchedule(0.2)
        assert schedule.horizon is None
        assert schedule.epsilon_for(1) == 0.2
        assert schedule.epsilon_for(10_000) == 0.2

    def test_zero_budget_is_legal_for_accounting(self):
        assert BudgetSchedule(0.0).epsilon_for(3) == 0.0

    def test_negative_budget_rejected(self):
        with pytest.raises(InvalidPrivacyParameterError):
            BudgetSchedule(-0.1)

    def test_vector_indexing_and_exhaustion(self):
        schedule = BudgetSchedule([0.1, 0.2, 0.3])
        assert schedule.horizon == 3
        assert schedule.epsilon_for(2) == 0.2
        with pytest.raises(ValueError):
            schedule.epsilon_for(4)

    def test_vector_length_checked_against_horizon(self):
        with pytest.raises(ValueError):
            BudgetSchedule([0.1, 0.2], horizon=3)

    def test_quantified_allocation_needs_horizon(self, pair):
        allocation = allocate_quantified(pair, 1.0)
        with pytest.raises(ValueError):
            BudgetSchedule(allocation)
        schedule = BudgetSchedule(allocation, horizon=5)
        assert schedule.epsilon_for(1) == pytest.approx(
            allocation.epsilon_first
        )
        assert schedule.epsilon_for(5) == pytest.approx(
            allocation.epsilon_last
        )

    def test_upper_bound_allocation_is_horizon_free(self, pair):
        allocation = allocate_upper_bound(pair, 1.0)
        schedule = BudgetSchedule(allocation)
        assert schedule.epsilon_for(100) == pytest.approx(
            allocation.epsilon_middle
        )


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------
class TestSessionConfig:
    def test_rejects_bad_alpha(self, pair):
        with pytest.raises(InvalidPrivacyParameterError):
            SessionConfig(correlations=pair, budgets=0.1, alpha=0.0)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_rejects_non_finite_alpha(self, pair, alpha):
        with pytest.raises(InvalidPrivacyParameterError, match="finite"):
            AlphaPolicy(alpha=alpha)
        with pytest.raises(InvalidPrivacyParameterError, match="finite"):
            SessionConfig(correlations=pair, budgets=0.1, alpha=alpha)

    def test_rejects_bad_mode(self, pair):
        with pytest.raises(ValueError):
            SessionConfig(correlations=pair, budgets=0.1, alpha_mode="explode")

    def test_rejects_bad_backend(self, pair):
        with pytest.raises(ValueError):
            SessionConfig(correlations=pair, budgets=0.1, backend="gpu")

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError):
            SessionConfig(correlations={}, budgets=0.1)

    def test_checkpoint_every_requires_dir(self, pair):
        with pytest.raises(ValueError):
            SessionConfig(correlations=pair, budgets=0.1, checkpoint_every=5)

    def test_alpha_policy_roundtrip(self, pair):
        config = SessionConfig(
            correlations=pair, budgets=0.1, alpha=2.0, alpha_mode="clamp"
        )
        policy = config.alpha_policy()
        assert policy == AlphaPolicy(alpha=2.0, mode="clamp")


# ---------------------------------------------------------------------------
# Backend selection and protocol
# ---------------------------------------------------------------------------
class TestBackends:
    def test_auto_threshold(self, pair):
        few = make_backend({u: pair for u in range(3)}, fleet_threshold=4)
        many = make_backend({u: pair for u in range(4)}, fleet_threshold=4)
        assert few.name == "scalar"
        assert many.name == "fleet"

    def test_explicit_choice(self, pair):
        assert make_backend(pair, backend="fleet").name == "fleet"
        assert make_backend(pair, backend="scalar").name == "scalar"
        with pytest.raises(ValueError):
            make_backend(pair, backend="quantum")

    def test_adapters_satisfy_protocol(self, pair):
        for backend in (
            ScalarAccountantBackend(pair),
            FleetAccountantBackend(pair),
        ):
            assert isinstance(backend, AccountantBackend)

    def test_empty_profile_through_protocol(self, pair):
        """Satellite: both backends expose the same well-defined empty
        state -- max_tpl() == 0.0 and an empty LeakageProfile."""
        for backend in (
            ScalarAccountantBackend(pair),
            FleetAccountantBackend(pair),
        ):
            assert backend.max_tpl() == 0.0
            profile = backend.profile()
            assert profile.horizon == 0
            assert profile.max_tpl == 0.0

    def test_scalar_override_accounting(self, pair):
        backend = ScalarAccountantBackend({u: pair for u in range(3)})
        backend.add_release(0.1, overrides={1: 0.4})
        np.testing.assert_allclose(backend.user_epsilons(0), [0.1])
        np.testing.assert_allclose(backend.user_epsilons(1), [0.4])
        with pytest.raises(KeyError):
            backend.add_release(0.1, overrides={"ghost": 0.2})

    def test_rollback_through_protocol(self, pair):
        for backend in (
            ScalarAccountantBackend(pair),
            FleetAccountantBackend(pair),
        ):
            backend.add_release(0.1)
            before = backend.profile().tpl.copy()
            backend.add_release(0.7)
            backend.rollback_last()
            np.testing.assert_array_equal(backend.profile().tpl, before)
            backend.rollback_last()  # back to the empty state
            with pytest.raises(ValueError):
                backend.rollback_last()


# ---------------------------------------------------------------------------
# Session ingestion
# ---------------------------------------------------------------------------
class TestIngest:
    def test_released_event(self, pair, query):
        session = make_session(pair, query)
        event = session.ingest(np.array([0, 1, 1]))
        assert event.status == RELEASED
        assert event.t == 1
        assert event.epsilon == 0.1
        assert event.published
        assert event.true_answer.tolist() == [1.0, 2.0]
        assert event.max_tpl == pytest.approx(0.1)
        assert session.horizon == 1
        assert len(session.events) == 1

    def test_zero_budget_accounts_without_publishing(self, pair, query):
        session = make_session(pair, query, budgets=0.0)
        event = session.ingest(np.array([0, 1]))
        assert event.status == ACCOUNTED
        assert not event.published
        assert event.noisy_answer is None
        assert session.horizon == 1  # the time point is still accounted

    def test_accounting_only_session(self, pair):
        session = make_session(pair)  # no query
        event = session.ingest()
        assert event.true_answer is None
        assert event.noisy_answer is None
        assert event.max_tpl == pytest.approx(0.1)

    def test_explicit_epsilon_overrides_schedule(self, pair, query):
        session = make_session(pair, query)
        event = session.ingest(np.array([0]), epsilon=0.25)
        assert event.epsilon == 0.25

    def test_vector_schedule_exhaustion(self, pair, query):
        session = make_session(pair, query, budgets=[0.1, 0.2])
        session.ingest(np.array([0]))
        session.ingest(np.array([0]))
        with pytest.raises(ValueError):
            session.ingest(np.array([0]))

    def test_run_over_dataset(self, pair, query, dataset):
        session = make_session(pair, query)
        events = session.run(dataset)
        assert len(events) == dataset.horizon
        assert [e.t for e in events] == list(range(1, dataset.horizon + 1))
        assert session.max_tpl() == events[-1].max_tpl

    def test_reproducible_noise_with_seed(self, pair, query, dataset):
        first = make_session(pair, query, seed=11).run(dataset)
        second = make_session(pair, query, seed=11).run(dataset)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.noisy_answer, b.noisy_answer)

    def test_payload_is_json_safe(self, pair, query):
        import json

        session = make_session(pair, query, users=3, alpha=5.0)
        event = session.ingest(np.array([0, 1]), overrides={1: 0.05})
        encoded = json.dumps(event.payload())
        decoded = json.loads(encoded)
        assert decoded["status"] == RELEASED
        assert decoded["overrides"] == {"1": 0.05}

    def test_payload_redacts_true_answer_by_default(self, pair, query):
        """A payload is what leaves the server: the exact answer must not
        ride along with the noisy one unless explicitly requested."""
        session = make_session(pair, query)
        event = session.ingest(np.array([0, 1]))
        assert event.true_answer is not None  # the event object keeps it
        assert event.payload()["true_answer"] is None
        assert event.payload(include_true_answer=True)["true_answer"] == [
            1.0,
            1.0,
        ]


# ---------------------------------------------------------------------------
# Alpha policies
# ---------------------------------------------------------------------------
class TestAlphaPolicies:
    def test_reject_rolls_back(self):
        identity = identity_matrix(2)
        session = make_session(
            (identity, identity), budgets=0.1, alpha=0.25, alpha_mode="reject"
        )
        assert session.ingest().status == RELEASED
        assert session.ingest().status == RELEASED
        event = session.ingest()  # would reach 0.3 > 0.25
        assert event.status == REJECTED
        assert event.epsilon == 0.0
        assert event.t == 3
        assert session.horizon == 2  # state unchanged
        assert session.max_tpl() == pytest.approx(0.2)
        # The next attempt reuses the same time point.
        assert session.ingest(epsilon=0.05).t == 3

    def test_clamp_spends_largest_feasible_fraction(self):
        identity = identity_matrix(2)
        session = make_session(
            (identity, identity), budgets=0.1, alpha=0.25, alpha_mode="clamp"
        )
        session.ingest()
        session.ingest()
        event = session.ingest()  # 0.1 does not fit; ~0.05 does
        assert event.status == CLAMPED
        assert 0.0 < event.epsilon < 0.1
        assert session.max_tpl() <= 0.25 + 1e-9
        # Identity correlation: TPL == sum of budgets, so the clamp should
        # land within resolution of the exact headroom 0.05.
        assert event.epsilon == pytest.approx(0.05, rel=1e-4)
        assert "clamped" in event.message

    def test_clamp_scales_overrides_proportionally(self):
        identity = identity_matrix(2)
        session = make_session(
            (identity, identity),
            users=2,
            budgets=0.1,
            alpha=0.25,
            alpha_mode="clamp",
        )
        session.ingest()
        session.ingest()
        event = session.ingest(overrides={1: 0.2})
        assert event.status == CLAMPED
        scale = event.epsilon / event.requested_epsilon
        assert event.overrides[1] == pytest.approx(0.2 * scale)

    def test_warn_lets_the_release_through(self):
        identity = identity_matrix(2)
        session = make_session(
            (identity, identity), budgets=0.2, alpha=0.3, alpha_mode="warn"
        )
        session.ingest()
        with pytest.warns(RuntimeWarning, match="worst-case TPL"):
            event = session.ingest()
        assert event.status == WARNED
        assert session.max_tpl() == pytest.approx(0.4)  # bound exceeded
        assert event.remaining_alpha < 0

    def test_rejected_events_do_not_consume_noise(self, query):
        """Noise is drawn only after the policy admits the release, so a
        rejection leaves the noise stream untouched."""
        identity = identity_matrix(2)

        def run(with_rejection):
            session = make_session(
                (identity, identity),
                query,
                budgets=0.1,
                alpha=0.25,
                alpha_mode="reject",
                seed=42,
            )
            session.ingest(np.array([0, 1]))
            session.ingest(np.array([0, 1]))
            if with_rejection:
                assert session.ingest(np.array([0, 1])).status == REJECTED
            return session.ingest(np.array([0, 1]), epsilon=0.05)

        np.testing.assert_array_equal(
            run(True).noisy_answer, run(False).noisy_answer
        )

    @pytest.mark.parametrize("kind", ["scalar", "fleet"])
    def test_capped_step_is_not_reapplied(self, kind):
        """A step rejected at the cap costs the window, one rollback and
        the probe rounds: the violating release is never applied again
        just to measure it (the window already did)."""

        class RecordingBackend:
            def __init__(self, inner):
                self._inner = inner
                self.calls = []

            def __getattr__(self, name):
                attr = getattr(self._inner, name)
                if name not in (
                    "add_window",
                    "add_release",
                    "rollback",
                    "rollback_last",
                    "probe_scales",
                ):
                    return attr

                def recorded(*args, **kwargs):
                    self.calls.append(name)
                    return attr(*args, **kwargs)

                return recorded

        identity = identity_matrix(2)
        config = SessionConfig(
            correlations=(identity, identity),
            budgets=0.1,
            alpha=0.25,
            alpha_mode="clamp",
            seed=0,
        )
        backend = RecordingBackend(
            make_backend(config.user_correlations(), backend=kind)
        )
        session = ReleaseSession(config, backend=backend)
        assert [session.ingest().status for _ in range(3)] == [
            RELEASED,
            RELEASED,
            CLAMPED,  # lands exactly on the cap: 0.1 + 0.1 + 0.05
        ]
        backend.calls.clear()
        event = session.ingest()
        assert event.status == REJECTED
        assert "no positive fraction" in event.message
        assert backend.calls == ["add_window", "rollback", "probe_scales"]
        assert session.horizon == 3

    @pytest.mark.parametrize("shards", [1, 2])
    def test_refused_step_costs_one_probe_round(self, shards):
        """At the default resolution a decision's first probe round is
        the 4-level subtree plus the rest of the all-left path -- 31
        scales, root 0.5 first -- so a step refused at the cap makes
        exactly one ``probe_scales`` call, and a clamped step at most 5
        (on the fleet backend and on two pipe shards)."""
        m = two_state_matrix(0.8, 0.1)
        correlations = {u: (m, m) for u in range(4)}
        correlations[4] = (None, None)
        session = ReleaseSession(
            SessionConfig(
                correlations=correlations,
                budgets=0.5,
                alpha=0.45,
                alpha_mode="clamp",
                backend="fleet",
                shards=shards,
                seed=0,
            )
        )
        assert session.backend_name == ("fleet", "sharded")[shards - 1]
        calls = []
        probe = session.backend.probe_scales

        def recorded(epsilon, overrides, scales):
            calls.append(list(scales))
            return probe(epsilon, overrides, scales)

        session.backend.probe_scales = recorded
        try:
            assert session.ingest(epsilon=0.43).status == RELEASED
            assert calls == []
            event = session.ingest()
            assert event.status == CLAMPED
            assert event.epsilon < 0.5 / 16  # walks past the first subtree
            assert 1 <= len(calls) <= 5
            assert calls[0][0] == 0.5 and len(calls[0]) == 31
            for overrides in (None, {1: 0.9}, None):
                calls.clear()
                event = session.ingest(overrides=overrides)
                assert event.status == REJECTED
                assert "no positive fraction" in event.message
                assert len(calls) == 1
                assert calls[0][0] == 0.5 and len(calls[0]) == 31
            assert session.horizon == 2
        finally:
            session.close()


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------
class TestSessionCheckpoint:
    @pytest.mark.parametrize("backend", ["scalar", "fleet"])
    def test_round_trip_and_continue(self, pair, query, backend, tmp_path):
        session = make_session(
            pair, query, users=3, backend=backend, alpha=5.0
        )
        session.ingest(np.array([0, 1]), overrides={1: 0.3})
        session.ingest(np.array([1, 1]))
        path = session.checkpoint(tmp_path / "ckpt")
        assert path.exists()

        restored = ReleaseSession.restore(session.config, tmp_path / "ckpt")
        assert restored.backend_name == backend
        assert restored.horizon == session.horizon
        assert restored.max_tpl() == session.max_tpl()  # bit-identical
        for user in range(3):
            np.testing.assert_array_equal(
                restored.profile(user).tpl, session.profile(user).tpl
            )
        live = session.ingest(np.array([0, 0]))
        back = restored.ingest(np.array([0, 0]))
        assert back.max_tpl == live.max_tpl

    def test_cadence(self, pair, query, tmp_path):
        session = make_session(
            pair,
            query,
            checkpoint_dir=tmp_path / "auto",
            checkpoint_every=2,
        )
        session.ingest(np.array([0]))
        assert not (tmp_path / "auto").exists()
        session.ingest(np.array([0]))
        assert (tmp_path / "auto" / "scalar_manifest.json").exists()

    def test_checkpoint_without_dir_raises(self, pair):
        with pytest.raises(ValueError):
            make_session(pair).checkpoint()

    def test_restore_rejects_conflicting_backend_pin(
        self, pair, tmp_path
    ):
        session = make_session(pair, backend="scalar")
        session.ingest()
        session.checkpoint(tmp_path / "ckpt")
        pinned = SessionConfig(
            correlations=pair, budgets=0.1, backend="fleet"
        )
        with pytest.raises(ValueError, match="do not convert"):
            ReleaseSession.restore(pinned, tmp_path / "ckpt")
        # "auto" accepts whatever backend wrote the checkpoint.
        auto = SessionConfig(correlations=pair, budgets=0.1, backend="auto")
        assert (
            ReleaseSession.restore(auto, tmp_path / "ckpt").backend_name
            == "scalar"
        )

    def test_scalar_restore_rejects_population_mismatch(
        self, pair, tmp_path
    ):
        session = make_session(pair, users=2, backend="scalar")
        session.ingest()
        session.checkpoint(tmp_path / "ckpt")
        other = SessionConfig(
            correlations={u: pair for u in range(3)}, budgets=0.1
        )
        with pytest.raises(ValueError):
            ReleaseSession.restore(other, tmp_path / "ckpt")


# ---------------------------------------------------------------------------
# Removed deprecation shims
# ---------------------------------------------------------------------------
class TestRemovedShims:
    def test_legacy_engines_are_gone(self):
        import repro
        import repro.fleet
        import repro.mechanisms

        assert not hasattr(repro, "FleetReleaseEngine")
        assert not hasattr(repro.fleet, "FleetReleaseEngine")
        assert not hasattr(repro.mechanisms, "ContinuousReleaseEngine")
        assert not hasattr(repro.mechanisms, "make_dpt_engine")

    def test_surviving_entry_points_still_import(self):
        from repro.mechanisms import DptReleasePlan  # noqa: F401
        from repro.mechanisms import plan_dpt_release  # noqa: F401
        from repro.mechanisms.release import materialise_budgets

        np.testing.assert_allclose(
            materialise_budgets(0.5, 3), [0.5, 0.5, 0.5]
        )
        with pytest.raises(InvalidPrivacyParameterError):
            materialise_budgets(0.0, 3)  # noise paths still reject zero
        np.testing.assert_allclose(
            materialise_budgets(0.0, 2, allow_zero=True), [0.0, 0.0]
        )

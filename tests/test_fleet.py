"""Tests for the repro.fleet population-scale accounting subsystem."""

import functools
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AdversaryT,
    TemporalLossFunction,
    TemporalPrivacyAccountant,
    backward_privacy_leakage,
    forward_privacy_leakage,
    get_shared_solution_cache,
    max_log_ratio,
    max_log_ratio_batch,
    set_shared_solution_cache,
    temporal_privacy_leakage,
)
from repro.exceptions import InvalidPrivacyParameterError
from repro.fleet import (
    CohortIndex,
    FleetAccountant,
    SolutionCache,
    correlation_digest,
    load_checkpoint,
    save_checkpoint,
)
from repro.markov import (
    identity_matrix,
    random_stochastic_matrix,
    two_state_matrix,
    uniform_matrix,
)
from repro.obs import MetricsRegistry

PARITY_ATOL = 1e-9


@pytest.fixture
def models():
    return [
        two_state_matrix(0.8, 0.0),
        random_stochastic_matrix(3, seed=1),
        random_stochastic_matrix(4, seed=2),
        uniform_matrix(2),
    ]


@pytest.fixture
def population(models):
    """40 users spread over 6 distinct correlation pairs (incl. None)."""
    pairs = [
        (models[0], models[0]),
        (models[1], models[1]),
        (models[2], models[2]),
        (models[3], models[3]),
        (models[0], None),
        (None, None),
    ]
    return {u: pairs[u % len(pairs)] for u in range(40)}


# ---------------------------------------------------------------------------
# Cohorts
# ---------------------------------------------------------------------------
class TestCohorts:
    def test_digest_groups_identical_pairs(self, models):
        a = correlation_digest(models[0], models[1])
        b = correlation_digest(two_state_matrix(0.8, 0.0), models[1])
        assert a == b
        assert correlation_digest(models[0], None) != a
        assert correlation_digest(None, models[1]) != a

    def test_index_add_remove_migrate(self, models):
        index = CohortIndex()
        index.add("a", (models[0], models[0]))
        index.add("b", (models[0], models[0]))
        assert index.n_cohorts == 1
        assert index.cohort_of("a") is index.cohort_of("b")
        old, new = index.migrate("b", (models[1], models[1]))
        assert index.n_cohorts == 2
        assert old is not new
        index.remove("a")
        assert index.n_cohorts == 1  # empty cohort garbage-collected
        with pytest.raises(KeyError):
            index.remove("a")
        with pytest.raises(KeyError):
            index.add("b", (models[1], models[1]))  # duplicate

    def test_adversary_input(self, models):
        index = CohortIndex()
        cohort = index.add("a", AdversaryT(models[0], models[3]))
        assert cohort.backward is models[0]
        assert cohort.forward is models[3]

    def test_rejects_bare_matrix(self, models):
        with pytest.raises(TypeError):
            CohortIndex().add("a", models[0])


# ---------------------------------------------------------------------------
# Engine parity with the per-user accountant
# ---------------------------------------------------------------------------
class TestEngineParity:
    def test_matches_per_user_accountant(self, population):
        seed_acct = TemporalPrivacyAccountant(population)
        fleet = FleetAccountant(population)
        for eps in [0.1, 0.2, 0.05, 0.3, 0.15]:
            worst_seed = seed_acct.add_release(eps)
            worst_fleet = fleet.add_release(eps)
            assert worst_fleet == pytest.approx(worst_seed, abs=PARITY_ATOL)
        for user in population:
            reference = seed_acct.profile(user)
            profile = fleet.profile(user)
            np.testing.assert_allclose(profile.bpl, reference.bpl, atol=PARITY_ATOL)
            np.testing.assert_allclose(profile.fpl, reference.fpl, atol=PARITY_ATOL)
            np.testing.assert_allclose(profile.tpl, reference.tpl, atol=PARITY_ATOL)
        assert fleet.max_tpl() == pytest.approx(seed_acct.max_tpl(), abs=PARITY_ATOL)

    def test_random_cohorts_parity(self):
        rng = np.random.default_rng(99)
        # Pairs drawn per state-space size so P_B and P_F always match.
        pairs = []
        for n in rng.integers(2, 6, size=5):
            backward = random_stochastic_matrix(int(n), seed=int(n) * 7)
            forward = random_stochastic_matrix(int(n), seed=int(n) * 13)
            pairs.append((backward, forward))
        population = {u: pairs[rng.integers(len(pairs))] for u in range(30)}
        seed_acct = TemporalPrivacyAccountant(population)
        fleet = FleetAccountant(population)
        for eps in rng.uniform(0.01, 0.5, size=8):
            seed_acct.add_release(float(eps))
            fleet.add_release(float(eps))
        for user in population:
            np.testing.assert_allclose(
                fleet.profile(user).tpl,
                seed_acct.profile(user).tpl,
                atol=PARITY_ATOL,
            )

    def test_single_pair_and_adversary_constructors(self, models):
        pair = (models[0], models[0])
        for correlations in (pair, AdversaryT(*pair)):
            seed_acct = TemporalPrivacyAccountant(correlations)
            fleet = FleetAccountant(correlations)
            for _ in range(4):
                seed_acct.add_release(0.1)
                fleet.add_release(0.1)
            np.testing.assert_allclose(
                fleet.profile().tpl, seed_acct.profile().tpl, atol=PARITY_ATOL
            )


class TestAddWindow:
    """The vectorised multi-step path: K releases per engine entry, with
    the per-step worst-TPL series bit-identical to K add_release calls."""

    BUDGETS = [0.1, 0.0, 0.3, 0.05, 0.2]
    OVERRIDES = [None, {3: 0.5}, None, {3: 0.0, 7: 0.25}, {1: 0.4}]

    def test_per_step_series_matches_sequential(self, population):
        sequential = FleetAccountant(population)
        windowed = FleetAccountant(population)
        worsts = [
            sequential.add_release(eps, overrides=ovr)
            for eps, ovr in zip(self.BUDGETS, self.OVERRIDES)
        ]
        series = windowed.add_window(self.BUDGETS, self.OVERRIDES)
        assert series.tolist() == worsts
        assert windowed.max_tpl() == sequential.max_tpl()
        for user in population:
            np.testing.assert_array_equal(
                windowed.profile(user).fpl, sequential.profile(user).fpl
            )
            np.testing.assert_array_equal(
                windowed.profile(user).bpl, sequential.profile(user).bpl
            )

    def test_window_after_window(self, population):
        sequential = FleetAccountant(population)
        windowed = FleetAccountant(population)
        for eps, ovr in zip(self.BUDGETS, self.OVERRIDES):
            sequential.add_release(eps, overrides=ovr)
        windowed.add_window(self.BUDGETS[:2], self.OVERRIDES[:2])
        series = windowed.add_window(self.BUDGETS[2:], self.OVERRIDES[2:])
        assert series[-1] == sequential.max_tpl()
        assert windowed.max_tpl() == sequential.max_tpl()

    def test_empty_window_is_a_noop(self, population):
        fleet = FleetAccountant(population)
        assert fleet.add_window([]).shape == (0,)
        assert fleet.horizon == 0

    def test_validation_precedes_mutation(self, population):
        fleet = FleetAccountant(population)
        fleet.add_release(0.1)
        with pytest.raises(InvalidPrivacyParameterError):
            fleet.add_window([0.1, -1.0])
        with pytest.raises(KeyError):
            fleet.add_window([0.1, 0.1], [None, {"nobody": 0.1}])
        with pytest.raises(ValueError, match="cover"):
            fleet.add_window([0.1, 0.1], [None])
        assert fleet.horizon == 1

    def test_alpha_violation_rolls_back_whole_window(self):
        identity = identity_matrix(2)
        fleet = FleetAccountant(
            {u: (identity, identity) for u in range(5)}, alpha=0.25
        )
        fleet.add_release(0.1)
        with pytest.raises(InvalidPrivacyParameterError):
            fleet.add_window([0.1, 0.1])  # step 2 would reach 0.3 > 0.25
        assert fleet.horizon == 1
        assert fleet.max_tpl() == pytest.approx(0.1)

    def test_rollback_n(self, population):
        fleet = FleetAccountant(population)
        fleet.add_release(0.1, overrides={2: 0.3})
        before = {u: fleet.profile(u).tpl.copy() for u in population}
        fleet.add_window([0.2, 0.1], [None, {4: 0.05}])
        fleet.rollback(2)
        assert fleet.horizon == 1
        for user in population:
            np.testing.assert_array_equal(fleet.profile(user).tpl, before[user])
        with pytest.raises(ValueError):
            fleet.rollback(2)
        with pytest.raises(ValueError):
            fleet.rollback(-1)

    def test_mid_stream_joiner_in_window(self, models):
        pair = (models[1], models[1])
        sequential = FleetAccountant({"early": pair})
        windowed = FleetAccountant({"early": pair})
        for fleet in (sequential, windowed):
            fleet.add_release(0.1)
            fleet.add_user("late", pair)
        tail = [0.2, 0.1, 0.05]
        worsts = [sequential.add_release(e) for e in tail]
        series = windowed.add_window(tail)
        assert series.tolist() == worsts
        np.testing.assert_array_equal(
            windowed.profile("late").tpl, sequential.profile("late").tpl
        )


class TestEngineBehaviour:
    def test_empty_engine(self):
        fleet = FleetAccountant()
        assert fleet.horizon == 0
        assert fleet.max_tpl() == 0.0
        assert fleet.n_users == 0

    def test_profile_before_release_is_empty(self, models):
        """Empty-state parity with max_tpl(): an empty LeakageProfile,
        not an exception (same contract as the scalar accountant)."""
        fleet = FleetAccountant((models[0], models[0]))
        profile = fleet.profile()
        assert profile.horizon == 0
        assert profile.max_tpl == 0.0

    def test_profile_for_late_joiner_is_empty(self, models):
        fleet = FleetAccountant({"early": (models[0], models[0])})
        fleet.add_release(0.1)
        fleet.add_user("late", (models[0], models[0]))
        late = fleet.profile("late")
        assert late.horizon == 0
        assert late.max_tpl == 0.0

    def test_rollback_last_restores_state(self, models):
        fleet = FleetAccountant((models[0], models[0]))
        fleet.add_release(0.1)
        before = fleet.profile().tpl.copy()
        fleet.add_release(0.3, overrides={0: 0.5})
        fleet.rollback_last()
        assert fleet.horizon == 1
        np.testing.assert_array_equal(fleet.profile().tpl, before)
        with pytest.raises(ValueError):
            FleetAccountant((models[0], models[0])).rollback_last()

    def test_rejects_bad_epsilon(self, models):
        fleet = FleetAccountant((models[0], models[0]))
        with pytest.raises(InvalidPrivacyParameterError):
            fleet.add_release(-0.1)
        with pytest.raises(InvalidPrivacyParameterError):
            fleet.add_release(float("nan"))

    @pytest.mark.parametrize("alpha", [0.0, float("nan"), float("inf")])
    def test_rejects_bad_alpha(self, models, alpha):
        with pytest.raises(InvalidPrivacyParameterError):
            FleetAccountant((models[0], models[0]), alpha=alpha)

    def test_alpha_bound_and_rollback(self):
        identity = identity_matrix(2)
        fleet = FleetAccountant(
            {u: (identity, identity) for u in range(5)}, alpha=0.25
        )
        fleet.add_release(0.1)
        fleet.add_release(0.1)
        with pytest.raises(InvalidPrivacyParameterError):
            fleet.add_release(0.1)  # would be 0.3 > 0.25
        assert fleet.horizon == 2
        assert fleet.max_tpl() == pytest.approx(0.2)
        fleet.add_release(0.05)  # smaller release still fits
        assert fleet.max_tpl() <= 0.25 + 1e-12

    def test_user_joining_mid_stream(self, models):
        pair = (models[0], models[0])
        fleet = FleetAccountant({"early": pair})
        fleet.add_release(0.1)
        fleet.add_release(0.1)
        fleet.add_user("late", pair)
        fleet.add_release(0.1)
        assert fleet.profile("early").horizon == 3
        late = fleet.profile("late")
        assert late.horizon == 1
        # The late joiner's single release is leakage eps (no history).
        assert late.tpl[0] == pytest.approx(0.1)

    def test_rollback_past_a_join_is_refused_unchanged(self, models):
        """Rolling back below a mid-stream join used to pop the epsilon,
        then die with IndexError on the joiner's empty series, leaving
        the state half-changed.  It is refused up front, naming the user
        and the join horizon; rolling back *to* the join still works."""
        pair = (models[0], models[0])
        fleet = FleetAccountant({"early": pair})
        fleet.add_release(0.1)
        fleet.add_release(0.2)
        fleet.add_user("late", pair)
        fleet.add_user("solo", pair)
        fleet.add_release(0.3, overrides={"solo": 0.05})  # override row
        before = {u: fleet.profile(u) for u in fleet.users}
        worst = fleet.max_tpl()
        for n in (2, 3):
            with pytest.raises(ValueError, match="joined at horizon 2"):
                fleet.rollback(n)
            assert fleet.horizon == 3
            assert fleet.max_tpl() == worst
            for user, profile in before.items():
                np.testing.assert_array_equal(
                    fleet.profile(user).tpl, profile.tpl
                )
        fleet.rollback(1)
        assert fleet.horizon == 2
        assert fleet.profile("late").horizon == 0
        with pytest.raises(ValueError, match="user 'late' joined at horizon 2"):
            fleet.rollback_last()
        assert fleet.horizon == 2
        reference = FleetAccountant({"early": pair})
        reference.add_release(0.1)
        reference.add_release(0.2)
        np.testing.assert_array_equal(
            fleet.profile("early").tpl, reference.profile("early").tpl
        )

    def test_remove_user_drops_their_leakage(self, models):
        strong = identity_matrix(2)
        weak = uniform_matrix(2)
        fleet = FleetAccountant({"hot": (strong, strong), "cold": (weak, weak)})
        for _ in range(3):
            fleet.add_release(0.1)
        # identity correlation: BPL_t + FPL_t - eps_t == 0.3 at every t.
        assert fleet.max_tpl() == pytest.approx(0.3)
        fleet.remove_user("hot")
        assert fleet.max_tpl() == pytest.approx(0.1)  # uniform: just eps
        assert fleet.n_cohorts == 1

    def test_migrate_user_recomputes_history(self, models):
        strong = identity_matrix(2)
        weak = uniform_matrix(2)
        fleet = FleetAccountant({"u": (weak, weak), "other": (weak, weak)})
        for _ in range(3):
            fleet.add_release(0.1)
        assert fleet.profile("u").max_tpl == pytest.approx(0.1)
        fleet.migrate_user("u", (strong, strong))
        expected = temporal_privacy_leakage(strong, strong, [0.1, 0.1, 0.1])
        np.testing.assert_allclose(
            fleet.profile("u").tpl, expected.tpl, atol=PARITY_ATOL
        )
        assert fleet.n_cohorts == 2

    def test_failed_migrate_preserves_user(self, models):
        """Regression: a bad destination pair must not deregister the user
        or lose their leakage history."""
        pair = (models[0], models[0])
        fleet = FleetAccountant({"u": pair, "v": pair})
        fleet.add_release(0.1, overrides={"u": 0.3})
        before = fleet.profile("u").tpl.copy()
        with pytest.raises(TypeError):
            fleet.migrate_user("u", models[1])  # bare matrix: invalid
        with pytest.raises(ValueError):
            fleet.migrate_user("u", (models[0], models[1]))  # 2 vs 3 states
        assert "u" in set(fleet.users)
        np.testing.assert_array_equal(fleet.profile("u").tpl, before)

    def test_failed_index_migrate_preserves_user(self, models):
        index = CohortIndex()
        index.add("a", (models[0], models[0]))
        with pytest.raises(ValueError):
            index.migrate("a", (models[0], models[1]))
        assert "a" in index
        assert index.n_cohorts == 1

    def test_resolve_semantics_match_seed(self, population, models):
        fleet = FleetAccountant(population)
        fleet.add_release(0.1)
        with pytest.raises(ValueError):
            fleet.profile()  # ambiguous
        with pytest.raises(KeyError):
            fleet.profile("zzz")


# ---------------------------------------------------------------------------
# Per-user epsilon overrides -- one table row per overridden user
# ---------------------------------------------------------------------------
class TestOverrides:
    def test_override_matches_offline_quantification(self, models):
        pair = (models[1], models[1])
        fleet = FleetAccountant({u: pair for u in range(6)})
        schedule = [
            (0.1, {0: 0.02}),
            (0.2, {0: 0.05, 3: 0.4}),
            (0.1, {}),
            (0.3, {0: 0.01}),
        ]
        for eps, overrides in schedule:
            fleet.add_release(eps, overrides=overrides)
        for user in range(6):
            eps_u = fleet.user_epsilons(user)
            expected = temporal_privacy_leakage(*pair, eps_u)
            np.testing.assert_allclose(
                fleet.profile(user).tpl, expected.tpl, atol=PARITY_ATOL
            )
        # Override vectors recorded correctly.
        np.testing.assert_allclose(
            fleet.user_epsilons(0), [0.02, 0.05, 0.1, 0.01]
        )
        np.testing.assert_allclose(fleet.user_epsilons(1), [0.1, 0.2, 0.1, 0.3])

    def test_max_tpl_includes_override_users(self, models):
        pair = (models[0], models[0])
        fleet = FleetAccountant({u: pair for u in range(3)})
        fleet.add_release(0.1, overrides={0: 1.5})
        assert fleet.max_tpl() == pytest.approx(1.5)

    def test_override_unknown_user_rejected(self, models):
        fleet = FleetAccountant((models[0], models[0]))
        with pytest.raises(KeyError):
            fleet.add_release(0.1, overrides={"ghost": 0.2})

    def test_batch_loss_matches_scalar(self, models):
        for matrix in models:
            alphas = np.array([0.0, 1e-4, 0.05, 0.3, 1.0, 2.5, 10.0])
            batched = max_log_ratio_batch(matrix, alphas)
            scalar = np.array([max_log_ratio(matrix, a) for a in alphas])
            np.testing.assert_allclose(batched, scalar, atol=1e-12)

    PAIRS = [
        (two_state_matrix(0.8, 0.1), two_state_matrix(0.7, 0.2)),
        (random_stochastic_matrix(3, seed=5), random_stochastic_matrix(3, seed=6)),
        (two_state_matrix(0.6, 0.2), None),
    ]

    @settings(max_examples=25, deadline=None)
    @given(
        ops=st.lists(
            st.sampled_from(["release", "window", "join", "rollback", "migrate"]),
            min_size=3,
            max_size=10,
        ),
        seed=st.integers(0, 2**16),
    )
    def test_override_series_match_core_recursions(self, ops, seed):
        """Override members joining mid-stream, rollbacks and
        ``migrate_user``: every user's BPL/FPL stays bit-identical to the
        paper's recursions over the budgets the fleet says it spent."""
        rng = np.random.default_rng(seed)
        population = {u: self.PAIRS[u % len(self.PAIRS)] for u in range(4)}
        fleet = FleetAccountant(population)
        last_join = 0  # rolling back past a join time is out of contract

        def draw_overrides():
            users = rng.choice(list(population), size=2, replace=False)
            return {int(u): float(rng.uniform(0.0, 0.5)) for u in users}

        overridden = set(draw_overrides())
        fleet.add_release(0.1, {u: 0.2 for u in overridden})
        for op in ops:
            if op == "release":
                overrides = draw_overrides()
                fleet.add_release(float(rng.uniform(0.01, 0.4)), overrides)
                overridden.update(overrides)
            elif op == "window":
                overrides = draw_overrides()
                fleet.add_window(
                    [float(rng.uniform(0.01, 0.4)) for _ in range(3)],
                    [None, overrides, None],
                )
                overridden.update(overrides)
            elif op == "join":
                user = len(population)
                population[user] = self.PAIRS[int(rng.integers(len(self.PAIRS)))]
                fleet.add_user(user, population[user])
                last_join = fleet.horizon
            elif op == "rollback" and fleet.horizon > last_join:
                fleet.rollback(int(rng.integers(1, fleet.horizon - last_join + 1)))
            elif op == "migrate":
                user = int(rng.choice(sorted(overridden or population)))
                population[user] = self.PAIRS[int(rng.integers(len(self.PAIRS)))]
                fleet.migrate_user(user, population[user])

            for user, (backward, forward) in population.items():
                eps = fleet.user_epsilons(user)
                profile = fleet.profile(user)
                if eps.size == 0:
                    assert profile.fpl.size == 0
                    continue
                assert np.array_equal(
                    profile.fpl, forward_privacy_leakage(forward, eps)
                )
                assert np.array_equal(
                    profile.bpl, backward_privacy_leakage(backward, eps)
                )
        assert overridden


# ---------------------------------------------------------------------------
# Cross-cohort batching
# ---------------------------------------------------------------------------
def _fleet_state(fleet, population):
    """Every observable: per-step worsts implied by profiles, max TPL."""
    state = {"max_tpl": fleet.max_tpl(), "horizon": fleet.horizon}
    for user in population:
        p = fleet.profile(user)
        state[user] = (p.epsilons.tobytes(), p.bpl.tobytes(), p.fpl.tobytes())
    return state


def _core_worsts(fleet, population, steps):
    """Per-step worst TPL of the last ``steps`` releases from the paper's
    recursions in :mod:`repro.core`, one user at a time: every user's
    budget vector ends at the current horizon, so dropping its last
    ``steps - 1 - i`` entries gives the stream as it stood after step
    ``i``."""
    out = []
    for i in range(steps):
        cut = steps - 1 - i
        worst = 0.0
        for user, (backward, forward) in population.items():
            eps = fleet.user_epsilons(user)
            eps = eps[: max(0, eps.size - cut)]
            if eps.size:
                worst = max(
                    worst,
                    temporal_privacy_leakage(backward, forward, eps).max_tpl,
                )
        out.append(worst)
    return np.array(out)


def _core_state(fleet, population):
    """:func:`_fleet_state` with every series from the core recursions."""
    state = {
        "max_tpl": float(_core_worsts(fleet, population, 1)[0]),
        "horizon": fleet.horizon,
    }
    for user, (backward, forward) in population.items():
        eps = fleet.user_epsilons(user)
        if eps.size:
            p = temporal_privacy_leakage(backward, forward, eps)
            state[user] = (p.epsilons.tobytes(), p.bpl.tobytes(), p.fpl.tobytes())
        else:
            state[user] = (b"", b"", b"")
    return state


class TestCrossCohortParity:
    """The digest-batched cross-cohort sweep is a pure execution-plan
    change: every float it produces must be bit-identical to the paper's
    per-user recursions in :mod:`repro.core`."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16), users=st.integers(2, 12))
    def test_mixed_stream_bit_identity(self, seed, users):
        rng = np.random.default_rng(seed)
        pairs = [
            (two_state_matrix(0.8, 0.1), two_state_matrix(0.8, 0.1)),
            (two_state_matrix(0.6, 0.2), None),
            (random_stochastic_matrix(3, seed=3), random_stochastic_matrix(3, seed=4)),
            (None, None),
        ]
        population = {
            u: pairs[rng.integers(len(pairs))] for u in range(users)
        }
        fused = FleetAccountant(population)

        for step in range(6):
            eps = float(rng.uniform(0.01, 0.5))
            overrides = None
            if rng.random() < 0.4:
                user = int(rng.integers(users))
                overrides = {user: float(rng.uniform(0.01, 0.5))}
            if rng.random() < 0.3:
                window = [eps, float(rng.uniform(0.01, 0.5))]
                w_f = fused.add_window(window, [overrides, None])
                w_s = _core_worsts(fused, population, len(window))
                assert np.array_equal(w_f, w_s)
            else:
                assert fused.add_release(eps, overrides) == _core_worsts(
                    fused, population, 1
                )[0]
            if step == 2:
                joiner = users + 1
                population[joiner] = pairs[0]
                fused.add_user(joiner, pairs[0])

        assert _fleet_state(fused, population) == _core_state(
            fused, population
        )

    def test_probe_scales_matches_serial_probing(self, population):
        fleet = FleetAccountant(population)
        for eps in [0.1, 0.2, 0.05]:
            fleet.add_release(eps, overrides={0: 0.15} if eps == 0.2 else None)
        overrides = {0: 0.12, 1: 0.3}
        scales = [0.5, 0.25, 0.75, 0.125, 1.0]
        before = _fleet_state(fleet, population)
        probed = fleet.probe_release_scales(0.4, overrides, scales)
        assert _fleet_state(fleet, population) == before  # read-only
        for scale, worst in zip(scales, probed):
            scaled = {u: e * scale for u, e in overrides.items()}
            reference = fleet.add_release(0.4 * scale, scaled)
            fleet.rollback_last()
            assert worst == reference

    def test_probe_scales_rejects_unknown_override_user(self, population):
        fleet = FleetAccountant(population)
        fleet.add_release(0.1)
        with pytest.raises(KeyError):
            fleet.probe_release_scales(0.2, {"nobody": 0.1}, [0.5])


# ---------------------------------------------------------------------------
# Churn: every observable against the core recursions
# ---------------------------------------------------------------------------
CHURN_PAIRS = [
    (two_state_matrix(0.8, 0.1), two_state_matrix(0.7, 0.2)),
    (two_state_matrix(0.6, 0.2), two_state_matrix(0.7, 0.2)),  # same P_F
    (random_stochastic_matrix(3, seed=5), random_stochastic_matrix(3, seed=6)),
    (two_state_matrix(0.6, 0.2), None),
    (None, None),
]


@functools.lru_cache(maxsize=None)
def _core_profile(pair: int, epsilons: tuple):
    """The paper's recursions for one user: ``CHURN_PAIRS[pair]`` over the
    budgets the user spent."""
    return temporal_privacy_leakage(*CHURN_PAIRS[pair], list(epsilons))


def _core_worst(pair_of, spent, step=None, profile=_core_profile):
    """Worst TPL over every user from ``profile``; ``step`` maps each
    user to one more budget (a probed release)."""
    worst = 0.0
    for user, eps in spent.items():
        eps = tuple(eps) + ((step[user],) if step is not None else ())
        if eps:
            worst = max(worst, profile(pair_of[user], eps).max_tpl)
    return worst


class TestChurnParity:
    """Releases, windows, probes, joins, removals, migrations, rollbacks
    and checkpoint round trips in any order: after every operation each
    number the engine reports equals the core recursion over the budgets
    each user spent, tracked here independently of the engine."""

    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(
            st.sampled_from(
                [
                    "release",
                    "window",
                    "join",
                    "remove",
                    "migrate",
                    "rollback",
                    "probe",
                    "checkpoint",
                ]
            ),
            min_size=4,
            max_size=14,
        ),
        seed=st.integers(0, 2**16),
    )
    def test_every_observable_matches_core(self, ops, seed):
        rng = np.random.default_rng(seed)
        pair_of = {u: int(rng.integers(len(CHURN_PAIRS))) for u in range(4)}
        spent = {u: [] for u in pair_of}
        joined = dict.fromkeys(pair_of, 0)
        fleet = FleetAccountant({u: CHURN_PAIRS[p] for u, p in pair_of.items()})

        def draw_overrides():
            if rng.random() < 0.4:
                return None
            users = rng.choice(sorted(spent), size=min(2, len(spent)), replace=False)
            return {int(u): float(rng.uniform(0.0, 0.5)) for u in users}

        def record(epsilon, overrides):
            for user, eps in spent.items():
                eps.append((overrides or {}).get(user, epsilon))

        for op in ops:
            if op == "release":
                epsilon, overrides = float(rng.uniform(0.01, 0.4)), draw_overrides()
                record(epsilon, overrides)
                assert fleet.add_release(epsilon, overrides) == _core_worst(
                    pair_of, spent
                )
            elif op == "window":
                size = int(rng.integers(1, 4))
                budgets = [float(rng.uniform(0.01, 0.4)) for _ in range(size)]
                steps = [draw_overrides() for _ in range(size)]
                expected = []
                for epsilon, overrides in zip(budgets, steps):
                    record(epsilon, overrides)
                    expected.append(_core_worst(pair_of, spent))
                assert fleet.add_window(budgets, steps).tolist() == expected
            elif op == "join":
                user = max(pair_of) + 1
                pair_of[user] = int(rng.integers(len(CHURN_PAIRS)))
                spent[user], joined[user] = [], fleet.horizon
                fleet.add_user(user, CHURN_PAIRS[pair_of[user]])
            elif op == "remove" and len(spent) > 1:
                user = int(rng.choice(sorted(spent)))
                fleet.remove_user(user)
                del pair_of[user], spent[user], joined[user]
            elif op == "migrate":
                user = int(rng.choice(sorted(spent)))
                pair_of[user] = int(rng.integers(len(CHURN_PAIRS)))
                fleet.migrate_user(user, CHURN_PAIRS[pair_of[user]])
            elif op == "rollback":
                room = fleet.horizon - max(joined.values())
                if room > 0:
                    n = int(rng.integers(1, room + 1))
                    fleet.rollback(n)
                    for eps in spent.values():
                        del eps[len(eps) - n :]
            elif op == "probe":
                epsilon = float(rng.uniform(0.01, 0.4))
                overrides = draw_overrides() or {}
                scales = [1.0, 0.5, 0.125]
                probed = fleet.probe_release_scales(epsilon, overrides, scales)
                for scale, worst in zip(scales, probed):
                    step = {
                        u: overrides.get(u, epsilon) * scale for u in spent
                    }
                    assert worst == _core_worst(pair_of, spent, step)
            elif op == "checkpoint":
                with tempfile.TemporaryDirectory() as directory:
                    save_checkpoint(fleet, directory)
                    fleet = load_checkpoint(directory)

            assert fleet.max_tpl() == _core_worst(pair_of, spent)
            for user, eps in spent.items():
                assert fleet.user_epsilons(user).tolist() == eps
                profile = fleet.profile(user)
                if not eps:
                    assert profile.horizon == 0
                    continue
                reference = _core_profile(pair_of[user], tuple(eps))
                for name in ("epsilons", "bpl", "fpl", "tpl"):
                    assert np.array_equal(
                        getattr(profile, name), getattr(reference, name)
                    ), (op, user, name)

    def test_joiner_in_a_freed_row_starts_clean(self):
        """Removing the only member of a row frees its slot, and a later
        joiner's row reuses it: the joiner must start from zeros, not from
        the series the slot held before."""
        fleet = FleetAccountant({"a": CHURN_PAIRS[0], "b": CHURN_PAIRS[2]})
        fleet.add_window([0.3, 0.2])
        fleet.remove_user("a")
        fleet.add_user("c", CHURN_PAIRS[0])
        fleet.add_release(0.1)
        expected = {
            "b": _core_profile(2, (0.3, 0.2, 0.1)),
            "c": _core_profile(0, (0.1,)),
        }
        for user, reference in expected.items():
            assert np.array_equal(fleet.profile(user).tpl, reference.tpl)
        assert fleet.max_tpl() == max(p.max_tpl for p in expected.values())

    def test_probe_keeps_a_partly_split_group(self):
        """Overriding some members of a group splits them out of its row
        for the probe; the member left behind still counts.  Here that
        member -- on the default budget, far above the overrides --
        carries the worst TPL, so a probe that dropped the group row
        would read low."""
        pair = CHURN_PAIRS[0]
        fleet = FleetAccountant({u: pair for u in range(3)})
        fleet.add_window([0.3, 0.3])
        overrides = {0: 0.01, 1: 0.02}
        scales = [1.0, 0.5]
        probed = fleet.probe_release_scales(0.4, overrides, scales)
        for scale, worst in zip(scales, probed):
            assert worst == _core_profile(0, (0.3, 0.3, 0.4 * scale)).max_tpl
            assert worst > _core_profile(0, (0.3, 0.3, 0.02 * scale)).max_tpl


# ---------------------------------------------------------------------------
# Converged-suffix exit: long streams, every observable against the core
# ---------------------------------------------------------------------------
#: At EXIT_EPSILON the FPL of the first three forward models stops moving,
#: bit for bit, within 22-31 steps; the last one never does (it cycles in
#: the last ulp around its supremum), so its row sweeps to t=0 while the
#: others leave.
EXIT_PAIRS = [
    (two_state_matrix(0.6, 0.4), two_state_matrix(0.6, 0.4)),
    (random_stochastic_matrix(3, seed=6), random_stochastic_matrix(3, seed=6)),
    (two_state_matrix(0.8, 0.1), None),
    (None, None),
    (random_stochastic_matrix(3, seed=16), random_stochastic_matrix(3, seed=16)),
]
NEVER_CONVERGES = len(EXIT_PAIRS) - 1
EXIT_EPSILON = 0.1
EXIT_ALPHA = 10.0


@functools.lru_cache(maxsize=None)
def _exit_profile(pair: int, epsilons: tuple):
    return temporal_privacy_leakage(*EXIT_PAIRS[pair], list(epsilons))


_exit_worst = functools.partial(_core_worst, profile=_exit_profile)


class TestSweepExit:
    """The same churn as :class:`TestChurnParity` on streams long enough,
    and models converging fast enough, that rows leave the sweep early:
    repeated budgets, rollbacks followed by re-releases that repeat the
    rolled-back budgets above a changed first one, rejected windows,
    overrides split off after a sweep, joins, removals, migrations and
    checkpoints.  After every operation each number equals the core
    recursion over the budgets each user spent."""

    @settings(max_examples=25, deadline=None)
    @given(
        ops=st.lists(
            st.sampled_from(
                [
                    "release",
                    "window",
                    "rerelease",
                    "reject",
                    "probe",
                    "join",
                    "remove",
                    "migrate",
                    "checkpoint",
                ]
            ),
            min_size=3,
            max_size=9,
        ),
        seed=st.integers(0, 2**16),
        slow_from_start=st.booleans(),
    )
    def test_every_observable_matches_core(self, ops, seed, slow_from_start):
        rng = np.random.default_rng(seed)
        pair_of = {u: int(rng.integers(NEVER_CONVERGES)) for u in range(4)}
        pair_of[0] = 1  # a forward model the window memo serves
        if slow_from_start:
            pair_of[4] = NEVER_CONVERGES
        spent = {u: [] for u in pair_of}
        joined = dict.fromkeys(pair_of, 0)
        steps = []  # (epsilon, overrides) per recorded release
        registry = MetricsRegistry()
        fleet = FleetAccountant(
            {u: EXIT_PAIRS[p] for u, p in pair_of.items()},
            alpha=EXIT_ALPHA,
            registry=registry,
        )

        def draw_epsilon():
            roll = rng.random()
            if roll < 0.1:
                return 0.0
            if roll < 0.7:
                return EXIT_EPSILON
            return float(rng.uniform(0.01, 0.4))

        def draw_overrides():
            if rng.random() < 0.6:
                return None
            users = rng.choice(sorted(spent), size=min(2, len(spent)), replace=False)
            return {int(u): draw_epsilon() for u in users}

        def window(budgets, overrides):
            expected = []
            for epsilon, step in zip(budgets, overrides):
                steps.append((epsilon, step))
                for user, eps in spent.items():
                    eps.append((step or {}).get(user, epsilon))
                expected.append(_exit_worst(pair_of, spent))
            assert fleet.add_window(budgets, overrides).tolist() == expected

        def rolled_back(n):
            fleet.rollback(n)
            del steps[len(steps) - n :]
            for eps in spent.values():
                del eps[len(eps) - n :]

        # A stream whose early budgets carry its worst TPL, then a long
        # run of one budget: the second window's rows leave the sweep
        # (unless a never-converging row is in the table), and the TPL
        # they fold in from below their exit is the worst.  The zero
        # budget makes a row without forward correlation reach FPL 0
        # there, which a row holding zeros instead of its FPL would
        # match.
        head = [float(rng.uniform(0.2, 0.5)), 0.0, float(rng.uniform(0.2, 0.5))]
        window(head + [EXIT_EPSILON] * 36, [None] * 39)
        window([EXIT_EPSILON] * 4, [None] * 4)
        assert registry.counter("fleet.sweep.memo.hits").value > 0
        if not slow_from_start:
            depth = registry.snapshot()['fleet.sweep.depth{kind="window"}']
            assert depth["max"] < fleet.horizon  # the second sweep exited
            user = max(pair_of) + 1
            pair_of[user], spent[user] = NEVER_CONVERGES, []
            joined[user] = fleet.horizon
            fleet.add_user(user, EXIT_PAIRS[NEVER_CONVERGES])

        for op in ops:
            room = fleet.horizon - max(joined.values())
            if op == "release":
                epsilon, overrides = draw_epsilon(), draw_overrides()
                steps.append((epsilon, overrides))
                for user, eps in spent.items():
                    eps.append((overrides or {}).get(user, epsilon))
                assert fleet.add_release(epsilon, overrides) == _exit_worst(
                    pair_of, spent
                )
            elif op == "window":
                size = int(rng.integers(1, 7))
                window(
                    [draw_epsilon() for _ in range(size)],
                    [draw_overrides() for _ in range(size)],
                )
            elif op == "rerelease" and room >= 2:
                n = int(rng.integers(2, min(room, 6) + 1))
                again = steps[len(steps) - n :]
                rolled_back(n)
                budgets = [again[0][0] + 0.05] + [e for e, _ in again[1:]]
                kept = [
                    {u: e for u, e in (o or {}).items() if u in spent}
                    for _, o in again
                ]
                window(budgets, kept)
            elif op == "reject":
                before = fleet.max_tpl()
                with pytest.raises(InvalidPrivacyParameterError):
                    fleet.add_window([EXIT_EPSILON, 2 * EXIT_ALPHA])
                assert fleet.max_tpl() == before
                if room > 0:
                    rolled_back(int(rng.integers(1, min(room, 4) + 1)))
                op = "probe"
            elif op == "join":
                user = max(pair_of) + 1
                pair_of[user] = int(rng.integers(len(EXIT_PAIRS)))
                spent[user], joined[user] = [], fleet.horizon
                fleet.add_user(user, EXIT_PAIRS[pair_of[user]])
            elif op == "remove" and len(spent) > 1:
                user = int(rng.choice(sorted(spent)))
                fleet.remove_user(user)
                del pair_of[user], spent[user], joined[user]
            elif op == "migrate":
                user = int(rng.choice(sorted(spent)))
                pair_of[user] = int(rng.integers(len(EXIT_PAIRS)))
                fleet.migrate_user(user, EXIT_PAIRS[pair_of[user]])
            elif op == "checkpoint":
                with tempfile.TemporaryDirectory() as directory:
                    save_checkpoint(fleet, directory)
                    fleet = load_checkpoint(directory)
                fleet.instrument(registry)
            if op == "probe":
                epsilon, overrides = draw_epsilon(), draw_overrides() or {}
                scales = [1.0, 0.5, 0.125]
                probed = fleet.probe_release_scales(epsilon, overrides, scales)
                for scale, worst in zip(scales, probed):
                    step = {u: overrides.get(u, epsilon) * scale for u in spent}
                    assert worst == _exit_worst(pair_of, spent, step)

            assert fleet.max_tpl() == _exit_worst(pair_of, spent)
            for user, eps in spent.items():
                assert fleet.user_epsilons(user).tolist() == eps
                profile = fleet.profile(user)
                if not eps:
                    assert profile.horizon == 0
                    continue
                reference = _exit_profile(pair_of[user], tuple(eps))
                for name in ("epsilons", "bpl", "fpl", "tpl"):
                    assert np.array_equal(
                        getattr(profile, name), getattr(reference, name)
                    ), (op, user, name)


# ---------------------------------------------------------------------------
# The kept worst: max_tpl() after a refused step is a read
# ---------------------------------------------------------------------------
def _query_sweeps(registry) -> int:
    return registry.snapshot().get('fleet.sweep.depth{kind="query"}', {}).get(
        "count", 0
    )


class TestKeptWorst:
    """A rollback to exactly where the last window started restores that
    state's worst TPL, so :meth:`FleetAccountant.max_tpl` after a refused
    step runs no query sweep.  The table's FPL is then the refused
    stream's, so :meth:`FleetAccountant.profile` still sweeps; any
    membership change in between, or a rollback to anywhere else, makes
    the next query sweep."""

    PRELUDE = [0.3, 0.1, 0.25]
    WINDOW = [0.2, 0.4]

    def build(self):
        """Six users over every churn pair; user 2 carries the worst."""
        pair_of = {u: u % len(CHURN_PAIRS) for u in range(6)}
        spent = {u: list(self.PRELUDE) for u in pair_of}
        spent[1][1], spent[2][2] = 0.05, 0.6
        registry = MetricsRegistry()
        fleet = FleetAccountant(
            {u: CHURN_PAIRS[p] for u, p in pair_of.items()}, registry=registry
        )
        fleet.add_window(self.PRELUDE, [None, {1: 0.05}, {2: 0.6}])
        return fleet, registry, pair_of, spent

    @staticmethod
    def assert_matches_core(fleet, pair_of, spent):
        assert fleet.max_tpl() == _core_worst(pair_of, spent)
        for user, eps in spent.items():
            reference = _core_profile(pair_of[user], tuple(eps))
            profile = fleet.profile(user)
            for name in ("epsilons", "bpl", "fpl", "tpl"):
                assert np.array_equal(
                    getattr(profile, name), getattr(reference, name)
                ), (user, name)

    @pytest.mark.parametrize("overrides", [None, [{3: 0.05}, None]])
    def test_rollback_to_the_window_start_is_a_read(self, overrides):
        """The override splits user 3 off its group inside the window;
        the worst is kept before that, and the split is neutral."""
        fleet, registry, pair_of, spent = self.build()
        before = fleet.max_tpl()
        fleet.add_window(self.WINDOW, overrides)
        fleet.rollback(len(self.WINDOW))
        queries = _query_sweeps(registry)
        assert fleet.max_tpl() == before
        assert _query_sweeps(registry) == queries
        # The held FPL is the rolled-back stream's: profile() sweeps once.
        self.assert_matches_core(fleet, pair_of, spent)
        assert _query_sweeps(registry) == queries + 1

    def test_refused_release_and_window_are_reads(self):
        """The engine's own alpha refusals roll back to where they
        started: the worst is the pre-release one, with no sweep."""
        fleet, registry, pair_of, spent = self.build()
        fleet._alpha = fleet.max_tpl() + 0.01
        before = fleet.max_tpl()
        queries = _query_sweeps(registry)
        with pytest.raises(InvalidPrivacyParameterError):
            fleet.add_window(self.WINDOW)
        assert fleet.max_tpl() == before
        with pytest.raises(InvalidPrivacyParameterError):
            fleet.add_release(0.4, {3: 0.5})
        assert fleet.max_tpl() == before
        # add_release measures its release with a query sweep; the
        # rollback after it adds none.
        assert _query_sweeps(registry) == queries + 1
        self.assert_matches_core(fleet, pair_of, spent)

    @pytest.mark.parametrize("change", ["join-and-leave", "remove", "migrate"])
    def test_membership_change_forgets_the_kept_worst(self, change):
        """Removing or migrating user 2 lowers the worst at the window's
        start, so restoring the kept one would read high."""
        fleet, registry, pair_of, spent = self.build()
        kept = fleet.max_tpl()
        fleet.add_window(self.WINDOW)
        if change == "join-and-leave":
            fleet.add_user("new", CHURN_PAIRS[0])
            fleet.remove_user("new")
        elif change == "remove":
            fleet.remove_user(2)
            del pair_of[2], spent[2]
        else:
            pair_of[2] = 4
            fleet.migrate_user(2, CHURN_PAIRS[4])
        if change != "join-and-leave":
            assert _core_worst(pair_of, spent) < kept
        fleet.rollback(len(self.WINDOW))
        queries = _query_sweeps(registry)
        self.assert_matches_core(fleet, pair_of, spent)
        assert _query_sweeps(registry) == queries + 1

    def test_partial_rollback_sweeps(self):
        fleet, registry, pair_of, spent = self.build()
        fleet.add_window(self.WINDOW + [0.1])
        fleet.rollback(1)
        for user, eps in spent.items():
            eps.extend(self.WINDOW)
        queries = _query_sweeps(registry)
        self.assert_matches_core(fleet, pair_of, spent)
        assert _query_sweeps(registry) == queries + 1


# ---------------------------------------------------------------------------
# Solution cache
# ---------------------------------------------------------------------------
class TestSolutionCache:
    def test_hits_and_misses(self):
        cache = SolutionCache(maxsize=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_lru_eviction_order(self):
        cache = SolutionCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now LRU
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.evictions == 1

    def test_rejects_bad_maxsize(self):
        with pytest.raises(ValueError):
            SolutionCache(maxsize=0)

    def test_shared_across_loss_functions(self, models):
        cache = SolutionCache()
        first = TemporalLossFunction(two_state_matrix(0.8, 0.0), cache=cache)
        second = TemporalLossFunction(two_state_matrix(0.8, 0.0), cache=cache)
        value = first(0.5)
        before = cache.misses
        assert second(0.5) == value  # L2 hit: byte-identical matrix
        assert cache.misses == before
        assert cache.hits >= 1

    def test_install_serves_scalar_path(self, models):
        cache = SolutionCache()
        previous = cache.install()
        try:
            assert get_shared_solution_cache() is cache
            loss = TemporalLossFunction(two_state_matrix(0.7, 0.1))
            loss(0.3)
            assert len(cache) == 1
        finally:
            set_shared_solution_cache(previous)

    def test_engine_reuses_solves_across_cohorts(self, models):
        # Two cohorts, identical backward matrix content.  On the scalar
        # per-user path the second user's recursion hits the first one's
        # solves; the fleet's cross-cohort path goes one further and
        # *fuses* them -- same digest, same alpha, one solve -- so the
        # second cohort costs no extra misses at all.
        P = two_state_matrix(0.8, 0.0)
        P_copy = two_state_matrix(0.8, 0.0)

        serial_cache = SolutionCache()
        serial = TemporalPrivacyAccountant(
            {"a": (P, P), "b": (P_copy, None)}, cache=serial_cache
        )
        for _ in range(5):
            serial.add_release(0.1)
        assert serial_cache.hits > 0

        cache = SolutionCache()
        fleet = FleetAccountant(
            {"a": (P, P), "b": (P_copy, None)}, cache=cache
        )
        for _ in range(5):
            fleet.add_release(0.1)
        solo_cache = SolutionCache()
        solo = FleetAccountant({"a": (P, P)}, cache=solo_cache)
        for _ in range(5):
            solo.add_release(0.1)
        assert cache.misses <= solo_cache.misses
        assert fleet.max_tpl() == serial.max_tpl()

    def test_batch_path_warm_start_reuses_cache(self):
        """The memoised batch path answers repeated values from a warm
        cache without new solves, bit-identical to the cold solves."""
        m = two_state_matrix(0.7, 0.2)
        grid = [0.0, 1e-12, 0.25, 0.25, 1.0, 5.0, 0.0]
        cache = SolutionCache()
        fleet = FleetAccountant(cache=cache)
        loss = TemporalLossFunction(m)
        (cold,) = fleet._loss_batch_multi([(loss, grid)])
        assert np.array_equal(cold, max_log_ratio_batch(m, grid))
        misses_after_cold = cache.stats()["misses"]
        (warm,) = fleet._loss_batch_multi([(loss, grid)])
        assert np.array_equal(warm, cold)
        assert cache.stats()["misses"] == misses_after_cold
        assert cache.stats()["hits"] > 0


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------
class TestCheckpoint:
    def test_round_trip_exact(self, population, tmp_path):
        fleet = FleetAccountant(population, alpha=5.0)
        for eps, overrides in [(0.1, {0: 0.02}), (0.2, {}), (0.15, {7: 0.3})]:
            fleet.add_release(eps, overrides=overrides)
        save_checkpoint(fleet, tmp_path / "ckpt")
        restored = load_checkpoint(tmp_path / "ckpt")
        assert restored.horizon == fleet.horizon
        assert restored.alpha == fleet.alpha
        assert set(restored.users) == set(fleet.users)
        assert restored.max_tpl() == fleet.max_tpl()  # bit-identical
        for user in population:
            live = fleet.profile(user)
            back = restored.profile(user)
            assert np.array_equal(live.epsilons, back.epsilons)
            assert np.array_equal(live.bpl, back.bpl)
            assert np.array_equal(live.fpl, back.fpl)
            assert np.array_equal(live.tpl, back.tpl)

    def test_restored_engine_continues(self, population, tmp_path):
        fleet = FleetAccountant(population)
        for _ in range(3):
            fleet.add_release(0.1)
        save_checkpoint(fleet, tmp_path / "ckpt")
        restored = load_checkpoint(tmp_path / "ckpt")
        live_worst = fleet.add_release(0.2, overrides={1: 0.05})
        back_worst = restored.add_release(0.2, overrides={1: 0.05})
        assert back_worst == pytest.approx(live_worst, abs=PARITY_ATOL)
        np.testing.assert_allclose(
            restored.profile(1).tpl, fleet.profile(1).tpl, atol=PARITY_ATOL
        )

    def test_tuple_user_ids_round_trip(self, models, tmp_path):
        pair = (models[0], models[0])
        fleet = FleetAccountant({("tenant", 1): pair, ("tenant", 2): pair})
        fleet.add_release(0.1)
        save_checkpoint(fleet, tmp_path / "ckpt")
        restored = load_checkpoint(tmp_path / "ckpt")
        assert set(restored.users) == {("tenant", 1), ("tenant", 2)}

    def test_rejects_foreign_directory(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"kind": "other"}')
        with pytest.raises(ValueError):
            load_checkpoint(tmp_path)


# ---------------------------------------------------------------------------
# Batched release pipeline (through the service front door)
# ---------------------------------------------------------------------------
class TestFleetRelease:
    def test_release_feeds_accountant(self, models):
        from repro.data import HistogramQuery
        from repro.service import ReleaseSession, SessionConfig

        pair = (models[0], models[0])
        rng = np.random.default_rng(3)
        session = ReleaseSession(
            SessionConfig(
                correlations={u: pair for u in range(20)},
                budgets=0.1,
                query=HistogramQuery(2),
                backend="fleet",
                seed=0,
            )
        )
        for _ in range(6):
            session.ingest(rng.integers(0, 2, size=20))
        events = session.events
        assert len(events) == 6
        assert session.backend.horizon == 6
        assert events[-1].max_tpl == pytest.approx(session.backend.max_tpl())
        # TPL grows as releases accumulate under correlation.
        assert events[-1].max_tpl > events[0].max_tpl
        for event in events:
            assert event.noisy_answer.shape == (2,)

"""Seeded inputs of the three benchmark workloads.

Everything a workload feeds the program -- correlation models, snapshots,
budgets, per-user overrides and the alpha bound -- derives from the
``--seed`` argument here, so the same seed always gives the same inputs.
Cohort models follow ``benchmarks/_harness.py``: cohort ``i`` of a
population drawn at base ``b`` uses ``random_stochastic_matrix(states,
seed=b + i)``.

Work per run is fixed by ``--seconds`` (not by the clock), so counts made
on ``horizon`` and ``clamp`` repeat exactly for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.supremum import leakage_supremum
from repro.data import HistogramQuery
from repro.markov import random_stochastic_matrix
from repro.service import SessionConfig

#: Why each workload exists -- the one-line reason, also in BENCHMARK.json.
WORKLOADS = {
    "horizon": (
        "one publisher, 2000 users, windows of 64 to T=768: only stream age "
        "dominates, so FPL-sweep and solver changes show here first"
    ),
    "clamp": (
        "publisher at its alpha cap on 2 pipe shards: session policy, probe "
        "sweep and shard RPC at a shallow fixed horizon; horizon-flat"
    ),
    "serve": (
        "TCP front door: open-loop small tenants, closed-loop coalesced "
        "fleet tenants, batch group commit, SIGKILL and WAL recovery"
    ),
}

# -- horizon -----------------------------------------------------------
HORIZON_USERS = 2000
HORIZON_COHORTS = 8
HORIZON_STATES = 3
HORIZON_WINDOW = 64
HORIZON_DEPTH = 768  # 12 windows; the last costs ~10x the first
HORIZON_EPSILON = 0.1

# -- clamp -------------------------------------------------------------
CLAMP_USERS = 512
CLAMP_COHORTS = 16
CLAMP_STATES = 2
CLAMP_SHARDS = 2
CLAMP_EPS = (0.03, 0.05)
CLAMP_OVERRIDE_EVERY = 4  # one seeded step in every 4 carries overrides
CLAMP_OVERRIDE_USERS = 3  # users overridden on such a step
CLAMP_OVERRIDE_EPS = (0.01, 0.06)
#: The budget runs out after this many full releases, on every seed.
CLAMP_CAP_AT = 24

# -- serve -------------------------------------------------------------
SERVE_SMALL_TENANTS = 4  # phase A: scalar backend ("auto" below 64 users)
SERVE_SMALL_USERS = 24
SERVE_SMALL_COHORTS = 4
SERVE_BIG_TENANTS = 4  # phase B: fleet backend
SERVE_BIG_USERS = 256
SERVE_BIG_COHORTS = 2
SERVE_STATES = 3
SERVE_EPSILON = 0.1
SERVE_WINDOW = 32  # queue drain bound: how many requests may coalesce
SERVE_CONNECTIONS = 2
SERVE_RATE = 50.0  # phase A offered load, requests/s over all tenants
#: Phase B requests in flight per tenant: a full queue (two windows), one
#: window computing and one window's replies in transit, so every window
#: the lane drains is full and the work per step does not depend on timing.
SERVE_DEPTH = 4 * SERVE_WINDOW


def cohort_models(states: int, cohorts: int, base: int) -> list:
    return [random_stochastic_matrix(states, seed=base + i) for i in range(cohorts)]


def population(models: list, users: int) -> dict:
    """``user -> (P_B, P_F)`` with users dealt to cohorts round-robin."""
    return {u: (models[u % len(models)],) * 2 for u in range(users)}


def snapshots(rng: np.random.Generator, count: int, users: int, states: int):
    return rng.integers(0, states, size=(count, users))


# -- per-workload plans -------------------------------------------------


@dataclass
class HorizonPlan:
    seed: int
    streams: int
    models: list

    def config(self, stream: int) -> SessionConfig:
        return SessionConfig(
            correlations=population(self.models, HORIZON_USERS),
            budgets=HORIZON_EPSILON,
            query=HistogramQuery(HORIZON_STATES),
            backend="fleet",
            seed=self.seed * 1000 + stream,
        )

    def windows(self, stream: int):
        """The stream's snapshot windows, ``(64, users)`` each."""
        rng = np.random.default_rng([self.seed, stream])
        for _ in range(HORIZON_DEPTH // HORIZON_WINDOW):
            yield snapshots(rng, HORIZON_WINDOW, HORIZON_USERS, HORIZON_STATES)


def horizon_plan(seed: int, seconds: float) -> HorizonPlan:
    # One T=768 stream takes ~9 s on a 2-vCPU VM.
    streams = max(1, round(seconds / 10))
    models = cohort_models(HORIZON_STATES, HORIZON_COHORTS, seed)
    return HorizonPlan(seed, streams, models)


@dataclass
class ClampPlan:
    seed: int
    models: list
    alpha: float
    epsilons: np.ndarray
    overrides: list  # per step: None or {user: eps}
    snapshots: np.ndarray

    def config(self) -> SessionConfig:
        return SessionConfig(
            correlations=population(self.models, CLAMP_USERS),
            budgets=float(np.mean(CLAMP_EPS)),
            query=HistogramQuery(CLAMP_STATES),
            alpha=self.alpha,
            alpha_mode="clamp",
            shards=CLAMP_SHARDS,
            shard_transport="pipe",
            seed=self.seed,
        )


def planned_worst(models: list, epsilons, overrides, steps: int) -> float:
    """Worst TPL of the plan's first ``steps`` releases in full, by the
    ``repro.core`` recursion."""
    from perfbench.checks import reference_worst, stream_series

    return reference_worst(stream_series(models, epsilons[:steps], overrides[:steps]))


def clamp_alpha(models: list, epsilons, overrides) -> float:
    """Midway between the worst TPL of the first ``CLAMP_CAP_AT`` planned
    releases and that of one more, so the budget runs out at the same
    depth on every seed: step ``CLAMP_CAP_AT + 1`` is clamped and later
    steps are rejected after a full bisection, save the odd one whose
    small epsilon still fits in part and is clamped.

    The Theorem-5 supremum (``leakage_supremum``) bounds every finite
    stream's TPL, so alpha sits under it; a plain share of the supremum
    instead put the cap anywhere from T=6 to T=40 across seeds (the worst
    cohort's convergence speed decides), which moved the per-step cost
    of the capped stream threefold.
    """
    below = planned_worst(models, epsilons, overrides, CLAMP_CAP_AT)
    above = planned_worst(models, epsilons, overrides, CLAMP_CAP_AT + 1)
    return 0.5 * (below + above)


def clamp_supremum(models: list) -> float:
    """The population's Theorem-5 TPL supremum at the top budget (BPL
    and FPL suprema coincide for ``P_B == P_F``)."""
    top = max(CLAMP_EPS[1], CLAMP_OVERRIDE_EPS[1])
    return max(2.0 * leakage_supremum(m, top) - top for m in models)


def clamp_plan(seed: int, seconds: float) -> ClampPlan:
    # A step at the cap costs ~150-190 ms (full bisection on 2 shards).
    steps = max(CLAMP_CAP_AT + 16, int(seconds * 5))
    models = cohort_models(CLAMP_STATES, CLAMP_COHORTS, seed)
    rng = np.random.default_rng([seed, 1])
    epsilons = rng.uniform(*CLAMP_EPS, size=steps)
    overrides: list = [None] * steps
    for block in range(0, steps, CLAMP_OVERRIDE_EVERY):
        step = block + int(rng.integers(CLAMP_OVERRIDE_EVERY))
        users = rng.choice(CLAMP_USERS, size=CLAMP_OVERRIDE_USERS, replace=False)
        eps = rng.uniform(*CLAMP_OVERRIDE_EPS, size=CLAMP_OVERRIDE_USERS)
        if step < steps:
            overrides[step] = {int(u): float(e) for u, e in zip(users, eps)}
    return ClampPlan(
        seed=seed,
        models=models,
        alpha=clamp_alpha(models, epsilons, overrides),
        epsilons=epsilons,
        overrides=overrides,
        snapshots=snapshots(rng, steps, CLAMP_USERS, CLAMP_STATES),
    )


@dataclass
class Tenant:
    name: str
    users: int
    models: list
    seed: int

    def config(self, wal_dir) -> SessionConfig:
        """The tenant's session config.  The server passes the WAL root
        (``build_session`` appends the tenant id); recovery passes the
        tenant's own log directory."""
        return SessionConfig(
            correlations=population(self.models, self.users),
            budgets=SERVE_EPSILON,
            query=HistogramQuery(SERVE_STATES),
            window_size=SERVE_WINDOW,
            queue_maxsize=2 * SERVE_WINDOW,
            wal_dir=str(wal_dir),
            wal_fsync="batch",
            seed=self.seed,
        )


def serve_tenants(seed: int) -> list:
    """Phase A tenants ``a0..`` then phase B tenants ``b0..``; every
    tenant draws its cohorts from its own disjoint seed range."""
    tenants = []
    base = seed
    for kind, count, users, cohorts in (
        ("a", SERVE_SMALL_TENANTS, SERVE_SMALL_USERS, SERVE_SMALL_COHORTS),
        ("b", SERVE_BIG_TENANTS, SERVE_BIG_USERS, SERVE_BIG_COHORTS),
    ):
        for k in range(count):
            models = cohort_models(SERVE_STATES, cohorts, base)
            tenants.append(Tenant(f"{kind}{k}", users, models, seed * 100 + len(tenants)))
            base += cohorts
    return tenants


def serve_counts(seconds: float) -> tuple:
    """``(phase A requests, phase B requests)`` for a run of ``seconds``:
    phase A is an open-loop schedule over 40% of the run at the fixed
    rate, phase B a fixed number of closed-loop requests sized to take
    about 30% of the run at today's ~250 steps/s."""
    phase_a = max(100, int(0.4 * seconds * SERVE_RATE))
    phase_b = max(200, int(0.3 * seconds * 250))
    return phase_a, phase_b

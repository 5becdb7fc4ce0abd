"""Solver faults mid-mutation must leave accounting state unchanged.

Loss evaluations can raise :class:`SolverError` (e.g. Dinkelbach
non-convergence) *after* an ``add_window``/``add_release`` has started
mutating -- budgets appended, some cohorts extended, others not.  The
async queue's per-item retry of a failed batch and the session's
"failing chunk is atomic" contract both require that such a fault
unwinds completely: these tests inject a fault at every point of the
evaluation sequence and assert the state is bit-identical to never
having attempted the call, on the scalar accountant, the fleet engine,
both in-process backends, and the process-sharded coordinator.
"""

import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.core.accountant import TemporalPrivacyAccountant
from repro.core.loss_functions import TemporalLossFunction
from repro.exceptions import SolverError
from repro.fleet.engine import FleetAccountant
from repro.markov import two_state_matrix
from repro.obs import MetricsRegistry
from repro.service import (
    FleetAccountantBackend,
    ReleaseWindow,
    ScalarAccountantBackend,
    ShardedFleetBackend,
)

M = two_state_matrix(0.8, 0.1)
N = two_state_matrix(0.6, 0.2)
POPULATION = {u: ((M, M) if u % 2 else (N, N)) for u in range(4)}
PRELUDE = [0.1, 0.2]
WINDOW = [0.3, 0.15, 0.25]


def _snapshot(accountant, users):
    """Full observable state: budgets, worst TPL, per-user series."""
    profiles = {}
    for user in users:
        p = accountant.profile(user)
        profiles[user] = (
            p.epsilons.tolist(),
            p.bpl.tolist(),
            p.fpl.tolist(),
        )
    return (
        accountant.horizon,
        np.asarray(accountant.epsilons).tolist(),
        accountant.max_tpl(),
        profiles,
    )


def _inject_fault(monkeypatch, fail_at: int) -> None:
    """Make the ``fail_at``-th loss evaluation raise SolverError.

    Patches the memoised scalar path (``TemporalLossFunction.__call__``,
    used by the scalar accountant) and the fleet's one batched path
    (``FleetAccountant._loss_batch_multi``: BPL extension and the
    window, probe and query sweeps) with one shared counter,
    so the fault lands at every distinct point of the evaluation
    sequence as ``fail_at`` sweeps.
    """
    calls = {"n": 0}
    original_call = TemporalLossFunction.__call__
    original_multi = FleetAccountant._loss_batch_multi

    def tick():
        calls["n"] += 1
        if calls["n"] == fail_at:
            raise SolverError("injected fault")

    def flaky_call(self, value):
        tick()
        return original_call(self, value)

    def flaky_multi(self, jobs, **kwargs):
        tick()
        return original_multi(self, jobs, **kwargs)

    monkeypatch.setattr(TemporalLossFunction, "__call__", flaky_call)
    monkeypatch.setattr(FleetAccountant, "_loss_batch_multi", flaky_multi)


def _count_evaluations(build, mutate) -> int:
    """How many loss evaluations the mutation performs end to end (the
    target is built outside the patch so setup evaluations don't
    count)."""
    target = build()
    calls = {"n": 0}
    original_call = TemporalLossFunction.__call__
    original_multi = FleetAccountant._loss_batch_multi
    with pytest.MonkeyPatch.context() as mp:

        def counting_call(self, value):
            calls["n"] += 1
            return original_call(self, value)

        def counting_multi(self, jobs, **kwargs):
            calls["n"] += 1
            return original_multi(self, jobs, **kwargs)

        mp.setattr(TemporalLossFunction, "__call__", counting_call)
        mp.setattr(FleetAccountant, "_loss_batch_multi", counting_multi)
        mutate(target)
    return calls["n"]


def _assert_fault_atomic(build, mutate, users):
    """Inject a SolverError at every evaluation point of ``mutate`` and
    assert the target is left bit-identical to its pre-call state."""
    total = _count_evaluations(build, mutate)
    assert total >= 2, "fault injection needs a multi-evaluation mutation"
    for fail_at in range(1, total + 1):
        target = build()
        before = _snapshot(target, users)
        with pytest.MonkeyPatch.context() as monkeypatch:
            _inject_fault(monkeypatch, fail_at)
            with pytest.raises(SolverError):
                mutate(target)
        assert _snapshot(target, users) == before, (
            f"state changed after fault at evaluation {fail_at}/{total}"
        )
        close = getattr(target, "close", None)
        if close is not None:
            close()


def test_scalar_accountant_add_release_is_fault_atomic():
    def build():
        accountant = TemporalPrivacyAccountant(POPULATION)
        for eps in PRELUDE:
            accountant.add_release(eps)
        return accountant

    _assert_fault_atomic(
        build, lambda a: a.add_release(0.3), list(POPULATION)
    )


def test_fleet_engine_add_window_is_fault_atomic():
    def build():
        fleet = FleetAccountant(POPULATION)
        for eps in PRELUDE:
            fleet.add_release(eps)
        return fleet

    _assert_fault_atomic(
        build, lambda f: f.add_window(WINDOW), list(POPULATION)
    )


def test_fleet_engine_add_window_with_overrides_is_fault_atomic():
    def build():
        fleet = FleetAccountant(POPULATION)
        for eps in PRELUDE:
            fleet.add_release(eps)
        return fleet

    overrides = [None, {0: 0.05, 1: 0.4}, None]
    _assert_fault_atomic(
        build,
        lambda f: f.add_window(WINDOW, overrides),
        list(POPULATION),
    )


def test_fleet_window_fault_keeps_held_fpl_bounds_and_memo():
    """The next sweep compares against the held FPL rows under their
    bounds and reads the last window's memo, so a fault anywhere in a
    window must leave all three as they were: the sweep writes them only
    once it has finished."""

    def build():
        fleet = FleetAccountant(POPULATION)
        fleet.add_window(PRELUDE * 3)
        return fleet

    def internals(fleet):
        table, rows = fleet._table, fleet._table.rows
        return (
            table.series[2, :rows, : fleet.horizon].tobytes(),
            table.keys[3, :rows].tolist(),
            {digest: dict(values) for digest, values in fleet._memo.items()},
        )

    total = _count_evaluations(build, lambda f: f.add_window(WINDOW))
    for fail_at in range(1, total + 1):
        fleet = build()
        before = internals(fleet)
        with pytest.MonkeyPatch.context() as monkeypatch:
            _inject_fault(monkeypatch, fail_at)
            with pytest.raises(SolverError):
                fleet.add_window(WINDOW)
        assert internals(fleet) == before, f"fault at {fail_at}/{total}"


def test_fleet_window_fault_restores_the_pre_window_worst():
    """A fault anywhere in a window unwinds to where the window started,
    which restores the pre-window worst TPL: max_tpl() equals it bit for
    bit without a query sweep."""

    def build():
        fleet = FleetAccountant(POPULATION, registry=MetricsRegistry())
        for eps in PRELUDE:
            fleet.add_release(eps)
        return fleet

    def query_sweeps(fleet):
        depth = fleet._registry.snapshot().get(
            'fleet.sweep.depth{kind="query"}', {}
        )
        return depth.get("count", 0)

    total = _count_evaluations(build, lambda f: f.add_window(WINDOW))
    for fail_at in range(1, total + 1):
        fleet = build()
        before, queries = fleet.max_tpl(), query_sweeps(fleet)
        with pytest.MonkeyPatch.context() as monkeypatch:
            _inject_fault(monkeypatch, fail_at)
            with pytest.raises(SolverError):
                fleet.add_window(WINDOW)
        assert fleet.max_tpl() == before, f"fault at {fail_at}/{total}"
        assert query_sweeps(fleet) == queries


@pytest.mark.parametrize(
    "backend_cls", [ScalarAccountantBackend, FleetAccountantBackend]
)
def test_backend_add_window_is_fault_atomic(backend_cls):
    def build():
        backend = backend_cls(POPULATION)
        backend.add_window(
            ReleaseWindow.from_snapshots([None] * len(PRELUDE), epsilon=0.1)
        )
        return backend

    window = ReleaseWindow.from_snapshots([None] * len(WINDOW), epsilon=0.3)
    _assert_fault_atomic(
        build, lambda b: b.add_window(window), list(POPULATION)
    )


def test_sharded_backend_survives_a_faulting_shard(monkeypatch):
    """A shard worker hitting a solver fault reports the error; the
    coordinator rewinds the shards that applied and the whole backend is
    left bit-identical to its pre-window state.  Workers are separate
    processes, so the fault is injected by patching the engine in the
    *parent* before the workers fork (the children inherit the patch)."""
    calls = {"n": 0}
    original_multi = FleetAccountant._loss_batch_multi

    def flaky_multi(self, jobs, **kwargs):
        calls["n"] += 1
        if calls["n"] == 3:
            raise SolverError("injected fault")
        return original_multi(self, jobs, **kwargs)

    backend = ShardedFleetBackend(POPULATION, shards=2)
    try:
        backend.add_release(0.1)
        before = _snapshot(backend, list(POPULATION))
        # Patch after spawn would not reach the children -- so this test
        # only runs meaningfully under the fork start method, where a
        # *new* backend inherits the patch.
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fault injection into workers requires fork")
        monkeypatch.setattr(FleetAccountant, "_loss_batch_multi", flaky_multi)
        faulty = ShardedFleetBackend(POPULATION, shards=2)
        try:
            faulty.add_release(0.1)
            reference = _snapshot(faulty, list(POPULATION))
            with pytest.raises(SolverError, match="injected"):
                faulty.add_window(
                    ReleaseWindow.from_snapshots(
                        [None] * len(WINDOW), epsilon=0.3
                    )
                )
            assert _snapshot(faulty, list(POPULATION)) == reference
            assert reference == before
        finally:
            faulty.close()
    finally:
        backend.close()


def test_sharded_rewind_survives_a_worker_death(monkeypatch):
    """A worker that dies while the coordinator rewinds a failed window
    is rebuilt to the post-window state its re-issued rollback expects:
    the window's own error surfaces and the backend ends bit-identical
    to its pre-window state.  (The rebuilt worker used to come back at
    the pre-window state, so the re-issued rollback undid releases that
    were never part of the window.)"""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fault injection into workers requires fork")
    population = {
        u: ((M, M) if u % 2 else (two_state_matrix(0.7, 0.1),) * 2)
        for u in range(4)
    }
    original = FleetAccountant.add_window

    def flaky_window(self, epsilons, overrides=None):
        epsilons = list(epsilons)
        if 1 in set(self.users) and len(epsilons) == len(WINDOW):
            raise SolverError("injected fault")
        return original(self, epsilons, overrides)

    monkeypatch.setattr(FleetAccountant, "add_window", flaky_window)
    backend = ShardedFleetBackend(population, shards=2)
    monkeypatch.undo()  # restored workers fork without the fault
    try:
        assert backend.shard_of(0) != backend.shard_of(1)
        reference = FleetAccountantBackend(population)
        for epsilon in PRELUDE + PRELUDE:  # deeper than the window
            backend.add_release(epsilon)
            reference.add_release(epsilon)
        rewind = backend._call

        def kill_then_call(index, op, args=None):
            proc = backend._procs[index]
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=10)
            return rewind(index, op, args)

        monkeypatch.setattr(backend, "_call", kill_then_call)
        with pytest.raises(SolverError, match="injected"):
            backend.add_window(
                ReleaseWindow.from_snapshots([None] * len(WINDOW), epsilon=0.3)
            )
        monkeypatch.undo()
        users = list(population)
        assert _snapshot(backend, users) == _snapshot(reference, users)
    finally:
        backend.close()

"""Sharded fleet accounting: cohorts scattered across worker processes.

The paper's BPL/FPL/TPL recursions are strictly sequential *per user*,
but cohorts (users sharing a ``(P_B, P_F)`` pair) are mutually
independent: the fleet-wide worst-case TPL is a plain maximum over
per-cohort contributions, and ``max`` is exact in floating point.  That
makes the fleet engine shardable with **no accuracy cost**:

* cohorts are partitioned across ``N`` worker processes by a stable hash
  of their canonical correlation digest (:func:`shard_of_digest`), so the
  same population always lands on the same shards -- across restarts,
  across machines;
* each worker owns a private :class:`~repro.fleet.engine.FleetAccountant`
  over its cohorts and answers a tiny command protocol over a
  :class:`~repro.net.transport.ShardTransport` -- either the original
  same-machine ``multiprocessing.Pipe`` or a length-prefixed framed
  socket (``repro shard-worker --listen``) for workers on other
  machines;
* the coordinator (:class:`ShardedFleetBackend`) implements the full
  :class:`~repro.service.backends.AccountantBackend` protocol by
  *scattering* every ``add_window`` to all shards and *gathering* the
  per-shard per-step worst-TPL series, merged by elementwise ``max`` --
  bit-identical to the single-process
  :class:`~repro.service.backends.FleetAccountantBackend`, the same hard
  guarantee the scalar/fleet and windowed/per-event parity suites already
  enforce (``tests/test_service_sharding.py`` and
  ``tests/test_net_parity.py`` extend them).

Per-user budget overrides are routed to the single shard owning that
user's cohort; rollbacks (including the session's probe-and-rollback
alpha clamping) broadcast to every shard, so the probe/undo dance stays
exact.  Checkpoints are one directory holding a shard manifest plus one
ordinary fleet checkpoint (``.npz`` + manifest) per shard, written and
restored in parallel.

**Worker failure is recoverable.**  The recursions make a shard's state
a pure function of its correlation models and its budget history, and
the coordinator already holds the budgets.  Beside them it keeps a
three-field restore record: the last checkpoint's horizon (``base``),
the lowest horizon reached since (``low``), and the override splits of
the steps since that carry any.  When a worker's transport fails, the
coordinator respawns or redials it, loads the last checkpoint (or the
original partition when none exists), rolls back ``base - low`` steps,
applies every budget from ``low`` on as one window, and re-issues the
in-flight request.  Windowed and per-event ingestion perform the same
float operations, so a killed worker rejoins bit-identically.  A worker
that cannot be restored closes the whole backend.

Worker processes are daemonic (they die with the coordinator) and are
shut down deterministically by :meth:`ShardedFleetBackend.close` (also a
context manager).  Shard workers build private
:class:`~repro.fleet.solution_cache.SolutionCache` instances; caches are
transparent state, so per-process caches do not affect the numbers.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import time
from pathlib import Path
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from ..core.budget import validate_epsilon
from ..core.leakage import LeakageProfile
from ..fleet.checkpoint import load_checkpoint, save_checkpoint
from ..fleet.cohorts import correlation_digest, normalise_pair
from ..fleet.engine import FleetAccountant
from ..fleet.solution_cache import SolutionCache
from ..net.frames import TransportClosed, TransportTimeout
from ..net.transport import (
    PipeTransport,
    ShardTransport,
    SocketTransport,
    parse_address,
)
from ..obs.metrics import NULL_REGISTRY
from .window import ReleaseWindow, WindowResult

__all__ = [
    "ShardedFleetBackend",
    "build_shard_engine",
    "run_shard_loop",
    "shard_dispatch",
    "shard_of_digest",
    "SHARD_MANIFEST_NAME",
    "SHARD_CHECKPOINT_KIND",
]

SHARD_MANIFEST_NAME = "shard_manifest.json"
SHARD_CHECKPOINT_KIND = "sharded_fleet_checkpoint"
_SHARD_FORMAT_VERSION = 1

#: Transports a coordinator can drive its workers over.
SHARD_TRANSPORTS = ("pipe", "socket")


def shard_of_digest(digest: str, shards: int) -> int:
    """Deterministic shard index of a cohort digest.

    Uses a content hash rather than Python's salted ``hash()`` so the
    cohort -> shard assignment is stable across processes, machines and
    checkpoint/restore cycles -- a cohort's accounting state must always
    find its way back to the shard that owns it.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    prefix = hashlib.sha256(digest.encode("utf-8")).digest()[:8]
    return int.from_bytes(prefix, "big") % shards


def _mp_context():
    """Fork where available (cheap, Linux); the default context (spawn)
    elsewhere.  Both work: worker arguments are picklable and the worker
    entry point is module-level."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def build_shard_engine(correlations, restore_dir, cache_maxsize):
    """Build one worker's private engine from its spec triple.

    The same triple travels as process arguments (pipe transport) or as
    the first frame after the handshake (socket transport).
    """
    cache = (
        SolutionCache(maxsize=cache_maxsize)
        if cache_maxsize is not None
        else SolutionCache()
    )
    if restore_dir is not None:
        return load_checkpoint(restore_dir, cache=cache)
    return FleetAccountant(correlations, cache=cache)


def shard_dispatch(engine: FleetAccountant, op: str, args):
    """Execute one coordinator command against a worker's engine."""
    if op == "add_window":
        epsilons, overrides = args
        return engine.add_window(epsilons, overrides)
    if op == "rollback":
        return engine.rollback(args)
    if op == "probe_scales":
        epsilon, overrides, scales = args
        return engine.probe_release_scales(epsilon, overrides, scales)
    if op == "max_tpl":
        return engine.max_tpl()
    if op == "profile":
        return engine.profile(args)
    if op == "user_epsilons":
        return engine.user_epsilons(args)
    if op == "save":
        return str(save_checkpoint(engine, args))
    if op == "cache_maxsize":
        return engine.cache.maxsize
    if op == "describe":
        return {
            "users": list(engine.users),
            "epsilons": [float(e) for e in engine.epsilons],
            "n_cohorts": engine.n_cohorts,
        }
    raise RuntimeError(f"unknown shard op {op!r}")  # pragma: no cover


def run_shard_loop(channel, engine: FleetAccountant) -> bool:
    """Serve one coordinator over ``channel`` until it hangs up.

    ``channel`` is anything with ``send``/``recv`` message semantics --
    a ``multiprocessing`` connection or a
    :class:`~repro.net.transport.SocketTransport`.  Every command is
    answered with ``("ok", result)`` or ``("error", exception)`` so the
    coordinator can re-raise backend errors in the caller's process.
    Returns True if the coordinator sent an explicit ``close`` (session
    over), False if it merely disconnected (a socket worker goes back
    to accepting).
    """
    while True:
        try:
            op, args = channel.recv()
        except (EOFError, OSError):
            return False
        if op == "close":
            try:
                channel.send(("ok", None))
            except (BrokenPipeError, OSError):
                pass  # coordinator already hung up
            return True
        try:
            result = shard_dispatch(engine, op, args)
        except BaseException as error:  # noqa: BLE001 -- relayed
            reply = ("error", error)
        else:
            reply = ("ok", result)
        try:
            channel.send(reply)
        except (BrokenPipeError, OSError):
            return False  # coordinator gone; nothing left to serve


def _shard_worker(conn, correlations, restore_dir, cache_maxsize) -> None:
    """Pipe-transport worker-process entry point: one private engine,
    one command loop."""
    try:
        engine = build_shard_engine(correlations, restore_dir, cache_maxsize)
    except BaseException as error:  # noqa: BLE001 -- relayed as handshake
        # Setup failures (missing checkpoint dir, bad correlations)
        # must reach the coordinator as the real exception, not as an
        # opaque dead pipe.
        try:
            conn.send(("error", error))
        finally:
            conn.close()
        return
    conn.send(("ok", None))  # startup handshake: engine is ready
    try:
        run_shard_loop(conn, engine)
    finally:
        conn.close()


class _RestoreRecord:
    """What a dead worker needs on top of the last checkpoint.

    ``base`` is the checkpoint's horizon and ``low`` the lowest horizon
    the stream reached since.  ``overrides`` maps each step since that
    carries overrides to its per-shard split; the budgets themselves are
    the coordinator's ``_epsilons``.  Steps enter in increasing order
    and a rollback drops the newest, so the map trims from its end.
    """

    __slots__ = ("base", "low", "overrides")

    def __init__(self) -> None:
        self.reset(0)

    def reset(self, horizon: int) -> None:
        """A checkpoint at ``horizon`` is the new restore point."""
        self.base = self.low = horizon
        self.overrides: Dict[int, List[Dict[Hashable, float]]] = {}

    def extend(self, start: int, splits) -> None:
        """Record the per-step override splits of a window applied at
        horizon ``start``."""
        for offset, split in enumerate(splits):
            if any(split):
                self.overrides[start + offset] = split

    def rollback(self, horizon: int) -> None:
        """The stream was rolled back to ``horizon``."""
        self.low = min(self.low, horizon)
        while self.overrides and next(reversed(self.overrides)) >= horizon:
            self.overrides.popitem()

    def replay(self, index: int, epsilons: List[float]) -> list:
        """The ops that take shard ``index`` from the checkpoint to the
        stream's current state (``epsilons`` is the whole budget
        series): one rollback to ``low``, then every step since as one
        window."""
        ops = []
        if self.base > self.low:
            ops.append(("rollback", self.base - self.low))
        if len(epsilons) > self.low:
            overrides = [
                self.overrides[step][index] if step in self.overrides else {}
                for step in range(self.low, len(epsilons))
            ]
            ops.append(("add_window", (epsilons[self.low :], overrides)))
        return ops


class ShardedFleetBackend:
    """Cohort-sharded fleet accounting behind the backend protocol.

    Parameters
    ----------
    correlations:
        Anything :func:`~repro.service.backends.normalise_correlations`
        accepts (the population must be non-empty).
    shards:
        Number of worker processes.  ``1`` is legal (useful for
        debugging the process plumbing) but the single-process
        :class:`~repro.service.backends.FleetAccountantBackend` is the
        better choice there.  Ignored when ``shard_addresses`` is given
        (one shard per address).
    cache:
        Solution caches are process-local, so the coordinator cannot
        share this object with its workers; only its ``maxsize`` is
        honoured -- each worker builds a private
        :class:`SolutionCache` of that size, keeping the operator's
        per-process memory bound.  Caches are transparent state -- they
        never change the numbers.
    transport:
        ``"pipe"`` (default): fork daemon workers driven over
        ``multiprocessing.Pipe``.  ``"socket"``: the same workers behind
        the framed TCP protocol -- spawned locally on loopback when
        ``shard_addresses`` is None, or dialled at the given
        ``HOST:PORT`` addresses (each running
        ``repro shard-worker --listen``).
    shard_addresses:
        Addresses of externally-managed workers; implies
        ``transport="socket"`` and ``shards=len(shard_addresses)``.
        Remote restore-from-checkpoint requires the checkpoint
        directory to be reachable from the worker (shared filesystem).

    Notes
    -----
    Bit-identical to :class:`FleetAccountantBackend` on identical
    streams: each shard performs exactly the float operations the
    single-process engine performs for its cohorts, and the per-step
    worst-TPL merge is an elementwise ``max`` (exact).  A failed window
    is atomic: all validation happens in the coordinator before any
    shard is touched, and if a shard still fails mid-scatter the
    already-applied shards are rolled back before the error is re-raised
    (the async queue's per-item retry of a failed batch relies on this).
    A worker whose transport fails is rebuilt from the last checkpoint
    and the restore record, and its in-flight request re-issued (see the
    module docstring); a worker that cannot be rebuilt closes the
    backend.
    """

    name = "sharded"
    supports_checkpoint = True

    def __init__(
        self,
        correlations,
        *,
        shards: int = 2,
        cache: Optional[SolutionCache] = None,
        registry=None,
        transport: str = "pipe",
        shard_addresses=None,
    ) -> None:
        shards = self._init_runtime(
            transport, shard_addresses, shards, registry
        )
        # Import here: backends imports this module lazily (make_backend)
        # and this module needs backends' normaliser -- a top-level import
        # each way would be a cycle.
        from .backends import normalise_correlations

        users = normalise_correlations(correlations)
        partitions: List[Dict[Hashable, object]] = [{} for _ in range(shards)]
        self._user_shard: Dict[Hashable, int] = {}
        for user, value in users.items():
            pair = normalise_pair(value)
            index = shard_of_digest(correlation_digest(*pair), shards)
            partitions[index][user] = pair
            self._user_shard[user] = index
        maxsize = cache.maxsize if cache is not None else None
        self._specs = [(p, None, maxsize) for p in partitions]
        self._start_workers()

    def _init_runtime(
        self, transport: str, shard_addresses, shards: int, registry
    ) -> int:
        """Validate the transport options and set the state shared by
        ``__init__`` and :meth:`restore`; returns the shard count (one
        per address when ``shard_addresses`` is given)."""
        if shard_addresses is not None:
            addresses = [parse_address(a) for a in shard_addresses]
            if not addresses:
                raise ValueError("shard_addresses must be non-empty")
            transport = "socket"
            shards = len(addresses)
        else:
            addresses = None
        if transport not in SHARD_TRANSPORTS:
            raise ValueError(
                f"unknown shard transport {transport!r}; "
                f"expected one of {SHARD_TRANSPORTS}"
            )
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self._registry = registry if registry is not None else NULL_REGISTRY
        self._transport_kind = transport
        self._addresses: Optional[List[Tuple[str, int]]] = addresses
        self._transports: Optional[List[Optional[ShardTransport]]] = None
        self._procs: Optional[list] = None
        self._epsilons: List[float] = []
        self._record = _RestoreRecord()
        # A resharded copy of a checkpoint that this backend restores
        # from; removed on close (see ReleaseSession._restore_resharded).
        self._owned_dir = None
        return shards

    # -- worker lifecycle ----------------------------------------------
    def _launch(self, index: int, spec):
        """Start (or dial) one worker and ship its spec; returns
        ``(transport, process-or-None)``.  The engine-ready handshake is
        *not* consumed here -- callers read it so startup stays parallel
        across shards."""
        if self._transport_kind == "pipe":
            ctx = _mp_context()
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_shard_worker, args=(child, *spec), daemon=True
            )
            proc.start()
            child.close()
            return PipeTransport(parent), proc
        if self._addresses is not None:
            host, port = self._addresses[index]
            transport = self._dial(host, port)
            transport.send(spec)
            return transport, None
        # Locally-spawned socket worker: the child binds loopback:0,
        # reports its chosen port over a one-shot control pipe, then
        # accepts framed connections like a standalone shard worker.
        from ..net.worker import spawned_socket_worker

        ctx = _mp_context()
        ctrl_parent, ctrl_child = ctx.Pipe()
        proc = ctx.Process(
            target=spawned_socket_worker, args=(ctrl_child,), daemon=True
        )
        proc.start()
        ctrl_child.close()
        try:
            if not ctrl_parent.poll(30):
                raise TransportClosed(
                    "socket shard worker did not report a port within 30s"
                )
            port = ctrl_parent.recv()
        except (EOFError, OSError) as error:
            proc.terminate()
            raise TransportClosed(
                f"socket shard worker died before reporting a port: {error}"
            ) from error
        finally:
            ctrl_parent.close()
        try:
            transport = SocketTransport.connect("127.0.0.1", port)
            transport.send(spec)
        except BaseException:
            proc.terminate()
            raise
        return transport, proc

    def _dial(self, host: str, port: int) -> SocketTransport:
        """Connect to an externally-managed worker, retrying briefly --
        a restarted worker needs a moment to rebind its port."""
        attempts = 10
        for attempt in range(attempts):
            try:
                return SocketTransport.connect(host, port, timeout=10.0)
            except TransportClosed:
                if attempt == attempts - 1:
                    raise
                time.sleep(min(0.2 * (attempt + 1), 1.0))
        raise AssertionError("unreachable")  # pragma: no cover

    @staticmethod
    def _expect_ok(transport: ShardTransport):
        """Read one reply, re-raising a relayed error payload."""
        status, payload = transport.recv()
        if status == "error":
            raise payload
        return payload

    def _start_workers(self) -> None:
        transports: List[Optional[ShardTransport]] = []
        procs = []
        try:
            for index, spec in enumerate(self._specs):
                transport, proc = self._launch(index, spec)
                transports.append(transport)
                procs.append(proc)
        except BaseException:
            for transport in transports:
                transport.close()
            for proc in procs:
                if proc is not None:
                    proc.terminate()
            raise
        self._transports = transports
        self._procs = procs
        try:
            # Startup handshake: every worker reports its engine built
            # (or relays the real setup exception -- a missing shard
            # checkpoint surfaces as its FileNotFoundError, not as an
            # opaque dead pipe on the first command).
            for transport in transports:
                self._expect_ok(transport)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Shut the worker processes down (idempotent).  A closed backend
        answers no further queries; close it only when the session is
        done with it."""
        if self._owned_dir is not None:
            # Only a rebuild source: the workers hold their engines.
            self._owned_dir.cleanup()
            self._owned_dir = None
        if self._transports is None:
            return
        live = [t for t in self._transports if t is not None]
        for transport in live:
            try:
                transport.send(("close", None))
            except (TransportClosed, OSError):
                pass
        for transport in live:
            try:
                transport.recv(timeout=5)
            except (TransportClosed, TransportTimeout, OSError):
                pass
            transport.close()
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=5)
        self._transports = None
        self._procs = None

    def __enter__(self) -> "ShardedFleetBackend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # -- recovery -------------------------------------------------------
    def _teardown_worker(self, index: int) -> None:
        transport = self._transports[index]
        if transport is not None:
            transport.close()
        self._transports[index] = None
        proc = self._procs[index]
        if proc is not None:
            proc.terminate()
            proc.join(timeout=5)
            self._procs[index] = None

    def _restore_shard(self, index: int) -> None:
        """Bring a dead shard back bit-identically: respawn or redial
        it, rebuild its engine from the last checkpoint (or the original
        partition) and replay the restore record.  Any failure on the
        way falls back to :meth:`_fail` (close the backend, raise)."""
        try:
            self._registry.counter("shard.restores", shard=index).inc()
            with self._registry.span("shard.restore.seconds"):
                self._teardown_worker(index)
                transport, proc = self._launch(index, self._specs[index])
                self._transports[index] = transport
                self._procs[index] = proc
                self._expect_ok(transport)  # engine-ready handshake
                for message in self._record.replay(index, self._epsilons):
                    transport.send(message)
                    # Every replayed step succeeded once; an error here
                    # means the restore source is unusable.
                    self._expect_ok(transport)
        except BaseException as error:  # noqa: BLE001 -- downgraded to fail
            self._fail(index, error)

    # -- scatter/gather plumbing ---------------------------------------
    def _require_open(self) -> None:
        if self._transports is None:
            raise RuntimeError("ShardedFleetBackend is closed")

    def _fail(self, index: int, error: BaseException):
        """A shard is gone for good (its restore, or the request
        re-issued after it, failed).  Its cohorts' accounting state
        cannot be recovered, so the backend as a whole can no longer
        answer honestly -- and surviving shards may hold unread replies
        that would desynchronise the rpc protocol.  Tear everything down
        and surface one clear error; every subsequent call raises the
        explicit "closed" RuntimeError."""
        self.close()
        raise RuntimeError(
            f"shard {index} terminated unexpectedly; backend closed"
        ) from error

    def _send(self, index: int, op, args=None) -> None:
        try:
            self._transports[index].send((op, args))
        except (TransportClosed, OSError):
            self._restore_shard(index)
            try:
                self._transports[index].send((op, args))
            except (TransportClosed, OSError) as retry_error:
                self._fail(index, retry_error)

    def _recv(self, index: int, op, args):
        """Collect one reply from shard ``index``.  On transport failure
        the shard is restored and the in-flight ``(op, args)`` -- lost
        with the old worker -- is re-issued exactly once."""
        try:
            return self._transports[index].recv()
        except (TransportClosed, OSError):
            self._restore_shard(index)
            try:
                self._transports[index].send((op, args))
                return self._transports[index].recv()
            except (TransportClosed, OSError) as retry:
                self._fail(index, retry)

    def _scatter(self, requests) -> list:
        """Send every ``(index, op, args)`` request, then collect one
        reply per request; returns the raw ``(status, payload)``
        outcomes in request order.

        Replies are polled for and read in completion order, and each
        shard's ``shard.rpc.seconds`` label is recorded when *its* reply
        turned up -- a fixed-order read would fold every earlier shard's
        wait into later shards' labels, so the slowest shard would
        dominate all of them.  A shard that dies is restored and its
        request re-issued; one that cannot be restored closes the
        backend.
        """
        self._require_open()
        registry = self._registry
        t0 = time.perf_counter() if registry.enabled else 0.0
        for index, op, args in requests:
            self._send(index, op, args)
        if registry.enabled:
            registry.histogram("shard.scatter.seconds").observe(
                time.perf_counter() - t0
            )
        pending = dict(enumerate(requests))
        outcomes: list = [None] * len(requests)
        while pending:
            ready = [
                slot
                for slot, (index, _, _) in pending.items()
                if self._transports[index].poll(0.0)
            ]
            if not ready:
                oldest = min(pending)
                if not self._transports[pending[oldest][0]].poll(0.005):
                    continue
                ready = [oldest]
            for slot in ready:
                index, op, args = pending.pop(slot)
                outcomes[slot] = self._recv(index, op, args)
                if registry.enabled:
                    registry.histogram(
                        "shard.rpc.seconds", shard=index
                    ).observe(time.perf_counter() - t0)
        return outcomes

    def _gather(self, requests) -> list:
        """:meth:`_scatter`, returning the payloads and re-raising the
        first error payload -- only after every reply has been collected,
        so no shard is left with an unread response in its channel."""
        outcomes = self._scatter(requests)
        for status, payload in outcomes:
            if status == "error":
                raise payload
        return [payload for _, payload in outcomes]

    def _broadcast(self, op, args=None) -> list:
        return self._gather([(i, op, args) for i in range(self.n_shards)])

    def _call(self, index: int, op, args=None):
        return self._gather([(index, op, args)])[0]

    def _split_overrides(self, overrides) -> List[Dict[Hashable, float]]:
        """Route one step's per-user overrides to the shards owning those
        users, validated in the order the single-process engine
        validates them."""
        split: List[Dict[Hashable, float]] = [{} for _ in self._transports]
        for user, eps_u in (overrides or {}).items():
            owner = self._user_shard.get(user)
            if owner is None:
                raise KeyError(f"override for unknown user {user!r}")
            validate_epsilon(eps_u, name="override epsilon")
            split[owner][user] = eps_u
        return split

    # -- stream interface ----------------------------------------------
    def add_window(self, window: ReleaseWindow) -> WindowResult:
        """Scatter a window to every shard and merge the per-step worst
        series by elementwise max.

        Validation (budgets, override users, override budgets) happens
        here, before any shard is touched, in exactly the order the
        single-process engine validates -- identical errors, and a
        failing window leaves every shard unchanged.
        """
        with self._registry.span(
            "backend.add_window.seconds", backend=self.name
        ):
            result = self._add_window(window)
        self._registry.counter("backend.steps", backend=self.name).inc(
            len(result.max_tpls)
        )
        return result

    def _add_window(self, window: ReleaseWindow) -> WindowResult:
        from .backends import _resolved_steps

        n_shards = self.n_shards
        steps = _resolved_steps(window)
        epsilons = [validate_epsilon(eps) for eps, _ in steps]
        splits = [self._split_overrides(ovr) for _, ovr in steps]
        outcomes = self._scatter(
            [
                (i, "add_window", (epsilons, [split[i] for split in splits]))
                for i in range(n_shards)
            ]
        )
        start = len(self._epsilons)
        self._record.extend(start, splits)
        self._epsilons.extend(epsilons)
        errors = [payload for status, payload in outcomes if status == "error"]
        if errors:
            # Coordinator-side validation makes this unreachable for bad
            # input; it guards against shard-side faults such as a
            # SolverError mid-window.  The failing engine already unwound
            # itself (FleetAccountant truncates a half-applied window),
            # so rewinding the shards that applied restores the global
            # pre-window state exactly.  The record holds the window
            # until then: a shard that dies mid-rewind is rebuilt to the
            # post-window state its re-issued rollback expects.
            for index, (status, _) in enumerate(outcomes):
                if status == "ok":
                    self._call(index, "rollback", len(epsilons))
            del self._epsilons[start:]
            self._record.rollback(start)
            raise errors[0]
        with self._registry.span("shard.merge.seconds"):
            merged = np.maximum.reduce([payload for _, payload in outcomes])
        return WindowResult(merged)

    def add_release(
        self,
        epsilon: float,
        overrides: Optional[Mapping[Hashable, float]] = None,
    ) -> float:
        """One-element-window compatibility wrapper over
        :meth:`add_window`."""
        return self.add_window(
            ReleaseWindow.single(epsilon=epsilon, overrides=overrides)
        ).final_max_tpl

    def rollback_last(self) -> None:
        if not self._epsilons:
            raise ValueError("no releases to roll back")
        self.rollback(1)

    def rollback(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if n > len(self._epsilons):
            raise ValueError(
                f"cannot roll back {n} releases; only "
                f"{len(self._epsilons)} recorded"
            )
        if n == 0:
            return
        self._broadcast("rollback", n)
        del self._epsilons[len(self._epsilons) - n :]
        self._record.rollback(len(self._epsilons))

    def probe_scales(
        self,
        epsilon: float,
        overrides: Optional[Mapping[Hashable, float]] = None,
        scales: Iterable[float] = (),
    ) -> np.ndarray:
        """Scatter a read-only multi-scale probe to every shard and merge
        the per-scale worsts by elementwise max (each shard's answer
        already carries the serial probe's ``0.0`` floor, so the merge is
        the exact cross-shard maximum).

        Validation mirrors :meth:`_add_window` -- same checks in the
        same order, before any shard is touched.  The op mutates
        nothing, so the restore record ignores it: a worker that dies
        mid-probe is restored and the re-issued probe answers
        bit-identically.
        """
        with self._registry.span(
            "backend.probe_scales.seconds", backend=self.name
        ):
            n_shards = self.n_shards
            epsilon = validate_epsilon(epsilon)
            split = self._split_overrides(overrides)
            scales = [float(s) for s in scales]
            results = self._gather(
                [
                    (i, "probe_scales", (epsilon, split[i], scales))
                    for i in range(n_shards)
                ]
            )
            return np.maximum.reduce(results)

    # -- queries --------------------------------------------------------
    def max_tpl(self) -> float:
        """Worst TPL over all users and time points: the max over
        per-shard maxima (exact -- ``max`` is associative in floats)."""
        return max(self._broadcast("max_tpl"))

    def profile(self, user: Optional[Hashable] = None) -> LeakageProfile:
        if user is None:
            if len(self._user_shard) != 1:
                raise ValueError("multiple users tracked; specify which one")
            user = next(iter(self._user_shard))
        owner = self._user_shard.get(user)
        if owner is None:
            raise KeyError(f"unknown user {user!r}")
        return self._call(owner, "profile", user)

    def user_epsilons(self, user: Hashable) -> np.ndarray:
        owner = self._user_shard.get(user)
        if owner is None:
            raise KeyError(f"unknown user {user!r}")
        return self._call(owner, "user_epsilons", user)

    @property
    def horizon(self) -> int:
        return len(self._epsilons)

    @property
    def epsilons(self) -> np.ndarray:
        return np.asarray(self._epsilons, dtype=float)

    @property
    def users(self) -> Iterable[Hashable]:
        return self._user_shard.keys()

    @property
    def n_users(self) -> int:
        return len(self._user_shard)

    @property
    def n_shards(self) -> int:
        self._require_open()
        return len(self._transports)

    @property
    def transport(self) -> str:
        """Which transport drives the workers (observability)."""
        return self._transport_kind

    def shard_of(self, user: Hashable) -> int:
        """Which shard owns ``user``'s cohort (observability)."""
        owner = self._user_shard.get(user)
        if owner is None:
            raise KeyError(f"unknown user {user!r}")
        return owner

    def shard_sizes(self) -> List[int]:
        """Users per shard -- the balance operators watch when choosing
        a shard count for a given cohort population."""
        sizes = [0] * self.n_shards
        for index in self._user_shard.values():
            sizes[index] += 1
        return sizes

    # -- checkpointing --------------------------------------------------
    def save(self, directory) -> Path:
        """Write one fleet checkpoint per shard plus the shard manifest.

        Shards persist in parallel (scatter the ``save``, then gather),
        each an ordinary ``.npz`` + manifest fleet checkpoint under
        ``shard_<i>/``.  A successful save becomes the new restore
        point: dead workers are rebuilt from it, and the restore record
        starts over at its horizon.
        """
        path = Path(directory)
        shard_dirs = [str(path / f"shard_{i}") for i in range(self.n_shards)]
        path.mkdir(parents=True, exist_ok=True)
        self._gather([(i, "save", d) for i, d in enumerate(shard_dirs)])
        manifest = {
            "format": _SHARD_FORMAT_VERSION,
            "kind": SHARD_CHECKPOINT_KIND,
            "shards": len(shard_dirs),
            "horizon": self.horizon,
            "n_users": len(self._user_shard),
        }
        (path / SHARD_MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
        )
        self._specs = [
            (None, shard_dir, maxsize)
            for shard_dir, (_, _, maxsize) in zip(shard_dirs, self._specs)
        ]
        self._record.reset(self.horizon)
        return path

    @classmethod
    def restore(
        cls,
        directory,
        correlations=None,
        cache: Optional[SolutionCache] = None,
        *,
        shards: Optional[int] = None,
        registry=None,
        transport: str = "pipe",
        shard_addresses=None,
    ) -> "ShardedFleetBackend":
        """Rebuild a backend from :meth:`save` output.

        Correlation models live in the per-shard ``.npz`` files, so
        ``correlations`` is accepted only for signature symmetry;
        ``cache`` contributes its ``maxsize`` to the workers' private
        caches (as in the constructor).  The checkpoint dictates the
        shard count; passing an explicit conflicting ``shards`` is an
        error (cohort -> shard assignment is part of the persisted
        state).  Transport options mirror the constructor.
        """
        directory = Path(directory)
        manifest = json.loads(
            (directory / SHARD_MANIFEST_NAME).read_text(encoding="utf-8")
        )
        if manifest.get("kind") != SHARD_CHECKPOINT_KIND:
            raise ValueError(f"{directory} is not a sharded fleet checkpoint")
        if manifest.get("format") != _SHARD_FORMAT_VERSION:
            raise ValueError(
                f"unsupported sharded checkpoint format "
                f"{manifest.get('format')!r}"
            )
        saved_shards = int(manifest["shards"])
        if shards is not None and shards != saved_shards:
            raise ValueError(
                f"checkpoint in {directory} was written with "
                f"{saved_shards} shards but the config requests {shards}; "
                "re-sharding a checkpoint is not supported"
            )
        self = cls.__new__(cls)
        given = self._init_runtime(
            transport, shard_addresses, saved_shards, registry
        )
        if given != saved_shards:
            raise ValueError(
                f"checkpoint in {directory} holds {saved_shards} "
                f"shards but {given} shard addresses given"
            )
        maxsize = cache.maxsize if cache is not None else None
        self._specs = [
            (None, str(directory / f"shard_{i}"), maxsize)
            for i in range(saved_shards)
        ]
        self._start_workers()
        self._user_shard = {}
        descriptions = self._broadcast("describe")
        for index, description in enumerate(descriptions):
            for user in description["users"]:
                self._user_shard[user] = index
        # Every shard records the full default-budget series (windows are
        # broadcast), so all copies must agree with each other and with
        # the manifest -- a partially written checkpoint (one shard's
        # save failed) must refuse to restore rather than merge phantom
        # releases into the privacy numbers.
        self._epsilons = [float(e) for e in descriptions[0]["epsilons"]]
        for index, description in enumerate(descriptions[1:], start=1):
            if [float(e) for e in description["epsilons"]] != self._epsilons:
                self.close()
                raise ValueError(
                    f"corrupt sharded checkpoint: shard {index}'s budget "
                    f"series disagrees with shard 0's (horizons "
                    f"{len(description['epsilons'])} vs "
                    f"{len(self._epsilons)}); the shards were not saved "
                    "from the same state"
                )
        if len(self._epsilons) != int(manifest["horizon"]):
            self.close()
            raise ValueError(
                f"corrupt sharded checkpoint: manifest horizon "
                f"{manifest['horizon']} != shard horizon {len(self._epsilons)}"
            )
        self._record.reset(len(self._epsilons))
        return self

    def __repr__(self) -> str:
        shards = (
            "closed" if self._transports is None else len(self._transports)
        )
        return (
            f"ShardedFleetBackend(users={len(self._user_shard)}, "
            f"shards={shards}, transport={self._transport_kind!r}, "
            f"horizon={self.horizon})"
        )

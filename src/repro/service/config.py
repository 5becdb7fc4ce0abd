"""Declarative configuration for release sessions.

A :class:`SessionConfig` is the single place a deployment describes its
release pipeline: who the users are (correlation models), what is
published (query), how much budget each time point gets (scalar, vector
or an Algorithm-2/3 :class:`~repro.core.budget.BudgetAllocation`), what
happens when the alpha-DP_T promise would break (:class:`AlphaPolicy`
with ``reject`` / ``clamp`` / ``warn`` modes), which accounting backend
runs underneath, and the operational knobs (shared solution cache,
checkpoint cadence, async-queue bound, noise seed).

:class:`BudgetSchedule` resolves the budget spec per time point, including
streams of unknown horizon (constant budgets and horizon-free Algorithm-2
allocations extend forever; vectors and Algorithm-3 allocations are
exhausted after their declared horizon).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Union

import numpy as np

from ..core.budget import (
    BudgetAllocation,
    validate_alpha,
    validate_epsilon,
    validate_epsilons,
)
from .backends import DEFAULT_FLEET_THRESHOLD, normalise_correlations

__all__ = [
    "AlphaPolicy",
    "BudgetSchedule",
    "SessionConfig",
    "ALPHA_MODES",
]

#: What to do when a release would push worst-case TPL above ``alpha``:
#: ``reject`` refuses it (state rolled back, nothing published), ``clamp``
#: spends the largest feasible fraction of the requested budget, ``warn``
#: lets it through with a ``RuntimeWarning``.
ALPHA_MODES = ("reject", "clamp", "warn")


@dataclass(frozen=True)
class AlphaPolicy:
    """The alpha-DP_T enforcement policy of a session.

    Attributes
    ----------
    alpha:
        The leakage bound, or ``None`` for accounting without enforcement.
    mode:
        One of :data:`ALPHA_MODES`.
    clamp_resolution:
        Bisection resolution of ``clamp`` mode, as a fraction of the
        requested budget; the spent budget is within this fraction of the
        largest feasible one.
    """

    alpha: Optional[float] = None
    mode: str = "reject"
    clamp_resolution: float = 1e-6

    def __post_init__(self) -> None:
        if self.alpha is not None:
            validate_alpha(self.alpha)
        if self.mode not in ALPHA_MODES:
            raise ValueError(
                f"alpha mode must be one of {ALPHA_MODES}, got {self.mode!r}"
            )
        if not 0 < self.clamp_resolution < 1:
            raise ValueError(
                "clamp_resolution must be in (0, 1), got "
                f"{self.clamp_resolution}"
            )


class BudgetSchedule:
    """Resolve a budget spec into the epsilon of each 1-based time point.

    * a scalar is a constant schedule for any horizon (zero is legal:
      zero-budget time points are accounted but never published);
    * a sequence covers exactly ``len(sequence)`` time points;
    * a :class:`BudgetAllocation` is materialised for the declared
      ``horizon``; without one, Algorithm-2 (``upper_bound``) allocations
      extend forever at their constant budget, while Algorithm-3
      (``quantified``) allocations need the horizon to place their
      boosted last release and are rejected up front.
    """

    def __init__(
        self,
        budgets: Union[float, "np.ndarray", BudgetAllocation],
        horizon: Optional[int] = None,
    ) -> None:
        if horizon is not None and horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        self._declared_horizon = horizon
        self._constant: Optional[float] = None
        self._vector: Optional[np.ndarray] = None
        if isinstance(budgets, BudgetAllocation):
            if horizon is not None:
                self._vector = budgets.epsilons(horizon)
            elif budgets.method == "upper_bound":
                # Theorem 5: the same budget at every time point bounds the
                # supremum, so the schedule is horizon-free.
                self._constant = float(budgets.epsilon_middle)
            else:
                raise ValueError(
                    "a quantified (Algorithm 3) allocation needs a declared "
                    "horizon; pass SessionConfig(horizon=...) or use an "
                    "upper_bound allocation for open-ended streams"
                )
        elif np.isscalar(budgets):
            self._constant = validate_epsilon(budgets, name="budget")
        else:
            self._vector = validate_epsilons(np.asarray(budgets), horizon)

    @property
    def horizon(self) -> Optional[int]:
        """Number of time points this schedule covers (``None`` =
        unbounded)."""
        if self._vector is not None:
            return int(self._vector.shape[0])
        return self._declared_horizon

    def epsilon_for(self, t: int) -> float:
        """The budget of 1-based time point ``t``."""
        if t < 1:
            raise ValueError(f"t must be >= 1, got {t}")
        if self._constant is not None:
            if self._declared_horizon is not None and t > self._declared_horizon:
                raise ValueError(
                    f"budget schedule exhausted: t={t} beyond declared "
                    f"horizon {self._declared_horizon}"
                )
            return self._constant
        assert self._vector is not None
        if t > self._vector.shape[0]:
            raise ValueError(
                f"budget schedule exhausted: t={t} beyond horizon "
                f"{self._vector.shape[0]}"
            )
        return float(self._vector[t - 1])


@dataclass(frozen=True)
class SessionConfig:
    """Everything a :class:`~repro.service.session.ReleaseSession` needs.

    Attributes
    ----------
    correlations:
        One ``(P_B, P_F)`` pair, an ``AdversaryT``, or a mapping
        ``user -> pair / AdversaryT`` -- exactly what both accountants
        accept.
    budgets:
        Scalar / per-time vector / :class:`BudgetAllocation`.
    query:
        Optional :class:`~repro.data.queries.SnapshotQuery`; without one
        the session accounts leakage but publishes nothing.
    alpha, alpha_mode, clamp_resolution:
        The :class:`AlphaPolicy` (see there).
    backend:
        ``"auto"`` (by population size), ``"scalar"`` or ``"fleet"``.
    shards:
        Number of worker processes for the fleet path.  ``1`` (the
        default) keeps accounting in-process; ``>= 2`` partitions
        cohorts across that many processes behind a scatter/gather
        coordinator (:class:`~repro.service.sharding.ShardedFleetBackend`,
        bit-identical to the in-process fleet backend).  Sharding implies
        the fleet engine, so it cannot be combined with
        ``backend="scalar"``.
    shard_transport:
        How the coordinator reaches its shard workers: ``"pipe"`` (the
        default -- forked processes over multiprocessing pipes) or
        ``"socket"`` (length-prefixed frames over TCP,
        :mod:`repro.net`).  Both are bit-identical; socket workers can
        live on other hosts.
    shard_addresses:
        Optional ``("host:port", ...)`` of already-running
        ``repro shard-worker`` processes to dial instead of spawning
        local workers.  Implies ``shard_transport="socket"`` and pins
        ``shards`` to the number of addresses.
    fleet_threshold:
        Population size at which ``auto`` switches to the fleet backend.
    horizon:
        Declared stream length; required for vector budgets (implicitly)
        and quantified allocations, optional otherwise.
    cache_size:
        Max entries of the shared Algorithm-1
        :class:`~repro.fleet.solution_cache.SolutionCache` threaded
        through whichever backend runs (``None`` = library default).
        With ``shards >= 2`` caches cannot cross process boundaries;
        each worker builds a *private* cache of this size, so the
        memory bound is per process.
    checkpoint_dir, checkpoint_every:
        Write a backend checkpoint to ``checkpoint_dir`` after every
        ``checkpoint_every`` accounted releases.
    wal_dir, wal_fsync, wal_compact_every:
        Durability policy (:mod:`repro.durability`).  With ``wal_dir``
        set, every ingested window is appended to a write-ahead log
        there *before* any accounting mutation, so a crash loses nothing
        (:meth:`~repro.service.session.ReleaseSession.recover` replays
        the tail bit-identically).  ``wal_fsync`` is ``"always"`` (every
        append is durable before ``ingest`` returns), ``"batch"``
        (group commit: appends mark the log dirty and one fsync runs per
        drained queue burst / per ``ingest_window`` -- no submitter is
        acknowledged before its window is durable, but a burst shares
        one disk flush), or ``"never"`` (leave flushing to the OS --
        process crashes are still safe, power loss may cost the
        un-synced tail).  ``wal_compact_every`` folds the log into a
        backend snapshot every that many accounted releases, keeping
        both recovery time and log size flat in horizon.
    queue_maxsize:
        Bound of the async ingestion queue (backpressure threshold).
    window_size:
        Ingestion window: :meth:`~repro.service.session.ReleaseSession.run`
        coalesces this many snapshots per backend entry, and queued
        ``aingest`` submissions are drained in batches up to this size.
        ``1`` (the default) is event-at-a-time ingestion.  Windowed and
        per-event ingestion are bit-identical; larger windows amortise
        the per-event Python overhead (see ``benchmarks/bench_window.py``).
        With ``checkpoint_every``, cadence is evaluated at window
        boundaries, so checkpoints land between windows.
    seed:
        Noise randomness (anything ``numpy.random.default_rng`` accepts).
    """

    correlations: object
    budgets: object
    query: Optional[object] = None
    alpha: Optional[float] = None
    alpha_mode: str = "reject"
    clamp_resolution: float = 1e-6
    backend: str = "auto"
    shards: int = 1
    shard_transport: str = "pipe"
    shard_addresses: Optional[tuple] = None
    fleet_threshold: int = DEFAULT_FLEET_THRESHOLD
    horizon: Optional[int] = None
    cache_size: Optional[int] = None
    checkpoint_dir: Optional[Union[str, Path]] = None
    checkpoint_every: Optional[int] = None
    wal_dir: Optional[Union[str, Path]] = None
    wal_fsync: str = "always"
    wal_compact_every: Optional[int] = None
    queue_maxsize: int = 64
    window_size: int = 1
    seed: object = None

    def __post_init__(self) -> None:
        normalise_correlations(self.correlations)  # fail fast when empty
        self.alpha_policy()  # validates alpha / mode / resolution
        self.budget_schedule()  # validates the budget spec
        if self.backend not in ("auto", "scalar", "fleet"):
            raise ValueError(
                "backend must be 'auto', 'scalar' or 'fleet', got "
                f"{self.backend!r}"
            )
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.shards > 1 and self.backend == "scalar":
            raise ValueError(
                "sharded accounting runs on the fleet engine; "
                "backend='scalar' cannot be combined with shards="
                f"{self.shards}"
            )
        if self.shard_transport not in ("pipe", "socket"):
            raise ValueError(
                "shard_transport must be 'pipe' or 'socket', got "
                f"{self.shard_transport!r}"
            )
        if self.shard_addresses is not None:
            if not self.shard_addresses:
                raise ValueError(
                    "shard_addresses must name at least one worker"
                )
            if self.shard_transport != "socket":
                object.__setattr__(self, "shard_transport", "socket")
            object.__setattr__(
                self, "shard_addresses", tuple(self.shard_addresses)
            )
            if self.shards > 1 and self.shards != len(self.shard_addresses):
                raise ValueError(
                    f"shards={self.shards} disagrees with the "
                    f"{len(self.shard_addresses)} shard_addresses given; "
                    "drop shards and let the addresses decide"
                )
            object.__setattr__(self, "shards", len(self.shard_addresses))
            if self.backend == "scalar":
                raise ValueError(
                    "shard_addresses runs on the fleet engine; it cannot "
                    "be combined with backend='scalar'"
                )
        if self.fleet_threshold < 1:
            raise ValueError(
                f"fleet_threshold must be >= 1, got {self.fleet_threshold}"
            )
        if self.queue_maxsize < 1:
            raise ValueError(
                f"queue_maxsize must be >= 1, got {self.queue_maxsize}"
            )
        if self.window_size < 1:
            raise ValueError(
                f"window_size must be >= 1, got {self.window_size}"
            )
        if self.checkpoint_every is not None:
            if self.checkpoint_every < 1:
                raise ValueError(
                    "checkpoint_every must be >= 1, got "
                    f"{self.checkpoint_every}"
                )
            if self.checkpoint_dir is None:
                raise ValueError(
                    "checkpoint_every requires checkpoint_dir"
                )
        if self.wal_fsync not in ("always", "batch", "never"):
            raise ValueError(
                "wal_fsync must be 'always', 'batch' or 'never', got "
                f"{self.wal_fsync!r}"
            )
        if self.wal_compact_every is not None:
            if self.wal_compact_every < 1:
                raise ValueError(
                    "wal_compact_every must be >= 1, got "
                    f"{self.wal_compact_every}"
                )
            if self.wal_dir is None:
                raise ValueError("wal_compact_every requires wal_dir")
        if self.cache_size is not None and self.cache_size < 1:
            raise ValueError(
                f"cache_size must be >= 1, got {self.cache_size}"
            )

    def alpha_policy(self) -> AlphaPolicy:
        """The validated :class:`AlphaPolicy` of this config."""
        return AlphaPolicy(
            alpha=self.alpha,
            mode=self.alpha_mode,
            clamp_resolution=self.clamp_resolution,
        )

    def budget_schedule(self) -> BudgetSchedule:
        """A fresh :class:`BudgetSchedule` for this config's budget spec."""
        return BudgetSchedule(self.budgets, self.horizon)

    def user_correlations(self) -> Mapping[object, object]:
        """The normalised ``user -> correlations`` mapping."""
        return normalise_correlations(self.correlations)

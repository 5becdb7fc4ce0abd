"""repro.fleet -- population-scale temporal-privacy accounting.

The per-user :class:`~repro.core.accountant.TemporalPrivacyAccountant`
materialises one Python object per user; at "millions of users" scale the
pure-Python loops dominate everything.  This package batches the paper's
BPL/FPL/TPL recursions (Eq. 13/15) across the population:

* :mod:`~repro.fleet.cohorts` -- users grouped by a canonical digest of
  their ``(P_B, P_F)`` correlation pair; one cohort = one recursion.
* :mod:`~repro.fleet.engine` -- :class:`FleetAccountant`, the vectorised
  accountant: one series table with a row per (cohort, join time) group
  -- O(cohorts x T) instead of O(users x T) -- and a row per user on a
  personalised budget schedule, swept backward by one FPL routine for
  windows, clamp probes and queries alike.
* :mod:`~repro.fleet.solution_cache` -- a bounded LRU for Algorithm-1
  solves keyed by ``(matrix digest, alpha)``, shareable with the scalar
  path via :meth:`SolutionCache.install`.
* :mod:`~repro.fleet.checkpoint` -- save/restore the full engine state
  (``.npz`` + JSON manifest) so a long-running release service can
  restart without forgetting accrued leakage.

The batched release pipeline itself lives in
:class:`repro.service.ReleaseSession` with ``backend="fleet"``.

Quickstart
----------
>>> import numpy as np
>>> from repro.fleet import FleetAccountant, save_checkpoint, load_checkpoint
>>> from repro.markov import two_state_matrix, uniform_matrix
>>>
>>> moderate = two_state_matrix(0.8, 0.0)
>>> weak = uniform_matrix(2)
>>> fleet = FleetAccountant()
>>> for u in range(1000):                      # 1000 users, 2 cohorts
...     pair = (moderate, moderate) if u % 2 else (weak, weak)
...     fleet.add_user(u, pair)
>>> for _ in range(20):                        # 20 fleet-wide releases
...     worst = fleet.add_release(0.1)
>>> fleet.n_cohorts
2
>>> worst == fleet.max_tpl()
True
>>> profile = fleet.profile(1)                 # any user's full profile
>>> profile.horizon
20

Per-user budget overrides give the user their own row of the table::

    fleet.add_release(0.1, overrides={42: 0.02, 99: 0.5})

Checkpoint / restore round-trips the exact leakage state::

    save_checkpoint(fleet, "ckpt/")
    fleet2 = load_checkpoint("ckpt/")
    assert fleet2.max_tpl() == fleet.max_tpl()

From the command line::

    repro fleet --users 100000 --cohorts 8 --steps 100 --epsilon 0.1
"""

from .checkpoint import load_checkpoint, save_checkpoint
from .cohorts import Cohort, CohortIndex, correlation_digest
from .engine import FleetAccountant
from .solution_cache import SolutionCache

__all__ = [
    "Cohort",
    "CohortIndex",
    "correlation_digest",
    "FleetAccountant",
    "SolutionCache",
    "save_checkpoint",
    "load_checkpoint",
]

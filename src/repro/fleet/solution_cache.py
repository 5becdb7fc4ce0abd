"""Bounded LRU memo for Algorithm-1 solves, shared across loss functions.

Every evaluation of the temporal loss function ``L(alpha)`` is one
Algorithm-1 solve over all ordered row pairs of a transition matrix.  A
population shares a small number of correlation models (the paper
estimates one per dataset), so the same ``(matrix, alpha)`` solve recurs
constantly -- across users, across cohorts, across engine restarts within
a process.  :class:`SolutionCache` memoises those solves behind a bounded
LRU keyed by the *exact* alpha: ``(matrix digest, alpha)`` for the scalar
loss path, ``(matrix digest, alpha, "batch")`` for the fleet's batched
path.  Rounding the key would conflate distinct alphas and make a cached
value depend on evaluation order.

The cache plugs into :class:`~repro.core.loss_functions.TemporalLossFunction`
two ways:

* pass it as the ``cache`` argument of an individual loss function, or
* :meth:`SolutionCache.install` it process-wide via
  :func:`repro.core.loss_functions.set_shared_solution_cache`, after which
  *every* loss function without an explicit cache (including the scalar
  per-user accountant path) shares it.

The fleet engine's window sweeps do not use it: they memoise in a
two-generation memo of their own (``FleetAccountant._loss_batch_multi``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Optional

__all__ = ["SolutionCache"]

#: Default bound: ~64k entries of (float, small PairSolution) stay well
#: under typical memory budgets while covering many cohorts' recursions.
DEFAULT_MAXSIZE = 65536


class SolutionCache:
    """A bounded least-recently-used ``(key) -> solution`` store.

    Parameters
    ----------
    maxsize:
        Maximum number of retained entries; the least recently *used*
        entry is evicted first.  Must be >= 1.

    Examples
    --------
    >>> cache = SolutionCache(maxsize=2)
    >>> cache.put("a", 1); cache.put("b", 2); cache.put("c", 3)
    >>> cache.get("a") is None   # evicted
    True
    >>> cache.evictions
    1
    """

    __slots__ = ("_data", "_maxsize", "hits", "misses", "evictions")

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self._data: "OrderedDict[Hashable, object]" = OrderedDict()
        self._maxsize = int(maxsize)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def maxsize(self) -> int:
        return self._maxsize

    def get(self, key: Hashable) -> Optional[object]:
        """Return the cached value (refreshing its recency) or ``None``."""
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: object) -> None:
        """Insert/refresh an entry, evicting the LRU one when full."""
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        if len(self._data) > self._maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def clear(self) -> None:
        """Drop all entries (statistics are kept)."""
        self._data.clear()

    def stats(self) -> dict:
        """Counters snapshot: hits, misses, evictions, size, maxsize."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._data),
            "maxsize": self._maxsize,
        }

    def install(self):
        """Install this cache process-wide for every loss function without
        an explicit cache; returns the previously installed cache."""
        from ..core.loss_functions import set_shared_solution_cache

        return set_shared_solution_cache(self)

    def __repr__(self) -> str:
        return (
            f"SolutionCache(size={len(self._data)}/{self._maxsize}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )

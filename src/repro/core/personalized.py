"""Personalised DP_T: per-user leakage targets (Section III-D).

The paper observes that temporal privacy leakage is inherently
*personalised* -- users with different temporal patterns leak differently
-- and notes that the framework "can convert a PDP [personalised DP]
mechanism to bound the temporal privacy leakage for each user" (with a
budget vector ``[eps_1, ..., eps_n]`` instead of a single epsilon).

This module implements that conversion:

* :func:`allocate_personalized` -- run Algorithm 2 or 3 *per user* with a
  per-user alpha target, returning one
  :class:`~repro.core.budget.BudgetAllocation` per user instead of the
  min-over-users collapse of the uniform algorithms.
* :class:`PersonalizedAllocation` -- the bundle, with verification and
  per-user budget vectors (usable by a PDP mechanism that perturbs each
  user's contribution with their own budget).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Mapping, Tuple, Union

import numpy as np

from .budget import (
    BudgetAllocation,
    _single_user_quantified,
    _single_user_upper_bound,
    validate_alpha,
)
from .leakage import LeakageProfile, temporal_privacy_leakage

__all__ = ["PersonalizedAllocation", "allocate_personalized"]


@dataclass(frozen=True)
class PersonalizedAllocation:
    """Per-user budget allocations for personalised alpha-DP_T.

    Attributes
    ----------
    allocations:
        ``user -> BudgetAllocation`` where each allocation was computed
        against that user's own correlations and alpha target.
    alphas:
        The per-user targets.
    method:
        ``"quantified"`` or ``"upper_bound"``.
    """

    allocations: Mapping[Hashable, BudgetAllocation]
    alphas: Mapping[Hashable, float]
    method: str

    @property
    def users(self) -> Tuple[Hashable, ...]:
        return tuple(self.allocations)

    def epsilons(self, user: Hashable, horizon: int) -> np.ndarray:
        """The budget vector a PDP mechanism should use for ``user``."""
        return self.allocations[user].epsilons(horizon)

    def epsilon_matrix(self, horizon: int) -> np.ndarray:
        """All users' budget vectors stacked as ``(n_users, horizon)``,
        in :attr:`users` order -- the PDP budget vector per time point."""
        return np.stack(
            [self.epsilons(user, horizon) for user in self.users]
        )

    def verify(
        self, correlations: Mapping[Hashable, Tuple], horizon: int
    ) -> Dict[Hashable, LeakageProfile]:
        """Quantify each user's leakage under their own budgets."""
        profiles: Dict[Hashable, LeakageProfile] = {}
        for user, allocation in self.allocations.items():
            backward, forward = correlations[user]
            profiles[user] = temporal_privacy_leakage(
                backward, forward, allocation.epsilons(horizon)
            )
        return profiles

    def satisfies(
        self, correlations: Mapping[Hashable, Tuple], horizon: int
    ) -> bool:
        """True when every user's TPL stays within their own alpha."""
        profiles = self.verify(correlations, horizon)
        return all(
            profiles[user].satisfies(self.alphas[user])
            for user in self.allocations
        )


def allocate_personalized(
    correlations: Mapping[Hashable, Tuple],
    alphas: Union[float, Mapping[Hashable, float]],
    method: str = "quantified",
) -> PersonalizedAllocation:
    """Per-user Algorithm 2/3: each user gets their own budget schedule.

    Parameters
    ----------
    correlations:
        ``user -> (P_B, P_F)`` (entries may be ``None``).
    alphas:
        A single target applied to everyone, or ``user -> alpha``.
    method:
        ``"quantified"`` (Algorithm 3) or ``"upper_bound"`` (Algorithm 2).

    Compared with :func:`~repro.core.budget.allocate_quantified`, which
    must protect every user with *one* schedule (min over users,
    over-perturbing weakly correlated users), the personalised variant
    gives each user exactly their target -- strictly better utility for
    everyone except the single worst-case user.
    """
    if method == "quantified":
        single = _single_user_quantified
    elif method == "upper_bound":
        single = _single_user_upper_bound
    else:
        raise ValueError(
            f"method must be 'quantified' or 'upper_bound', got {method!r}"
        )
    if not correlations:
        raise ValueError("at least one user is required")

    if isinstance(alphas, Mapping):
        alpha_map = dict(alphas)
        missing = set(correlations) - set(alpha_map)
        if missing:
            raise ValueError(f"missing alpha targets for users: {missing}")
    else:
        alpha_map = {user: float(alphas) for user in correlations}
    alpha_map = {
        user: validate_alpha(alpha, name=f"alpha for user {user!r}")
        for user, alpha in alpha_map.items()
    }

    allocations = {
        user: single(backward, forward, alpha_map[user])
        for user, (backward, forward) in correlations.items()
    }
    return PersonalizedAllocation(
        allocations=allocations, alphas=alpha_map, method=method
    )

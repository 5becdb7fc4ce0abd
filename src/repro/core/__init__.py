"""Core contribution of the paper: quantifying and bounding temporal
privacy leakage of DP mechanisms under Markov temporal correlations.

Public surface:

* Quantification -- :func:`temporal_privacy_leakage` and friends
  (Eq. 10/13/15), powered by Algorithm 1 (:func:`max_log_ratio`).
* Supremum -- Theorem 5 (:func:`leakage_supremum`, closed forms).
* Bounding -- Algorithms 2/3 (:func:`allocate_upper_bound`,
  :func:`allocate_quantified`).
* Accounting -- :class:`TemporalPrivacyAccountant` for online streams.
* Notions & composition -- :class:`AlphaDPT`, Theorem 2 / Table II
  helpers.
"""

from .lfp import LfpProblem
from .algorithm1 import (
    PairSolution,
    max_log_ratio,
    max_log_ratio_batch,
    max_log_ratio_stacked,
    solve_lfp_algorithm1,
    solve_pair,
)
from .loss_functions import (
    TemporalLossFunction,
    get_shared_solution_cache,
    set_shared_solution_cache,
)
from .leakage import (
    LeakageProfile,
    backward_privacy_leakage,
    forward_privacy_leakage,
    temporal_privacy_leakage,
)
from .supremum import (
    epsilon_for_supremum,
    has_finite_supremum,
    leakage_supremum,
    supremum_closed_form,
)
from .budget import (
    BudgetAllocation,
    allocate_quantified,
    allocate_upper_bound,
    validate_alpha,
    validate_epsilon,
    validate_epsilons,
)
from .convergence import contraction_rate, time_to_fraction
from .personalized import PersonalizedAllocation, allocate_personalized
from .accountant import TemporalPrivacyAccountant
from .adversary import Adversary, AdversaryKnowledge, AdversaryT
from .composition import (
    Table2Row,
    sequence_tpl,
    table2_guarantees,
    user_level_leakage,
    w_event_leakage,
)
from .notions import AlphaDPT, EpsilonDP, PrivacyLevel

__all__ = [
    "LfpProblem",
    "PairSolution",
    "max_log_ratio",
    "max_log_ratio_batch",
    "max_log_ratio_stacked",
    "solve_lfp_algorithm1",
    "solve_pair",
    "TemporalLossFunction",
    "get_shared_solution_cache",
    "set_shared_solution_cache",
    "LeakageProfile",
    "backward_privacy_leakage",
    "forward_privacy_leakage",
    "temporal_privacy_leakage",
    "epsilon_for_supremum",
    "has_finite_supremum",
    "leakage_supremum",
    "supremum_closed_form",
    "BudgetAllocation",
    "allocate_quantified",
    "allocate_upper_bound",
    "validate_alpha",
    "validate_epsilon",
    "validate_epsilons",
    "PersonalizedAllocation",
    "allocate_personalized",
    "contraction_rate",
    "time_to_fraction",
    "TemporalPrivacyAccountant",
    "Adversary",
    "AdversaryKnowledge",
    "AdversaryT",
    "Table2Row",
    "sequence_tpl",
    "table2_guarantees",
    "user_level_leakage",
    "w_event_leakage",
    "AlphaDPT",
    "EpsilonDP",
    "PrivacyLevel",
]

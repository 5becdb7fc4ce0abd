"""Shared fixtures for the test-suite.

The hypothesis strategies live in :mod:`strategies` (``tests/strategies.py``)
and are imported explicitly by the property-test modules.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# A calmer default profile: the numerical property tests do real work.
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# A deeper search for Algorithm-1 faults, selected on the command line
# with --hypothesis-profile=deep (which overrides the load below).  Float
# ties in the solver's large-alpha range turn up about once in 1,500 draws.
settings.register_profile(
    "deep", parent=settings.get_profile("repro"), max_examples=500
)
settings.load_profile("repro")


# ---------------------------------------------------------------------------
# Plain fixtures
# ---------------------------------------------------------------------------
@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def moderate_matrix():
    """The paper's Fig. 3 'moderate' correlation [[0.8, 0.2], [0, 1]]."""
    from repro.markov import two_state_matrix

    return two_state_matrix(0.8, 0.0)


@pytest.fixture
def fig7_correlations():
    """The (P_B, P_F) pair of the paper's Fig. 7."""
    from repro.markov import TransitionMatrix, two_state_matrix

    return (
        two_state_matrix(0.8, 0.2),
        TransitionMatrix([[0.8, 0.2], [0.1, 0.9]]),
    )

"""Shared hypothesis strategies for the test-suite.

Kept in a plain module (not ``conftest.py``) so test files can import the
strategies explicitly -- ``from strategies import transition_matrices`` --
without depending on which ``conftest`` module pytest happened to import
first (the benchmark harness has its own ``benchmarks/conftest.py``).
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.markov import TransitionMatrix

__all__ = ["stochastic_rows", "transition_matrices", "alphas", "legal_alphas"]


@st.composite
def stochastic_rows(draw, n: int):
    """One probability row of length n (normalised, non-degenerate)."""
    raw = draw(
        hnp.arrays(
            dtype=float,
            shape=n,
            elements=st.floats(0.0, 1.0, allow_nan=False),
        )
    )
    total = raw.sum()
    if total <= 0:
        raw = np.full(n, 1.0)
        total = float(n)
    return raw / total


@st.composite
def transition_matrices(draw, min_n: int = 2, max_n: int = 6):
    """Random row-stochastic matrices of modest size."""
    n = draw(st.integers(min_n, max_n))
    rows = [draw(stochastic_rows(n)) for _ in range(n)]
    return TransitionMatrix(np.vstack(rows), validate=False)


@st.composite
def alphas(draw):
    """Incoming leakage values spanning the regimes of Fig. 5(b)."""
    return draw(
        st.one_of(
            st.floats(1e-4, 0.1),
            st.floats(0.1, 2.0),
            st.floats(2.0, 20.0),
        )
    )


#: The largest alpha every Algorithm-1 entry point accepts: log(DBL_MAX),
#: the largest alpha whose math.expm1 is finite.
LARGEST_ALPHA = 709.782712893384


@st.composite
def legal_alphas(draw):
    """Incoming leakage values over the whole range Algorithm 1 accepts,
    ``[0, log(DBL_MAX)]``, weighted towards 30-710, where ``e^alpha - 1``
    swamps the ``+ 1`` of Theorem 4's objective and float ties between
    a coordinate's ratio and the objective become common."""
    return draw(
        st.one_of(
            alphas(),
            st.floats(0.0, 30.0),
            st.floats(30.0, LARGEST_ALPHA),
            st.floats(30.0, LARGEST_ALPHA),
            st.sampled_from([0.0, 30.0, 37.0, 40.0, 100.0, LARGEST_ALPHA]),
        )
    )

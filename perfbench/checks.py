"""Output checks, run outside the timed phases.

Both session workloads are checked against the paper's recursion as
``repro.core`` implements it -- ``temporal_privacy_leakage`` (BPL plus
FPL minus epsilon) over each distinct budget series -- bit for bit.  A
check returns ``{description: passed}``; any ``False`` fails the run.
"""

from __future__ import annotations

import hashlib
import json

from repro.core.leakage import temporal_privacy_leakage
from repro.core.loss_functions import TemporalLossFunction
from repro.service import REJECTED

#: The session's own slack on alpha comparisons.
ALPHA_TOL = 1e-12


def reference_worst(series) -> float:
    """Worst TPL over ``(loss_b, loss_f, epsilons)`` series, by the
    paper's recursion: ``TPL_t = BPL_t + FPL_t - eps_t``."""
    return max(temporal_privacy_leakage(b, f, eps).max_tpl for b, f, eps in series)


def _losses(models) -> list:
    return [(TemporalLossFunction(m), TemporalLossFunction(m)) for m in models]


def stream_series(models, epsilons, overrides) -> list:
    """``(loss_b, loss_f, budgets)`` of every distinct budget series of a
    stream: one per cohort on the default budgets, one per overridden
    user (users are dealt to cohorts round-robin)."""
    losses = _losses(models)
    default = [float(e) for e in epsilons]
    series = [(*pair, default) for pair in losses]
    users = sorted({u for step in overrides if step for u in step})
    for user in users:
        budgets = [
            step.get(user, eps) if step else eps for eps, step in zip(default, overrides)
        ]
        series.append((*losses[user % len(models)], budgets))
    return series


def horizon(plan, sessions) -> dict:
    """Every stream shares models and the planned budgets, so every
    stream's final worst TPL must equal one reference value."""
    from perfbench.inputs import HORIZON_DEPTH, HORIZON_EPSILON

    eps = [HORIZON_EPSILON] * HORIZON_DEPTH
    reference = reference_worst((b, f, eps) for b, f in _losses(plan.models))
    return {
        "every step released at the planned epsilon": all(
            e.status == "released" and e.epsilon == HORIZON_EPSILON
            for s in sessions
            for e in s.events
        ),
        "t runs 1..T": all(
            [e.t for e in s.events] == list(range(1, HORIZON_DEPTH + 1))
            for s in sessions
        ),
        "final worst TPL equals the repro.core recursion": all(
            s.max_tpl() == reference and s.events[-1].max_tpl == reference
            for s in sessions
        ),
    }


def clamp(plan, session) -> dict:
    """No accounted TPL above alpha, and the final worst TPL equals the
    recursion over each cohort's and each overridden user's applied
    budgets."""
    from perfbench.inputs import CLAMP_CAP_AT, clamp_supremum

    accounted = [e for e in session.events if e.status != REJECTED]
    reference = reference_worst(
        stream_series(
            plan.models, [e.epsilon for e in accounted], [e.overrides for e in accounted]
        )
    )
    decided = {"released", "clamped", "rejected"}
    return {
        "every step decided": all(e.status in decided for e in session.events),
        "alpha under the Theorem-5 supremum": plan.alpha < clamp_supremum(plan.models),
        "no accounted TPL above alpha": all(
            e.max_tpl <= plan.alpha + ALPHA_TOL for e in accounted
        ),
        # Later steps may still be clamped (a small epsilon can fit), so
        # only the planned depth itself is checked.
        "budget runs out at the planned depth": (
            all(e.status == "released" for e in session.events[:CLAMP_CAP_AT])
            and session.events[CLAMP_CAP_AT].status != "released"
        ),
        "final worst TPL equals the repro.core recursion": session.max_tpl() == reference,
    }


def digest(sessions) -> str:
    """SHA-256 over every event payload of every session, in order."""
    h = hashlib.sha256()
    for session in sessions:
        for event in session.events:
            h.update(json.dumps(event.payload(), sort_keys=True).encode("utf-8"))
    return h.hexdigest()[:16]

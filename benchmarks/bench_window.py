"""Windowed vs. per-event ingestion throughput on the fleet backend.

Per-event ingestion pays one full backend entry -- and one O(T) FPL
recomputation per cohort -- per time point.  Windowed ingestion
(:meth:`ReleaseSession.ingest_window`) applies a whole window per entry
and advances all window prefixes of all cohorts through one global
batched backward sweep, so the Python round-trips drop from
O(window x T) to O(T + window).  The numbers must not move at all:
every window size produces the same events and a bit-identical max TPL
(the windowed parity suite enforces the same property-based).

The acceptance bar: >= 5x events/sec at window=64 vs window=1 on the
fleet backend at 10^4 users.  Results are emitted to ``BENCH_window.json``.

Run standalone for the full-scale numbers::

    PYTHONPATH=src python benchmarks/bench_window.py --users 10000 --steps 256

or as part of the benchmark harness::

    PYTHONPATH=src python -m pytest benchmarks/bench_window.py -s
"""

import argparse
import time

from _harness import emit_json, population
from repro.service import ReleaseSession, ReleaseWindow, SessionConfig

WINDOW_SIZES = (1, 8, 64, 256)
TARGET_SPEEDUP = 5.0
JSON_PATH = "BENCH_window.json"


def emit_stage(summary: dict, path: str = JSON_PATH) -> str:
    """Write ``summary`` to ``path`` under ``stages.windowed_ingestion``,
    the shape readers of ``BENCH_window.json`` expect."""
    return emit_json({"stages": {"windowed_ingestion": summary}}, path)


def run_windowed(population, steps: int, epsilon: float, window: int):
    """Time an accounting-only fleet session ingesting ``steps`` time
    points in windows of ``window`` (1 = the per-event path)."""
    session = ReleaseSession(
        SessionConfig(
            correlations=population,
            budgets=epsilon,
            backend="fleet",
            window_size=window,
        )
    )
    start = time.perf_counter()
    if window == 1:
        for _ in range(steps):
            session.ingest()
        elapsed = time.perf_counter() - start
    else:
        done = 0
        while done < steps:
            size = min(window, steps - done)
            session.ingest_window(ReleaseWindow.from_snapshots([None] * size))
            done += size
        elapsed = time.perf_counter() - start
    assert session.horizon == steps
    return session.max_tpl(), elapsed


def compare(
    users: int = 10_000,
    cohorts: int = 8,
    steps: int = 256,
    epsilon: float = 0.1,
    states: int = 3,
    seed: int = 0,
    windows=WINDOW_SIZES,
) -> dict:
    """Run every window size over the same stream and summarise."""
    pop = population(users, cohorts, states, seed)
    rows = []
    baseline_tpl = None
    baseline_rate = None
    for window in windows:
        tpl, elapsed = run_windowed(pop, steps, epsilon, window)
        rate = steps / max(elapsed, 1e-12)
        if window == 1:
            baseline_tpl, baseline_rate = tpl, rate
        rows.append(
            {
                "window": window,
                "max_tpl": tpl,
                "seconds": elapsed,
                "events_per_second": rate,
                "user_steps_per_second": rate * users,
                "tpl_gap_vs_window1": (
                    0.0 if baseline_tpl is None else abs(tpl - baseline_tpl)
                ),
                "speedup_vs_window1": (
                    1.0 if baseline_rate is None else rate / baseline_rate
                ),
            }
        )
    return {
        "users": users,
        "cohorts": cohorts,
        "steps": steps,
        "epsilon": epsilon,
        "target_speedup_at_64": TARGET_SPEEDUP,
        "results": rows,
    }


def format_table(summary: dict) -> str:
    lines = [
        f"windowed vs per-event ingestion -- {summary['users']} users, "
        f"{summary['cohorts']} cohorts, {summary['steps']} steps, "
        f"eps={summary['epsilon']:g} (fleet backend)",
        "  window   events/s      speedup   max-TPL gap vs window=1",
    ]
    for row in summary["results"]:
        lines.append(
            f"  {row['window']:<8d} {row['events_per_second']:<13,.1f} "
            f"{row['speedup_vs_window1']:<9.2f} {row['tpl_gap_vs_window1']:.2e}"
        )
    lines.append(
        f"  target: >= {TARGET_SPEEDUP:g}x at window=64, bit-identical TPL"
    )
    return "\n".join(lines)


def _row(summary: dict, window: int) -> dict:
    return next(r for r in summary["results"] if r["window"] == window)


def test_window_speedup_and_parity(show_table):
    """Harness-scale comparison: smaller population, same acceptance
    thresholds (>= 5x at window=64, bit-identical max TPL everywhere)."""
    summary = compare(users=2_000, cohorts=8, steps=192, windows=(1, 8, 64))
    show_table(format_table(summary))
    emit_stage(summary)
    for row in summary["results"]:
        assert row["tpl_gap_vs_window1"] == 0.0
    assert _row(summary, 64)["speedup_vs_window1"] >= TARGET_SPEEDUP


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=10_000)
    parser.add_argument("--cohorts", type=int, default=8)
    parser.add_argument("--steps", type=int, default=256)
    parser.add_argument("--epsilon", type=float, default=0.1)
    parser.add_argument("--states", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--windows",
        type=int,
        nargs="+",
        default=list(WINDOW_SIZES),
        help="window sizes to compare (the first is the baseline)",
    )
    parser.add_argument("-o", "--output", default=JSON_PATH)
    args = parser.parse_args()
    summary = compare(
        users=args.users,
        cohorts=args.cohorts,
        steps=args.steps,
        epsilon=args.epsilon,
        states=args.states,
        seed=args.seed,
        windows=tuple(args.windows),
    )
    print(format_table(summary))
    path = emit_stage(summary, args.output)
    print(f"results written to {path}")


if __name__ == "__main__":
    main()

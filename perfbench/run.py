"""The repository benchmark: one command for every workload.

Run from the root of a checkout::

    python3 perfbench/run.py --workload horizon|clamp|serve --seed N \
        --seconds 30 --trace 0|1

``--trace 0`` runs the workload untraced and prints every end-to-end
metric.  ``--trace 1`` runs it untraced and then again with the layer
wrappers of ``perfbench/tracing.py`` installed, and prints every
per-layer metric plus the traced / untraced ratio of each end-to-end
metric.  Outputs are checked outside the timed phases; the run exits
non-zero when a check fails.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is a JSON report with the details (environment, checks,
payload digest, per-phase counts, percentile names).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: name -> unit of the end-to-end metrics, in report order.
E2E = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "late_ms": "ms",
    "recover_s": "s",
    "peak_rss_mb": "MiB",
}

#: Cold starts behind the ``setup_s`` median.
SAMPLES = 5

#: A run whose open-loop generator typically (at the median send) fell
#: behind its schedule by more than this share of ``p50_ms`` is invalid.
MAX_LAG_SHARE = 0.25

#: ``serve`` takes its tail within each sixth of phase A (p90 of 100
#: requests) and reports the median over the sixths: a pooled p98 of 600
#: requests moved from 11 to 53 ms between runs, and a p95 per third
#: still spread by a quarter.
TAIL_BLOCKS = 6

#: Wall-clock ceiling of one child process.
CHILD_TIMEOUT = 170


class Context:
    def __init__(self, work: Path) -> None:
        self.root = ROOT
        self.work = work
        tmp = work / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
            TMPDIR=str(tmp),
        )


def tail(values) -> tuple:
    """``(value, percentile)``: the highest percentile with at least ten
    samples beyond it (the maximum when there are ten or fewer)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def block_tail(values, blocks: int) -> tuple:
    """``(value, percentile, block size)``: :func:`tail` within each of
    ``blocks`` consecutive blocks, median over the blocks -- a burst of
    slow requests in one block does not move it."""
    size = len(values) // blocks
    tails = [tail(values[i * size:(i + 1) * size]) for i in range(blocks)]
    return statistics.median(t[0] for t in tails), tails[0][1], size


def late(values) -> float:
    """Median over the last quarter of a stream of unit latencies."""
    return statistics.median(values[len(values) - max(1, len(values) // 4):])


# -- horizon and clamp: a fresh interpreter per sample -----------------------


def session_child(ctx, args, mode: str, tag: str, trace_dir=None) -> tuple:
    out = ctx.work / f"{tag}.json"
    cmd = [
        sys.executable, "-m", "perfbench.session_proc",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--out", str(out),
        "--work", str(ctx.work / tag),
    ]
    if trace_dir is not None:
        cmd += ["--trace", str(trace_dir)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ctx.root, env=ctx.env, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload} child ({mode}) exited with {proc.returncode}")
    raw = json.loads(out.read_text(encoding="utf-8"))
    return raw, raw["first_unit"] - t0


def session_pass(ctx, args, tag: str, trace_dir=None) -> dict:
    from perfbench.inputs import HORIZON_WINDOW

    setups = [
        session_child(ctx, args, "cold", f"{tag}-cold{k}", trace_dir)[1]
        for k in range(SAMPLES - 1)
    ]
    raw, setup = session_child(ctx, args, "full", f"{tag}-full", trace_dir)
    raw["setup_samples"] = setups + [setup]
    if args.workload == "horizon":
        windows = [w for stream in raw["windows_ms"] for w in stream]
        steps = len(windows) * HORIZON_WINDOW
        value, pct = tail(windows)
        e2e = {
            "steps_per_s": steps / (sum(windows) / 1000.0),
            "p50_ms": statistics.median(windows),
            "tail_ms": value,
            "late_ms": statistics.median(
                [w for stream in raw["windows_ms"] for w in stream[-len(stream) // 4:]]
            ),
        }
        raw["decided_steps"] = steps
        detail = {
            "unit": f"window of {HORIZON_WINDOW}",
            "tail": f"p{pct:.1f} of {len(windows)} windows",
        }
    else:
        latency = raw["latency_ms"]
        statuses = raw["statuses"]
        value, pct = tail(latency)
        e2e = {
            "steps_per_s": len(latency) / (sum(latency) / 1000.0),
            "p50_ms": statistics.median(latency),
            "tail_ms": value,
            "late_ms": late(latency),
        }
        raw["decided_steps"] = sum(s is not None for s in statuses)
        raw["capped_decisions"] = sum(s in ("clamped", "rejected") for s in statuses)
        detail = {
            "unit": "ingest call",
            "tail": f"p{pct:.1f} of {len(latency)} steps",
            "statuses": {s: statuses.count(s) for s in sorted(set(map(str, statuses)))},
            "alpha": raw["alpha"],
            "horizon": raw["horizon"],
        }
    e2e["setup_s"] = statistics.median(raw["setup_samples"])
    e2e["recover_s"] = statistics.median(raw["restore_s"])
    e2e["peak_rss_mb"] = raw["peak_rss_mb"]
    detail["digest"] = raw["digest"]
    if raw.get("errors"):
        detail["errors"] = raw["errors"]
    detail["recover"] = "ReleaseSession.restore of the final state's checkpoint"
    raw["trace_window"] = raw["window"]
    raw["caches"] = [raw["cache"]]
    return {
        "e2e": e2e,
        "checks": raw["checks"],
        "phases": {
            "units": {"attempted": raw["attempted"], "failed": raw["failed"]},
            "restore": {"attempted": len(raw["restore_s"]), "failed": 0},
        },
        "detail": detail,
        "raw": raw,
    }


# -- serve: server process + this process as the generator -------------------


def serve_pass(ctx, args, tag: str, tracer=None, trace_dir=None) -> dict:
    from perfbench import serve_gen

    raw = serve_gen.run(ctx, args.seed, args.seconds, SAMPLES, tag, tracer, trace_dir)
    req = raw["requests"]

    def failed(rows):
        return sum(1 for r in rows if r[5] is None or "error" in r[5])

    a_rows, b_rows = req["A"], req["B"]
    latency = [(r[4] - r[2]) * 1000.0 for r in a_rows if r[5] is not None]
    lag = [(r[3] - r[2]) * 1000.0 for r in a_rows]
    b_start, b_end = raw["window_b"]
    accounted_b = sum(
        1 for r in b_rows if r[5] is not None and r[5].get("status") in ("released", "accounted")
    )
    value, pct, block = block_tail(latency, TAIL_BLOCKS)
    e2e = {
        "setup_s": statistics.median(raw["setup_s"]),
        "steps_per_s": accounted_b / (b_end - b_start),
        "p50_ms": statistics.median(latency),
        "tail_ms": value,
        "late_ms": late(latency),
        # Median over tenants of each tenant's mean over its rounds: a
        # ~0.5 s recovery runs at one of the vCPU's two speeds, ~1.6x
        # apart and flipping about every second, so a median over all 20
        # samples jumps between them where a mean over rounds spread
        # across the run does not.
        "recover_s": statistics.median(
            statistics.fmean(ts) for ts in raw["recover"]["seconds"].values()
        ),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    lag_p99 = tail(lag)[0] if len(lag) < 100 else sorted(lag)[int(0.99 * len(lag))]

    # Every request answered once, no error line; t runs 1..n per tenant.
    per_tenant: dict = {}
    for rows in req.values():
        for r in rows:
            if r[5] is not None and "t" in r[5]:
                per_tenant.setdefault(r[1], []).append(r[5]["t"])
    rows_all = [r for rows in req.values() for r in rows]
    checks = {
        "every request answered exactly once, no error line": (
            all(r[5] is not None and "error" not in r[5] for r in rows_all)
            and raw["unexpected"] == 0
        ),
        "every tenant's t runs 1..n without gaps": all(
            sorted(ts) == list(range(1, len(ts) + 1)) for ts in per_tenant.values()
        ),
        "recovered horizon and max_tpl equal the last acknowledged reply": raw["recover"][
            "matched"
        ],
    }
    raw.update(
        trace_window=[raw["window_a"][0], b_end],
        caches=list(raw["server"]["cache"].values()),
        events_retained=sum(raw["server"]["events_retained"].values()),
        decided_steps=len(a_rows) + len(b_rows),
        requests_measured=len(a_rows) + len(b_rows),
        wal_steps=sum(raw["server"]["horizon"].values()),
        recover_window=raw["recover"]["window"],
        recover_records=raw["recover"]["records"],
        request_errors=failed(a_rows) + failed(b_rows),
        generator_lag_ms=lag_p99,
    )
    return {
        "e2e": e2e,
        "checks": checks,
        "phases": {
            "setup": {"attempted": len(req["setup"]), "failed": failed(req["setup"])},
            "A": {"attempted": len(a_rows), "failed": failed(a_rows)},
            "B": {"attempted": len(b_rows), "failed": failed(b_rows)},
            "recover": {
                "attempted": sum(map(len, raw["recover"]["seconds"].values())),
                "failed": 0,
            },
        },
        "detail": {
            "unit": "request",
            "tail": (
                f"p{pct:.1f} of each {block}-request block of phase A "
                f"({len(latency)} requests), median of the {TAIL_BLOCKS}"
            ),
            "generator_lag_ms": {"p50": statistics.median(lag), "p99": lag_p99},
            "phase_b_accounted_steps": accounted_b,
            "recover": "ReleaseSession.recover of each phase-A tenant's WAL after SIGKILL",
        },
        "raw": raw,
    }


def run_pass(ctx, args, tag: str, traced: bool) -> dict:
    trace_dir = None
    tracer = None
    if traced:
        trace_dir = ctx.work / "trace"
        trace_dir.mkdir()
    if args.workload == "serve":
        if traced:
            from perfbench import tracing

            tracer = tracing.Tracer(trace_dir, "generator")
            tracing.install(tracer)
        result = serve_pass(ctx, args, tag, tracer, trace_dir)
        if tracer is not None:
            tracer.dump()
    else:
        result = session_pass(ctx, args, tag, trace_dir)
    result["trace_dir"] = trace_dir
    return result


def per_layer(args, traced: dict, untraced: dict) -> tuple:
    from perfbench import layers, tracing

    spanset = tracing.SpanSet(traced["trace_dir"])
    values = layers.compute(args.workload, spanset, traced["raw"])
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in layers.METRICS.items()}
    for name in E2E:
        metrics[f"overhead.{name}"] = {
            "value": traced["e2e"][name] / untraced["e2e"][name],
            "unit": "x",
        }
    window = traced["raw"]["trace_window"]
    table = tracing.SpanSet.table_of(
        [s for s in spanset.spans if window[0] <= s.t0 <= window[1]]
    )
    return metrics, table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("horizon", "clamp", "serve"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so the finally blocks stop the
    # server and child processes and remove the scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # environment_metadata() asks git for the commit; keep git from
    # searching above the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    from repro.obs.bench import environment_metadata

    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    ctx = Context(work)
    try:
        untraced = run_pass(ctx, args, "plain", traced=False)
        result = untraced
        table = None
        if args.trace:
            traced = run_pass(ctx, args, "traced", traced=True)
            metrics, table = per_layer(args, traced, untraced)
            result = traced
        else:
            metrics = {name: {"value": untraced["e2e"][name], "unit": unit} for name, unit in E2E.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    if args.workload == "serve":
        lag = untraced["detail"]["generator_lag_ms"]["p50"]
        if lag > MAX_LAG_SHARE * untraced["e2e"]["p50_ms"]:
            print(
                f"invalid run: generator median send lag {lag:.2f} ms exceeds "
                f"{MAX_LAG_SHARE:g} x p50 ({untraced['e2e']['p50_ms']:.2f} ms)",
                file=sys.stderr,
            )
            return 3
    checks = {}
    phases = {}
    for label, res in (("untraced", untraced),) + ((("traced", result),) if args.trace else ()):
        checks.update({f"{label}: {k}": v for k, v in res["checks"].items()})
        phases[label] = res["phases"]
    attempted = sum(p["attempted"] for res in phases.values() for p in res.values())
    failed = sum(p["failed"] for res in phases.values() for p in res.values())
    correct = all(checks.values()) and failed == 0
    if table is not None:
        print(f"{'span':34} {'calls':>8} {'wall_s':>10} {'busy_s':>10} {'wait_s':>10} {'self_s':>10}")
        for name, calls, wall, busy, wait, self_s in table:
            print(f"{name:34} {calls:8d} {wall:10.3f} {busy:10.3f} {wait:10.3f} {self_s:10.3f}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment_metadata(),
        "e2e_untraced": untraced["e2e"],
        "checks": checks,
        "phases": phases,
        "detail": untraced["detail"],
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

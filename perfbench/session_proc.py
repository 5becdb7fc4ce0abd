"""One ``horizon`` or ``clamp`` run in a fresh interpreter.

Run by ``perfbench/run.py`` as::

    python -m perfbench.session_proc --workload horizon --seed 0 \
        --seconds 30 --mode full --out result.json --work DIR [--trace DIR]

``--mode cold`` stops after the first accepted unit (a set-up sample);
``--mode full`` runs the whole plan, checks the outputs and writes the
timings, counts and check results to ``--out`` as JSON.  The monotonic
clock reading at the first accepted unit is reported so the parent can
measure set-up from before it started this process.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import time
import traceback
from pathlib import Path

#: Checkpoint restores behind ``recover_s`` on ``clamp`` and on a
#: one-stream ``horizon`` (longer horizon runs restore once per window of
#: their later streams); each takes 10-50 ms.
RESTORES = 11


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def peak_rss_mb() -> float:
    """This process plus its live children (forked shard workers)."""
    return vm_hwm_mb() + sum(vm_hwm_mb(p.pid) for p in multiprocessing.active_children())


def time_restore(config, directory) -> float:
    """Seconds one ``ReleaseSession.restore`` of a checkpoint takes."""
    from repro.service import ReleaseSession

    t0 = time.perf_counter()
    ReleaseSession.restore(config, directory).close()
    return time.perf_counter() - t0


def checkpoint(session, directory) -> tuple:
    """Checkpoint ``session``; returns the horizon and worst TPL a
    restore of it must reproduce."""
    session.checkpoint(directory)
    return session.horizon, session.max_tpl()


def restore_matches(expected: tuple, config, directory) -> bool:
    """A restore of ``directory`` reproduces the checkpointed horizon and
    worst TPL."""
    from repro.service import ReleaseSession

    restored = ReleaseSession.restore(config, directory)
    try:
        return (restored.horizon, restored.max_tpl()) == expected
    finally:
        restored.close()


def run_horizon(args, out: dict, tracer) -> None:
    from perfbench import checks, inputs
    from repro.service import ReleaseSession

    plan = inputs.horizon_plan(args.seed, args.seconds)
    streams = 1 if args.mode == "cold" else plan.streams
    out["windows_ms"] = []
    out["failed"] = 0
    out["attempted"] = 0
    sessions = []
    ckpt = Path(args.work) / "ckpt"
    out["restore_s"] = []
    out["window"] = [time.perf_counter()]
    for stream in range(streams):
        session = ReleaseSession(plan.config(stream))
        if tracer is not None:
            tracer.sessions[id(session)] = f"stream{stream}"
        times = []
        for snaps in plan.windows(stream):
            window = list(snaps)
            out["attempted"] += 1
            t0 = time.perf_counter()
            try:
                session.ingest_window(window)
            except Exception:  # counted, reported, and fails the run
                out["failed"] += 1
                out.setdefault("errors", []).append(traceback.format_exc())
            times.append((time.perf_counter() - t0) * 1000.0)
            if "first_unit" not in out:
                out["first_unit"] = time.monotonic()
                if args.mode == "cold":
                    return
            if stream > 0:
                # One restore of stream 0's final state after every later
                # window: taken back to back, all samples of a run fell in
                # one speed state of the VM's vCPU, and the median moved
                # 1.5x between runs.
                out["restore_s"].append(time_restore(plan.config(0), ckpt))
        out["windows_ms"].append(times)
        sessions.append(session)
        if stream == 0:
            expected = checkpoint(session, ckpt)
    out["window"].append(time.perf_counter())
    if not out["restore_s"]:
        out["restore_s"] = [time_restore(plan.config(0), ckpt) for _ in range(RESTORES)]
    out["peak_rss_mb"] = peak_rss_mb()
    out["checks"] = checks.horizon(plan, sessions)
    out["checks"]["restore matches the checkpointed state"] = restore_matches(
        expected, plan.config(0), ckpt
    )
    out["digest"] = checks.digest(sessions)
    out["events_retained"] = sum(len(s.events) for s in sessions)
    out["cache"] = sessions[-1].cache.stats()


def run_clamp(args, out: dict, tracer) -> None:
    from perfbench import checks, inputs
    from repro.service import ReleaseSession

    plan = inputs.clamp_plan(args.seed, args.seconds)
    config = plan.config()
    session = ReleaseSession(config)
    if tracer is not None:
        tracer.sessions[id(session)] = "clamp"
    out["latency_ms"] = []
    out["statuses"] = []
    out["failed"] = 0
    out["attempted"] = 0
    out["restore_s"] = []
    ckpt = Path(args.work) / "ckpt"
    capped = inputs.CLAMP_CAP_AT + 1  # first step after the clamped one
    every = max(1, (len(plan.epsilons) - capped - 1) // RESTORES)
    out["window"] = [time.perf_counter()]
    try:
        for i, epsilon in enumerate(plan.epsilons):
            out["attempted"] += 1
            t0 = time.perf_counter()
            try:
                event = session.ingest(
                    plan.snapshots[i], epsilon=float(epsilon), overrides=plan.overrides[i]
                )
            except Exception:  # counted, reported, and fails the run
                out["failed"] += 1
                out.setdefault("errors", []).append(traceback.format_exc())
                event = None
            out["latency_ms"].append((time.perf_counter() - t0) * 1000.0)
            out["statuses"].append(None if event is None else event.status)
            if "first_unit" not in out:
                out["first_unit"] = time.monotonic()
                if args.mode == "cold":
                    return
            if i == capped:
                # A later step may still be clamped, so the restore is
                # compared with the state at the checkpoint, not the end.
                expected = checkpoint(session, ckpt)
            elif i > capped and (i - capped) % every == 0:
                # Restore samples spread over the capped stream, as on
                # horizon: back to back they shared one vCPU speed state.
                out["restore_s"].append(time_restore(config, ckpt))
        out["window"].append(time.perf_counter())
        out["peak_rss_mb"] = peak_rss_mb()
        out["alpha"] = plan.alpha
        out["clamp_resolution"] = config.clamp_resolution
        out["horizon"] = session.horizon
        out["checks"] = checks.clamp(plan, session)
        out["digest"] = checks.digest([session])
        out["events_retained"] = len(session.events)
        out["cache"] = session.cache.stats()
        out["checks"]["restore matches the checkpointed state"] = restore_matches(
            expected, config, ckpt
        )
    finally:
        session.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("horizon", "clamp"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("cold", "full"), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", default=None, help="span output directory")
    args = parser.parse_args(argv)
    tracer = None
    if args.trace:
        from perfbench import tracing

        tracer = tracing.Tracer(args.trace, "session")
        tracing.install(tracer)
    out: dict = {}
    run = run_horizon if args.workload == "horizon" else run_clamp
    run(args, out, tracer)
    if tracer is not None:
        tracer.dump()
    Path(args.out).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

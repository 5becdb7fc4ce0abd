"""Outside-in layer tracing: spans around calls into each layer's public
entry points, installed from the benchmark's own files.

:func:`install` replaces each entry point with a wrapper that records one
span per call -- name, start, end, thread-CPU delta, parent and id, plus
a few counts (steps, alphas, scales) -- and calls through unchanged.  It
must run before any session, server or shard worker exists: forked shard
workers inherit the wrappers and write their own spans when they exit.
Each process keeps its spans in memory and writes them once, as JSON, to
the run's trace directory.

Spans of one ``serve`` request share its ``seq``: the server's request
decoder (``repro.net.server.decode_step``) is wrapped to put the
request's ``seq`` into a context variable, which the ``aingest`` span of
the same request task reads.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import multiprocessing.util
import os
import threading
import time
from pathlib import Path

import numpy as np

_SEQ = contextvars.ContextVar("perfbench_seq", default=None)


class Tracer:
    """In-memory span recorder of one process."""

    def __init__(self, out_dir, label: str) -> None:
        self.out_dir = Path(out_dir)
        self.label = label
        self.spans: list = []
        self.threads: dict = {}
        self.sessions: dict = {}  # id(session) -> tenant label
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.pid = os.getpid()
        # Forked shard workers start with a clean recorder and write it
        # out when multiprocessing runs their exit finalizers.
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self.pid = os.getpid()
        self.label = f"worker-{self.pid}"
        self._local = threading.local()
        multiprocessing.util.Finalize(None, self._dump_if_any, exitpriority=10)

    def _dump_if_any(self) -> None:
        if self.spans:
            self.dump()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            thread = threading.current_thread()
            self.threads[thread.ident] = thread.name
        return stack

    def call(self, name, fn, args, kwargs, attrs=None):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        cpu0 = time.thread_time()
        t0 = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = time.perf_counter()
            cpu = time.thread_time() - cpu0
            stack.pop()
            info = attrs(args, kwargs, result) if attrs is not None else None
            self.spans.append(
                (span_id, parent, name, t0, t1, cpu, threading.get_ident(), info)
            )

    async def acall(self, name, fn, args, kwargs, attrs=None):
        # Coroutine spans interleave on the loop thread: no parent, and
        # thread CPU over the await is meaningless (recorded as None).
        self._stack()
        span_id = next(self._ids)
        t0 = time.perf_counter()
        try:
            return await fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            info = attrs(args, kwargs, None) if attrs is not None else None
            self.spans.append(
                (span_id, 0, name, t0, t1, None, threading.get_ident(), info)
            )

    def record(self, name, t0, t1, info=None) -> None:
        """A span timed by the caller (the generator's send -> reply)."""
        self._stack()
        self.spans.append(
            (next(self._ids), 0, name, t0, t1, None, threading.get_ident(), info)
        )

    def dump(self, path=None) -> Path:
        path = Path(path) if path is not None else self.out_dir / f"spans-{self.pid}.json"
        payload = {
            "pid": self.pid,
            "label": self.label,
            "threads": {str(k): v for k, v in self.threads.items()},
            "spans": self.spans,
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        tmp.replace(path)
        return path


# -- installing the wrappers ------------------------------------------------


def _size(matrix) -> int:
    return int(np.shape(getattr(matrix, "array", matrix))[0])


def _cells(alphas: int, n: int) -> int:
    return alphas * n * (n - 1) * n


def _wrap_function(tracer, module, attr, name, attrs=None):
    fn = getattr(module, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, attrs)

    setattr(module, attr, wrapper)


def _wrap_method(tracer, cls, attr, name, attrs=None):
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        fn = raw.__func__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, attrs)

        setattr(cls, attr, classmethod(wrapper))
        return
    if inspect.iscoroutinefunction(raw):

        @functools.wraps(raw)
        async def awrapper(*args, **kwargs):
            return await tracer.acall(name, raw, args, kwargs, attrs)

        setattr(cls, attr, awrapper)
        return

    @functools.wraps(raw)
    def wrapper(*args, **kwargs):
        return tracer.call(name, raw, args, kwargs, attrs)

    setattr(cls, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point (idempotence is the caller's job:
    call once per process, before any session exists)."""
    import repro.core.algorithm1 as algorithm1
    import repro.core.loss_functions as loss_functions
    import repro.fleet.engine as engine
    import repro.net.server as server
    from repro.durability import WriteAheadLog
    from repro.fleet import FleetAccountant
    from repro.service import (
        FleetAccountantBackend,
        ReleaseSession,
        ScalarAccountantBackend,
        ShardedFleetBackend,
    )

    # -- core: Algorithm 1, under the names their callers import --------
    def stacked_attrs(args, kwargs, result):
        jobs = args[0]
        alphas = sum(int(np.size(a)) for _, a in jobs)
        cells = sum(_cells(int(np.size(a)), _size(m)) for m, a in jobs)
        return {"alphas": alphas, "cells": cells}

    def batch_attrs(args, kwargs, result):
        alphas = int(np.size(args[1]))
        return {"alphas": alphas, "cells": _cells(alphas, _size(args[0]))}

    def scalar_attrs(args, kwargs, result):
        return {"alphas": 1, "cells": _cells(1, _size(args[0]))}

    _wrap_function(tracer, engine, "max_log_ratio_stacked", "core.solver.stacked", stacked_attrs)
    # The engine reaches the batch solver only through max_log_ratio_grid,
    # which calls it by algorithm1's own module global.
    _wrap_function(tracer, algorithm1, "max_log_ratio_batch", "core.solver.batch", batch_attrs)
    _wrap_function(tracer, loss_functions, "max_log_ratio", "core.solver.scalar", scalar_attrs)

    # -- fleet --------------------------------------------------------------
    def window_attrs(args, kwargs, result):
        return {"steps": int(np.size(result)) if result is not None else 0}

    def probe_attrs(args, kwargs, result):
        return {"scales": int(np.size(result)) if result is not None else 0}

    _wrap_method(tracer, FleetAccountant, "add_window", "fleet.add_window", window_attrs)
    _wrap_method(tracer, FleetAccountant, "probe_release_scales", "fleet.probe", probe_attrs)

    # -- service: backends ------------------------------------------------
    def backend_probe_attrs(args, kwargs, result):
        scales = args[3] if len(args) > 3 else kwargs.get("scales", ())
        worsts = [] if result is None else [float(w) for w in result]
        return {"scales": [float(s) for s in scales], "worsts": worsts}

    for cls in (ScalarAccountantBackend, FleetAccountantBackend, ShardedFleetBackend):
        kind = cls.name
        for method in ("add_window", "add_release", "rollback"):
            _wrap_method(tracer, cls, method, f"backend.{kind}.{method}")
        _wrap_method(
            tracer, cls, "probe_scales", f"backend.{kind}.probe_scales", backend_probe_attrs
        )

    # -- service: session ---------------------------------------------------
    def session_attrs(args, kwargs, result):
        info = {"session": tracer.sessions.get(id(args[0]))}
        if isinstance(result, list):
            info["steps"] = len(result)
        return info

    def aingest_attrs(args, kwargs, result):
        return {"session": tracer.sessions.get(id(args[0])), "seq": _SEQ.get()}

    _wrap_method(tracer, ReleaseSession, "ingest", "session.ingest", session_attrs)
    _wrap_method(
        tracer, ReleaseSession, "ingest_window", "session.ingest_window", session_attrs
    )
    _wrap_method(tracer, ReleaseSession, "aingest", "session.aingest", aingest_attrs)
    _wrap_method(tracer, ReleaseSession, "recover", "session.recover")

    # -- durability ---------------------------------------------------------
    _wrap_method(tracer, WriteAheadLog, "append", "wal.append")
    _wrap_method(tracer, WriteAheadLog, "sync", "wal.sync")

    # -- net: tag the request task with its seq ---------------------------
    decode = server.decode_step

    @functools.wraps(decode)
    def decode_step(payload, known_users):
        if isinstance(payload, dict) and isinstance(payload.get("seq"), int):
            _SEQ.set(payload["seq"])
        return decode(payload, known_users)

    server.decode_step = decode_step


# -- reading spans back -------------------------------------------------


class Span:
    __slots__ = ("pid", "id", "parent", "name", "t0", "t1", "cpu", "tid", "info", "children")

    def __init__(self, pid, raw):
        (self.id, self.parent, self.name, self.t0, self.t1, self.cpu, self.tid, info) = raw
        self.pid = pid
        self.info = info or {}
        self.children = []

    @property
    def wall(self) -> float:
        return self.t1 - self.t0

    @property
    def self_wall(self) -> float:
        return self.wall - sum(c.wall for c in self.children)


class SpanSet:
    """Every span of one run, from every process, linked to parents."""

    def __init__(self, directory) -> None:
        self.spans: list = []
        self.processes: dict = {}  # pid -> label
        self.threads: dict = {}  # (pid, tid) -> thread name
        for path in sorted(Path(directory).glob("spans-*.json")):
            payload = json.loads(path.read_text(encoding="utf-8"))
            pid = payload["pid"]
            self.processes[pid] = payload["label"]
            for tid, name in payload["threads"].items():
                self.threads[(pid, int(tid))] = name
            by_id = {}
            for raw in payload["spans"]:
                span = Span(pid, raw)
                by_id[span.id] = span
                self.spans.append(span)
            for span in by_id.values():
                parent = by_id.get(span.parent)
                if parent is not None:
                    parent.children.append(span)
        self._by_id = {(s.pid, s.id): s for s in self.spans}

    def parent_of(self, span):
        return self._by_id.get((span.pid, span.parent))

    def ancestor(self, span, prefix: str):
        node = self.parent_of(span)
        while node is not None:
            if node.name.startswith(prefix):
                return node
            node = self.parent_of(node)
        return None

    def thread_name(self, span) -> str:
        return self.threads.get((span.pid, span.tid), "")

    @staticmethod
    def table_of(spans) -> list:
        """``[name, calls, wall_s, busy_s, wait_s, self_s]`` per span name;
        ``wait_s`` is wall time not on this thread's CPU, ``self_s`` the
        wall time not covered by child spans."""
        rows: dict = {}
        for span in spans:
            row = rows.setdefault(span.name, [0, 0.0, 0.0, 0.0])
            row[0] += 1
            row[1] += span.wall
            row[2] += span.cpu or 0.0
            row[3] += span.self_wall
        out = []
        for name in sorted(rows):
            calls, wall, busy, self_s = rows[name]
            out.append([name, calls, wall, busy, max(0.0, wall - busy), self_s])
        return out

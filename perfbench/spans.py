"""Span recording around calls into the program's public functions.

A :class:`Tracer` replaces chosen attributes of the program's classes
and modules with wrappers that record one span per call: name, start,
end, parent span, iteration, process and thread. Nothing in the
program changes; :meth:`Tracer.uninstall` puts every original back.

The process planes fork their workers, so the wrappers are inherited
there. Each forked worker starts with an empty span list and writes it
to ``<spool>/spans-<pid>.json`` when the worker exits (a
``multiprocessing`` finalizer); :meth:`Tracer.collect` reads those
files back into the benchmark process.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Any, Callable


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    name: str
    start_ns: int
    end_ns: int
    #: Synchronized iteration in progress in this process when the span
    #: opened (the parent counts all-reduce returns, a worker its
    #: optimizer steps).
    iteration: int
    pid: int
    tid: int
    thread: str
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6

    def to_row(self) -> list:
        return [self.span_id, self.parent_id, self.name, self.start_ns,
                self.end_ns, self.iteration, self.pid, self.tid,
                self.thread, self.attrs]

    @classmethod
    def from_row(cls, row) -> "Span":
        return cls(*row)


class Tracer:
    """Records spans from wrappers it installs; see the module doc."""

    def __init__(self, spool: Path) -> None:
        self.spool = Path(spool)
        self.root_pid = os.getpid()
        self.pid = self.root_pid
        self.spans: list[Span] = []
        self.iteration = 0
        self.enabled = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        mp_util.register_after_fork(self, Tracer._after_fork)

    # -- process bookkeeping ---------------------------------------------
    @property
    def in_worker(self) -> bool:
        return self.pid != self.root_pid

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self.iteration = 0
        self._local = threading.local()
        if self.enabled:
            mp_util.Finalize(None, self._spool_out, exitpriority=10)

    def _spool_out(self) -> None:
        self.spool.mkdir(parents=True, exist_ok=True)
        path = self.spool / f"spans-{self.pid}.json"
        path.write_text(json.dumps([s.to_row() for s in self.spans]))

    def collect(self) -> None:
        """Move the spans every exited worker spooled into ``spans``."""
        for path in sorted(self.spool.glob("spans-*.json")):
            self.spans.extend(Span.from_row(r)
                              for r in json.loads(path.read_text()))
            path.unlink()

    def tick(self) -> None:
        """An iteration of this process finished."""
        self.iteration += 1

    # -- recording -------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            thread = threading.current_thread()
            self._local.ident = (threading.get_native_id(), thread.name)
        return stack

    def record(self, name: str, call: Callable, args: tuple,
               kwargs: dict, attrs: Callable | None = None) -> Any:
        """Run ``call(*args, **kwargs)`` inside a span named ``name``.
        ``attrs(args, kwargs, result)`` may return a dict stored on the
        span; it runs after the span closes, outside its time."""
        stack = self._stack()
        sid = (self.pid << 24) | next(self._ids)
        parent = stack[-1] if stack else None
        iteration = self.iteration
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            result = call(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
        tid, thread = self._local.ident
        self.spans.append(Span(
            sid, parent, name, start, end, iteration, self.pid, tid,
            thread, attrs(args, kwargs, result) if attrs else {}))
        return result

    def wrap(self, owner: Any, attr: str, name: str, *,
             attrs: Callable | None = None,
             before: Callable | None = None,
             after: Callable | None = None) -> None:
        """Replace the function ``owner.attr`` (on a class, a module or
        a dict) by a recording wrapper. ``before(args)`` runs before
        the span opens and ``after(args, result)`` after it closes."""
        original = owner[attr] if isinstance(owner, dict) \
            else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            if before is not None:
                before(args)
            result = tracer.record(name, original, args, kwargs, attrs)
            if after is not None:
                after(args, result)
            return result

        own = attr in owner if isinstance(owner, dict) \
            else attr in vars(owner)
        self._set(owner, attr, wrapper)
        self._patches.append((owner, attr, original if own else None))

    @staticmethod
    def _set(owner: Any, attr: str, value: Any) -> None:
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first, and stop
        recording."""
        self.enabled = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:      # was inherited: drop the override
                delattr(owner, attr)
            else:
                self._set(owner, attr, original)

    # -- export ----------------------------------------------------------
    def chrome_trace(self) -> dict:
        """The spans as Chrome trace events (Perfetto reads them)."""
        events = []
        threads = {}
        for s in self.spans:
            threads[(s.pid, s.tid)] = s.thread
            events.append({
                "name": s.name, "ph": "X", "pid": s.pid, "tid": s.tid,
                "ts": s.start_ns / 1e3, "dur": (s.end_ns - s.start_ns)
                / 1e3,
                "args": {"span": s.span_id, "parent": s.parent_id,
                         "iteration": s.iteration,
                         "start_us": s.start_ns / 1e3,
                         "end_us": s.end_ns / 1e3, **s.attrs}})
        for (pid, tid), thread in threads.items():
            events.append({"name": "thread_name", "ph": "M", "pid": pid,
                           "tid": tid, "args": {"name": thread}})
        return {"traceEvents": events, "displayTimeUnit": "ms"}

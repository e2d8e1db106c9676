"""The overlapped producer chain: sample → gather → transfer on threads.

The paper's two-stage prefetch (§IV-B, Fig. 7) has one shape: the
producer stages of later iterations run ahead of the train stage of
earlier ones through bounded buffers. :class:`StageChain` is that shape,
written once over the stage methods of a
:class:`~repro.runtime.stage_pipeline.StagePipeline`::

    put ──► [sample] ──sample──► [gather] ──gather──► [transfer]
        ──transfer──► [train] ──► get

Two planes run it: the ``pipelined`` backend with one lane per
trainer, and every worker of the worker-sampling process plane
(``process_pipelined``, ``process_sampling``, ``sharded``) with one
lane over its shared-memory views. Batches stay in flight across
stages, so the chain never passes a :class:`~repro.kernels.BufferPool`
(a pooled gather result would be overwritten while still queued;
``docs/kernels.md``).
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass
from typing import Callable, ContextManager, Sequence

import numpy as np

from ..errors import ProtocolError
from .prefetch import PrefetchBuffer
from .stage_pipeline import PreparedBatch, StagePipeline, StageTimings

#: Producer stages in chain order (the train stage consumes).
PRODUCER_STAGES = ("sample", "gather", "transfer")

#: The chain's buffers, each named for the stage it feeds.
CHAIN_STAGES = (*PRODUCER_STAGES, "train")

#: Name prefix of every thread a :class:`StageChain` starts. Thread-leak
#: checks key off it, so it lives in exactly one place.
CHAIN_THREAD_PREFIX = "stage-chain-"


@dataclass(frozen=True)
class StageStats:
    """Occupancy accounting of one stage's buffers, aggregated across
    lanes (the per-stage overlap report)."""

    stage: str
    items: int               # total items that passed through
    high_water: int          # max occupancy seen on any lane's buffer
    mean_occupancy: float    # mean over buffers of sampled occupancy

    def describe(self) -> str:
        return (f"{self.stage}: items={self.items} "
                f"hw={self.high_water} occ={self.mean_occupancy:.2f}")


def fold_stage_stats(stage: str,
                     entries: list[tuple[int, int, float]]
                     ) -> StageStats:
    """Aggregate per-buffer ``(items, high_water, mean_occupancy)``
    entries into one stage's :class:`StageStats` (items summed,
    high-water maxed, occupancy averaged). The pipelined plane folds its
    own chain's buffers; the fused process plane folds every worker's
    accounting shipped back over the pipes — one fold for both.

    An empty ``entries`` list (a stage no buffer ever carried) folds to
    a zeroed record rather than tripping ``max()`` on an empty
    sequence."""
    if not entries:
        return StageStats(stage=stage, items=0, high_water=0,
                          mean_occupancy=0.0)
    return StageStats(
        stage=stage,
        items=sum(e[0] for e in entries),
        high_water=max(e[1] for e in entries),
        mean_occupancy=float(np.mean([e[2] for e in entries])))


class StageChain:
    """Per-lane sample → gather → transfer threads over bounded buffers.

    Each lane has one thread per producer stage and one buffer per
    stage, named for the stage it feeds. :meth:`get` hands the consumer
    ``(iteration, PreparedBatch | None)`` in put order (``None``: a
    pass-through put with ``targets=None``); each batch carries the
    :class:`StageTimings` its producer stages took. The chain owns close
    propagation (:meth:`close_input`), failure fan-out (:meth:`fail`;
    :meth:`get` and :meth:`put` re-raise the original exception),
    :meth:`resize`, :meth:`join` with a typed error, and the
    :class:`StageStats` fold.

    Parameters
    ----------
    pipeline:
        The stage methods the chain runs (``sample`` / ``gather_io`` /
        ``transfer`` / ``labels_for``).
    kinds:
        Trainer kind per lane (``"cpu"``/``"accel"``) — selects each
        lane's transfer policy. The lane count is ``len(kinds)``.
    depth:
        Initial capacity of every buffer (see :meth:`resize`).
    timeout_s:
        Deadline on every blocking buffer handoff and on each thread's
        join.
    context:
        Optional factory of a context manager every chain thread runs
        inside (the pipelined plane enlists its kernel counters).
    """

    def __init__(self, pipeline: StagePipeline, kinds: Sequence[str],
                 depth: int, timeout_s: float, *,
                 context: Callable[[], ContextManager] | None = None
                 ) -> None:
        self.pipeline = pipeline
        self.kinds = tuple(kinds)
        self.timeout_s = timeout_s
        self._context = context or contextlib.nullcontext
        self.buffers = {stage: [PrefetchBuffer(depth)
                                for _ in self.kinds]
                        for stage in CHAIN_STAGES}
        self._threads: list[threading.Thread] = []
        self._error: BaseException | None = None
        self._error_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start one thread per producer stage per lane."""
        steps = {"sample": self._sample, "gather": self._gather,
                 "transfer": self._transfer}
        for lane in range(len(self.kinds)):
            for src, dst in zip(CHAIN_STAGES, CHAIN_STAGES[1:]):
                self.spawn(self._stage_loop, f"{src}{lane}",
                           src, dst, lane, steps[src])

    def spawn(self, target: Callable, name: str, *args) -> None:
        """Run ``target(*args)`` on a chain thread: named under
        :data:`CHAIN_THREAD_PREFIX`, inside the chain's context, with
        any exception fanned out through :meth:`fail`, and joined by
        :meth:`join`. Planes use it for the threads that feed or drain
        the chain (a dispatcher, a worker's train consumer)."""
        def run() -> None:
            try:
                with self._context():
                    target(*args)
            except BaseException as exc:
                # Not swallowed: the consumer's get re-raises it.
                self.fail(exc)

        thread = threading.Thread(target=run, daemon=True,
                                  name=f"{CHAIN_THREAD_PREFIX}{name}")
        self._threads.append(thread)
        thread.start()

    def fail(self, exc: BaseException) -> None:
        """Record the first failure and close every buffer, so every
        blocked thread wakes and the consumer sees ``exc``."""
        with self._error_lock:
            if self._error is None:
                self._error = exc
        self._close_buffers()

    def close_input(self) -> None:
        """End every lane's stream after the items already put."""
        for buf in self.buffers["sample"]:
            buf.close()

    def join(self) -> None:
        """Wait for every chain thread to finish.

        Raises
        ------
        ProtocolError
            Naming each thread still alive after ``timeout_s`` — a
            thread wedged outside any buffer wait could otherwise still
            be mutating what the caller reads next.
        """
        for thread in self._threads:
            thread.join(timeout=self.timeout_s)
        lingering = [t.name for t in self._threads if t.is_alive()]
        if lingering:
            raise ProtocolError(
                f"stage chain threads failed to join within "
                f"{self.timeout_s}s: {lingering}")

    def close(self) -> None:
        """Close every buffer (unblocking any thread in put/get), then
        :meth:`join`."""
        self._close_buffers()
        self.join()

    def __enter__(self) -> "StageChain":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Always close and join; a lingering thread is reported only
        # when no other exception is already propagating.
        try:
            self.close()
        except ProtocolError:
            if exc_type is None:
                raise

    # ------------------------------------------------------------------
    # Feeding and draining
    # ------------------------------------------------------------------
    def put(self, lane: int, iteration: int,
            targets: np.ndarray | None) -> None:
        """Queue one work item on ``lane`` (``targets=None`` passes the
        iteration through unprepared)."""
        try:
            self.buffers["sample"][lane].put((iteration, targets),
                                             timeout=self.timeout_s)
        except ProtocolError:
            self._raise_failure()
            raise

    def get(self, lane: int
            ) -> tuple[int, PreparedBatch | None] | None:
        """The next ``(iteration, PreparedBatch | None)`` of ``lane``,
        or ``None`` at end of stream.

        Raises the chain's original failure if any chain thread failed.
        """
        try:
            item = self.buffers["train"][lane].get(
                timeout=self.timeout_s)
        except ProtocolError:
            self._raise_failure()
            raise
        if item is None:
            self._raise_failure()
        return item

    def resize(self, depth: int) -> None:
        """Change the capacity of every live buffer."""
        for bufs in self.buffers.values():
            for buf in bufs:
                buf.resize(depth)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def accounting(self) -> dict[str, list[tuple[int, int, float]]]:
        """Per stage, each lane's ``(items, high_water,
        mean_occupancy)`` — the picklable form a worker ships."""
        return {stage: [(b.total_puts, b.high_water, b.mean_occupancy)
                        for b in bufs]
                for stage, bufs in self.buffers.items()}

    def stage_stats(self) -> dict[str, StageStats]:
        """The per-stage overlap report over every lane."""
        return {stage: fold_stage_stats(stage, entries)
                for stage, entries in self.accounting().items()}

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _close_buffers(self) -> None:
        for bufs in self.buffers.values():
            for buf in bufs:
                buf.close()

    def _raise_failure(self) -> None:
        if self._error is not None:
            raise self._error

    def _stage_loop(self, src: str, dst: str, lane: int,
                    step: Callable) -> None:
        inbox = self.buffers[src][lane]
        outbox = self.buffers[dst][lane]
        while True:
            item = inbox.get(timeout=self.timeout_s)
            if item is None:
                outbox.close()
                return
            it, work = item
            if work is not None:
                work = step(lane, work)
            outbox.put((it, work), timeout=self.timeout_s)

    def _sample(self, lane: int, targets: np.ndarray):
        t0 = time.perf_counter()
        mb = self.pipeline.sample(targets)
        return mb, time.perf_counter() - t0

    def _gather(self, lane: int, work):
        mb, sample_s = work
        t0 = time.perf_counter()
        x0, io = self.pipeline.gather_io(mb)
        return mb, x0, io, sample_s, time.perf_counter() - t0

    def _transfer(self, lane: int, work) -> PreparedBatch:
        mb, x0, io, sample_s, gather_s = work
        t0 = time.perf_counter()
        x0 = self.pipeline.transfer(x0, self.kinds[lane])
        transfer_s = time.perf_counter() - t0
        return PreparedBatch(
            mb=mb, x0=x0, labels=self.pipeline.labels_for(mb),
            timings=StageTimings(sample_s=sample_s, gather_s=gather_s,
                                 transfer_s=transfer_s),
            io=io)

"""Pipelined async execution backend (paper §IV-B, Fig. 7 overlap).

The threaded and process backends realize the training protocol on live
substrates, but both still resolve iterations *lock-step*: every stage
of iteration ``i`` finishes before iteration ``i+1`` starts anywhere.
This backend is the paper's two-stage-prefetch claim made live: the
producer stages of one iteration overlap the train stage of earlier
ones, per trainer, with backpressure end-to-end. A **dispatcher**
thread drains the shared :class:`~repro.runtime.core.BatchPlan` (one
permutation per epoch, quota slices in trainer order — epoch coverage
stays *exact*) into a :class:`~repro.runtime.stage_chain.StageChain`
with one lane per trainer over ``session.pipeline`` (sample → gather →
transfer stage threads, the sampler lock keeping the shared RNG stream
uncorrupted).
The caller's thread is the **train + synchronizer** stage: it consumes
prepared batches in iteration order, trains every replica, and runs the
shared all-reduce through ``session.reduce_and_step`` — gradient math
stays synchronous SGD, identical to every other backend.

**Adaptive look-ahead** (replacing a fixed prefetch ``depth``): after
each iteration the timing plane's
:meth:`~repro.runtime.core.TrainingSession.timing_step` yields modelled
:class:`~repro.perfmodel.model.StageTimes`; :func:`adaptive_depth` turns
the producer/consumer time ratio into an effective depth and every stage
buffer is resized live — deep look-ahead only when the producer stages
are the bottleneck, shallow (less memory in flight) when training is.

Why this backend is **not** bit-identical to the virtual reference with
more than one trainer: per-trainer sample threads interleave draws from
the shared sampler stream in scheduler order, and the dispatcher plans
up to ``depth`` iterations ahead of the DRM engine (Algorithm 1 sees
iteration ``i``'s times only after ``i`` *trains*, by which time the
plan has already sliced quotas for the in-flight iterations). Both are
inherent to overlap — DistDGL's producer/consumer pipeline makes the
same trade. It therefore declares ``conformance_tier = "statistical"``:
the kit asserts exact epoch coverage, target-budget conservation,
DRM-trajectory shape and loss/parameter closeness instead of
bit-parity. With a single trainer and no look-ahead-sensitive state the
stream order is the plan order, so the single-trainer case **is**
bit-identical — pinned by the conformance suite.

This plane's overlap runs on threads under the GIL; the fused plane
(:mod:`.process_pipelined`) runs the same chain *inside* GIL-free
worker processes and shares this module's look-ahead control
(:class:`LookaheadControl`). The tier contract both planes share is
documented in ``docs/backends.md``.
"""

from __future__ import annotations

import math
import time

import numpy as np

from ...errors import ProtocolError
from ...kernels import scoped_counters
from ...perfmodel.model import StageTimes
from ..protocol import Signal
from ..resctl import (
    DEFAULT_ALLOCATOR,
    NodeAllocator,
    OnlineEstimator,
    fold_worker_realized,
)
from ..stage_chain import StageChain
# ``summarize_overlap`` is re-exported: the formatter lives with
# ``RunReport.overlap_summary`` in ``base``.
from .base import ExecutionBackend, RunReport, summarize_overlap
from .options import OverlapOptions

#: Valid values of the overlapped planes' ``depth_source`` knob.
DEPTH_SOURCES = ("realized", "model")


def seed_depth(session, initial_depth: int, cap: int,
               depth_source: str, estimator=None) -> int:
    """Effective look-ahead for the first window, before any timing
    feedback exists (the iteration-0 depth bugfix).

    ``adaptive_depth`` is only consulted after the first
    ``timing_step``, so historically iteration 0 always ran at the
    configured depth regardless of stage ratios. Under
    ``depth_source="realized"`` a timing+prefetch session now starts
    from the floor — there is no realized signal yet, so claiming the
    full configured window is unjustified — or from the calibrated
    steady-state estimate once the estimator is warm (e.g. a previous
    run through the same backend instance). Sessions that will never
    adapt (functional-only, or prefetch off) keep ``initial_depth``:
    with no feedback loop, a floor-seeded window would throttle the
    whole run, not just its first iterations. ``depth_source="model"``
    preserves the prior trajectory exactly (the regression-pinned
    behavior).
    """
    if depth_source != "realized":
        return initial_depth
    if not (session.has_timing and session.sys_cfg.prefetch):
        return initial_depth
    if estimator is not None and estimator.is_warm():
        times = estimator.calibrate(session.stage_times(None, None))
        return adaptive_depth(times, cap=cap)
    return 1


def adaptive_depth(times: StageTimes, cap: int, floor: int = 1) -> int:
    """Effective look-ahead from modelled stage-time ratios.

    The producer side of the pipeline needs roughly
    ``t_sample + t_load + t_transfer`` per batch; the consumer retires
    one batch every ``t_prop``. Keeping
    ``ceil(producer / consumer)`` batches in flight is just enough for
    the train stage never to wait on a producer in steady state
    (Little's law with the train stage as the service center); anything
    deeper only adds memory pressure. Clamped to ``[floor, cap]`` so
    the pipeline never starves (depth >= 1 keeps every stage able to
    hand one item forward) and never exceeds the configured cap.
    """
    if cap < floor or floor < 1:
        raise ProtocolError("need cap >= floor >= 1")
    producer = times.t_sample + times.t_load + times.t_transfer
    consumer = times.t_prop
    if producer <= 0.0 or not math.isfinite(producer):
        return floor
    if consumer <= 0.0 or not math.isfinite(consumer):
        return cap
    ratio = producer / consumer
    # Both operands can be finite while their ratio overflows to inf
    # (a denormal consumer); ceil(inf) raises, and an unboundedly
    # producer-bound pipeline wants the cap anyway.
    if not math.isfinite(ratio):
        return cap
    return max(floor, min(cap, math.ceil(ratio)))


class LookaheadControl:
    """The adaptive look-ahead both overlapped backends share.

    Owns, once: depth and ``depth_source`` resolution, the estimator,
    the node-allocator grant taken for the length of :meth:`run` (by a
    window that can grow past one iteration), the
    live depth cap, the first window's seed, and the resize after each
    ``timing_step``. A backend mixes it in ahead of its base class,
    calls :meth:`_init_lookahead` from its constructor and implements
    :meth:`_run_granted`. The knobs it resolves:

    * ``initial_depth`` — the first window (defaults to the session's
      ``prefetch_depth`` when two-stage prefetching is on, else 1 —
      lock-step, matching the serialized ablation presets);
    * ``max_depth`` — hard cap the adaptive policy never exceeds;
      defaults to 8 or the initial depth, whichever is larger, so
      default construction is valid for any session (an explicit cap
      below the initial depth fails loudly);
    * ``depth_source`` — ``"realized"`` (default) steers
      ``adaptive_depth`` and ``drm_step`` from estimator-calibrated
      stage times; ``"model"`` reproduces the purely-analytic
      trajectories bit for bit — what the regression pins and the
      bit-parity tests construct with;
    * ``allocator`` — the :class:`~repro.runtime.resctl.NodeAllocator`
      arbitrating look-ahead depth across concurrent sessions
      (defaults to the process-global one).
    """

    def _init_lookahead(self, initial_depth: int | None,
                        max_depth: int | None,
                        depth_source: str | None,
                        allocator: NodeAllocator | None) -> None:
        cfg = self.session.sys_cfg
        if initial_depth is None:
            initial_depth = cfg.prefetch_depth if cfg.prefetch else 1
        if initial_depth < 1:
            raise ProtocolError("prefetch depth must be >= 1")
        if max_depth is None:
            max_depth = max(8, initial_depth)
        if max_depth < initial_depth:
            raise ProtocolError("max_depth must be >= initial depth")
        if depth_source is None:
            depth_source = "realized"
        if depth_source not in DEPTH_SOURCES:
            raise ProtocolError(
                f"unknown depth_source {depth_source!r}; expected one "
                f"of {DEPTH_SOURCES}")
        self.initial_depth, self.max_depth = initial_depth, max_depth
        self.depth_source = depth_source
        self.allocator = allocator if allocator is not None \
            else DEFAULT_ALLOCATOR
        #: Calibrates the analytic model against the monitored wall
        #: times; persists across runs, so a second run on the same
        #: backend starts warm.
        self.estimator = OnlineEstimator(monitor=None)
        self._grant = None

    def run(self, iterations: int):
        """Execute ``iterations`` synchronized iterations, overlapped.

        Claims a share of the node's look-ahead budget for the run; the
        ``finally`` returns it the moment the run ends (success or
        failure), so co-tenant sessions' caps rise immediately. A
        window capped at one iteration has no look-ahead to arbitrate
        and claims nothing. The report gets the buffers' overall
        high-water mark and, on timing sessions, the estimator's
        calibration digest.
        """
        if iterations < 1:
            raise ProtocolError("iterations must be >= 1")
        if self.max_depth > 1:
            self._grant = self.allocator.register(
                name=f"{self.name}:{self.session.dataset.name}",
                max_depth=self.max_depth)
        try:
            report = self._run_granted(iterations)
        finally:
            if self._grant is not None:
                self._grant.release()
                self._grant = None
        report.prefetch_high_water = max(
            (st.high_water for st in report.stage_stats.values()),
            default=0)
        if self.session.has_timing:
            report.calibration = self.estimator.summary()
        return report

    def _run_granted(self, iterations: int):
        raise NotImplementedError

    def _depth_cap(self) -> int:
        """Live adaptive-depth cap: the configured ``max_depth``
        clamped by this run's current allocator share."""
        cap = self.max_depth
        if self._grant is not None and not self._grant.released:
            cap = min(cap, self._grant.depth_cap)
        return max(1, cap)

    def _seed_depth(self, report) -> int:
        """The first window's depth, recorded at iteration 0."""
        depth = seed_depth(self.session, self.initial_depth,
                           self._depth_cap(), self.depth_source,
                           self.estimator)
        report.depth_history.append((0, depth))
        return depth

    def _adapt_depth(self, it: int, times: StageTimes | None,
                     depth: int, report, resize) -> int:
        """After iteration ``it``'s ``timing_step``: steer the window
        from its stage times, call ``resize(want)`` on a change, and
        return the depth now in effect."""
        if times is None or not self.session.sys_cfg.prefetch:
            return depth
        want = adaptive_depth(times, cap=self._depth_cap())
        if want != depth:
            resize(want)
            report.depth_history.append((it + 1, want))
        return want

    # -- resctl hooks --------------------------------------------------
    def _timing_estimator(self):
        return self.estimator if self.session.has_timing else None

    def _timing_calibrate(self) -> bool:
        return self.depth_source == "realized"


class PipelinedBackend(LookaheadControl, ExecutionBackend):
    """Overlapped producer/consumer execution on live threads.

    Parameters
    ----------
    session:
        The shared runtime core. Timing-plane sessions drive the
        adaptive look-ahead from modelled stage times; functional-only
        sessions run at a fixed depth.
    initial_depth / max_depth / depth_source / allocator:
        The look-ahead knobs (see :class:`LookaheadControl`); every
        stage buffer starts at the first window's depth.
    timeout_s:
        Watchdog (a monotonic deadline) on every blocking stage handoff
        — a wedged pipeline fails fast instead of hanging the suite.
    """

    name = "pipelined"
    options_cls = OverlapOptions
    conformance_tier = "statistical"

    def __init__(self, session, initial_depth: int | None = None,
                 max_depth: int | None = None,
                 timeout_s: float = 60.0,
                 depth_source: str | None = None,
                 allocator: NodeAllocator | None = None) -> None:
        super().__init__(session)
        self._init_lookahead(initial_depth, max_depth, depth_source,
                             allocator)
        if timeout_s <= 0:
            raise ProtocolError("timeout_s must be positive")
        self.timeout_s = timeout_s

    # ------------------------------------------------------------------
    def _run_granted(self, iterations: int) -> RunReport:
        """Iterations follow the shared batch plan (rolling into fresh
        epoch permutations as needed); the all-reduce stays a per-
        iteration barrier, so only *producer* work runs ahead."""
        s = self.session
        report = RunReport(iterations=iterations, trained_targets=[])
        rows: list[list[float]] = []
        depth = self._seed_depth(report)
        # Each chain thread enlists the session-scoped counter handle,
        # so kernel_stats counts only this run's dispatches even when
        # co-tenant sessions overlap in this process.
        chain = StageChain(s.pipeline, [t.kind for t in s.trainers],
                           depth, self.timeout_s,
                           context=lambda: scoped_counters(self.counters))
        # The dispatcher records each iteration's plan before putting
        # it into the chain; the consumer reads it once that
        # iteration's batches came out.
        planned_by_it: dict = {}

        def dispatch() -> None:
            for it, planned in s.work_source.iterate(iterations):
                planned_by_it[it] = planned
                for idx, targets in enumerate(planned.assignments):
                    if targets is not None:
                        report.trained_targets.append(targets)
                    chain.put(idx, it, targets)
            chain.close_input()

        counters_before = self.counters.snapshot()
        start = time.perf_counter()
        with chain:
            chain.start()
            chain.spawn(dispatch, "dispatcher")
            with scoped_counters(self.counters):
                for it in range(iterations):
                    depth = self._train_iteration(
                        it, chain, planned_by_it, report, rows, depth)

        report.wall_time_s = time.perf_counter() - start
        report.kernel_stats = self.counters.delta(counters_before)
        report.replicas_consistent = \
            s.synchronizer.replicas_consistent()
        report.stage_stats = chain.stage_stats()
        report.resolve_timeline(s, rows)
        return report

    # ------------------------------------------------------------------
    def _train_iteration(self, it: int, chain: StageChain,
                         planned_by_it: dict, report, rows,
                         depth: int) -> int:
        """Consume one iteration's prepared batches, train, synchronize,
        and (timing sessions) adapt the look-ahead. Returns the depth in
        effect after this iteration."""
        s = self.session
        stats_cpu = None
        stats_accel: list = []
        losses: list[float] = []
        accs: list[float] = []
        per_trainer: list[tuple[str, dict]] = []

        for idx, trainer in enumerate(s.trainers):
            item = chain.get(idx)
            if item is None:
                raise ProtocolError(
                    f"pipeline for trainer {idx} ended before "
                    f"iteration {it}")
            rit, prepared = item
            if rit != it:
                raise ProtocolError(
                    f"trainer {idx} received iteration {rit}, "
                    f"expected {it} (stage reordering)")
            st = prepared.mb.stats() if prepared is not None else None
            if trainer.kind == "cpu":
                stats_cpu = st
            elif trainer.kind == "accel":
                stats_accel.append(st)
            if prepared is None:
                trainer.model.zero_grad()
                per_trainer.append((trainer.kind, {}))
                continue
            t0 = time.perf_counter()
            rep = trainer.train_minibatch(prepared.mb, prepared.x0,
                                          prepared.labels, s.degrees)
            per_trainer.append((trainer.kind,
                                {**prepared.timings.stage_seconds(),
                                 "train": time.perf_counter() - t0}))
            report.total_edges += st.total_edges
            losses.append(rep.loss)
            accs.append(rep.accuracy)
            report.protocol_log.record(it, Signal.DONE, trainer.name)

        sizes = list(planned_by_it.pop(it).batch_sizes)
        if not any(sz > 0 for sz in sizes):
            raise ProtocolError(
                f"iteration {it} dispatched no work to any trainer")
        sync_start = time.perf_counter()
        s.reduce_and_step(sizes, it)
        sync_s = time.perf_counter() - sync_start
        report.protocol_log.record(it, Signal.SYNC, "synchronizer")
        report.protocol_log.record(it, Signal.ITER_START, "runtime")
        report.losses.append(float(np.mean(losses)))
        report.accuracies.append(float(np.mean(accs)))

        realized = fold_worker_realized(per_trainer, sync_s)
        self.monitor.observe_times(realized)
        if not s.has_timing:
            return depth
        times, row, split = s.timing_step(
            stats_cpu, stats_accel, it,
            estimator=self._timing_estimator(), realized=realized,
            calibrate=self._timing_calibrate(),
            overlapped=self.overlaps_transfer)
        rows.append(row)
        report.stage_history.append(times)
        report.split_history.append(split)
        return self._adapt_depth(it, times, depth, report, chain.resize)

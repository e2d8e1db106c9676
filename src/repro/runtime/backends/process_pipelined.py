"""The worker-sampling process plane: workers sample, gather, transfer
and train their own batches; the parent deals and synchronizes.

HyScale-GNN's process-level shape (paper §IV) is one shape: every
worker runs its own producer chain while the parent keeps the
all-reduce barrier and the DRM decisions. This module writes it once,
the DistDGL/PaGraph per-trainer pipeline recipe:

* the **parent** deals target-id shards of a work source through a
  :class:`LookaheadDealer` that keeps up to ``depth`` iterations in
  flight (dealt but not yet synchronized); ``depth`` is resized live
  by the same :func:`~repro.runtime.backends.pipelined.adaptive_depth`
  producer/consumer ratio logic the pipelined plane uses. The parent
  still adjudicates every DRM decision
  (:meth:`~repro.runtime.core.TrainingSession.timing_step` on the
  workers' realized batch statistics) and still runs the per-iteration
  all-reduce barrier — only *dealing* runs ahead;
* each **worker** maps the CSR topology, features and labels
  zero-copy from the :class:`~repro.runtime.shm.SharedFeatureStore`,
  rebuilds the session's sampler with its **own independent RNG
  stream** (:func:`repro.sampling.worker_stream_seed`), and overlaps
  its ``sample → gather → transfer`` chain with its ``train + sync``
  stage on a one-lane :class:`~repro.runtime.stage_chain.StageChain`
  — the chain the pipelined plane runs — over a worker
  :class:`~repro.runtime.stage_pipeline.StagePipeline`. Placement is
  the choice of pipeline: a shard-sliced store gets the sharded
  plane's local / remote-cache / remote resolver
  (:class:`~repro.runtime.backends.sharded.ShardStagePipeline`), any
  other store the flat row gather.

Three registered names are fixed points of this one plane:

* ``process_pipelined`` — :class:`ProcessPipelinedBackend` with its
  look-ahead knobs (``initial_depth`` / ``max_depth`` /
  ``depth_source`` / ``allocator``) over the session's
  :class:`~repro.runtime.core.BatchPlan`;
* ``process_sampling`` — depth pinned at 1 with
  ``depth_source="model"``: shard ``i + 1`` is dealt only after
  iteration ``i``'s all-reduce and DRM step, which is lock-step
  dealing (:mod:`.process_sampling`);
* ``sharded`` — ``process_sampling`` over a shard-sliced store with
  the partition-routed :class:`~repro.runtime.backends.sharded.ShardPlan`
  as its work source (:mod:`.sharded`).

**DRM lag.** Shards for the in-flight window are sliced with the
workload split current *at deal time*, so an Algorithm-1 adjustment
takes effect only once the window has drained past the shards already
dealt — the same one-window lag the pipelined plane's dispatcher
accepts. At depth 1 the lag is zero.

Per-worker RNG streams make bit-parity with the virtual reference
impossible by design, so every fixed point declares
``conformance_tier = "statistical"`` and passes the full tier — exact
iteration count, exact epoch coverage, the per-worker shard-partition
assertion (via the ``worker_targets`` echoes), DRM work conservation,
and loss/parameter closeness.
"""

from __future__ import annotations

import threading
import time
import traceback
from collections import deque
from typing import Iterator

import numpy as np

from ...errors import ProtocolError, WorkerError
from ..prefetch import PrefetchBuffer
from ..resctl import NodeAllocator
from ..stage_chain import CHAIN_STAGES, StageChain, fold_stage_stats
from ..stage_pipeline import StagePipeline
from .base import RunReport
from .pipelined import LookaheadControl
from .process_pool import (
    ProcessPoolBackend,
    _WorkerReplica,
    _WorkerSpec,
    _run_worker,
)
from .options import ProcessOverlapOptions


# ---------------------------------------------------------------------------
# The bounded look-ahead window (pure — hypothesis-testable)
# ---------------------------------------------------------------------------

class LookaheadDealer:
    """A bounded look-ahead window over a plan iterator.

    Pure sequencing logic, extracted from the parent's drive loop so
    the look-ahead invariants are directly property-testable without
    live workers:

    * :meth:`refill` deals planned iterations until the window holds
      ``depth`` in-flight entries (or the plan is dry) and returns the
      newly dealt ones, in plan order;
    * :meth:`retire` pops the oldest in-flight iteration — the one the
      caller synchronizes next;
    * :meth:`set_depth` resizes the window live (the adaptive policy);
      shrinking never revokes shards already dealt, it only throttles
      future refills — exactly like
      :meth:`~repro.runtime.prefetch.PrefetchBuffer.resize`.

    Because dealing only ever *advances* the plan iterator, the
    concatenation of dealt shards is the plan's own sequence — look-
    ahead changes *when* shards are dealt, never *which* or in what
    order, so epoch coverage stays a plan property (the hypothesis
    suite pins this).
    """

    def __init__(self, plan_iter: Iterator, depth: int) -> None:
        if depth < 1:
            raise ProtocolError("look-ahead depth must be >= 1")
        self._plan_iter = plan_iter
        self._depth = depth
        self._window: deque = deque()
        self._dry = False
        #: Max in-flight count ever observed (the bounded-queue audit).
        self.high_water = 0

    @property
    def depth(self) -> int:
        return self._depth

    @property
    def in_flight(self) -> int:
        return len(self._window)

    def set_depth(self, depth: int) -> None:
        if depth < 1:
            raise ProtocolError("look-ahead depth must be >= 1")
        self._depth = depth

    def refill(self) -> list:
        """Deal up to the window bound; returns the newly dealt
        ``(iteration, planned)`` pairs in plan order."""
        dealt = []
        while not self._dry and len(self._window) < self._depth:
            nxt = next(self._plan_iter, None)
            if nxt is None:
                self._dry = True
                break
            self._window.append(nxt)
            dealt.append(nxt)
        self.high_water = max(self.high_water, len(self._window))
        return dealt

    def retire(self):
        """Pop the oldest in-flight iteration, or ``None`` when both
        the window and the plan are exhausted."""
        if not self._window:
            return None
        return self._window.popleft()


# ---------------------------------------------------------------------------
# Worker process: receive-routing + a one-lane stage chain
# ---------------------------------------------------------------------------

def _serve_overlapped(conn, replica, spec: _WorkerSpec) -> None:
    """The worker message loop: route + overlap.

    The main thread is the **receive router**: it drains the pipe and
    routes ``train`` shards into a one-lane
    :class:`~repro.runtime.stage_chain.StageChain` over the worker's
    :class:`~repro.runtime.stage_pipeline.StagePipeline` (private,
    independently-seeded sampler; shared-memory features and labels),
    and ``apply`` updates into the apply queue — it never blocks on
    pipeline work, so the parent's dealt-ahead messages and the
    averaged-gradient broadcasts always keep flowing. The chain's
    sample → gather → transfer threads run ahead of the **train+sync**
    consumer, which takes prepared batches in iteration order, trains,
    sends the result, then *waits for that iteration's averaged
    update* before stepping — gradient math stays synchronous SGD while
    the producer stages run ahead. Each result carries its batch's
    interconnect record (empty on a flat store).
    """
    from ...kernels import COUNTERS

    pf = replica.prefetch
    timeout = pf.timeout_s
    chain = StageChain(replica.pipeline, [spec.kind], pf.capacity,
                       timeout)
    # Applies match dealt items 1:1 (idle iterations are dealt as
    # pass-through shards), but the just-retired iteration's apply
    # can arrive while the window behind it is still fully dealt —
    # hence window capacity + 1 headroom.
    q_apply = PrefetchBuffer(pf.capacity + 1)
    send_lock = threading.Lock()

    def safe_send(msg) -> None:
        with send_lock:
            conn.send(msg)

    def train_consumer() -> None:
        try:
            while True:
                item = chain.get(0)
                if item is None:
                    return
                it, prepared = item
                if prepared is not None:
                    mb = prepared.mb
                    t0 = time.perf_counter()
                    rep = replica.node.train_minibatch(
                        mb, prepared.x0, prepared.labels,
                        replica.degrees)
                    stage_s = {**prepared.timings.stage_seconds(),
                               "train": time.perf_counter() - t0}
                    for stage, seconds in stage_s.items():
                        replica.note_stage(stage, seconds)
                    safe_send(("result", it, rep.loss, rep.accuracy,
                               mb.stats(), np.asarray(mb.targets),
                               replica.model.get_flat_grads(),
                               stage_s, prepared.io))
                # The per-iteration barrier: wait for this iteration's
                # averaged gradients (idle iterations included), then
                # mirror the parent's SGD step — replicas stay
                # bit-equal while the producer stages run ahead.
                a = q_apply.get(timeout=timeout)
                if a is None:
                    return
                ait, avg = a
                if ait != it:
                    raise ProtocolError(
                        f"worker {spec.index} received apply for "
                        f"iteration {ait}, expected {it}")
                replica.model.set_flat_grads(avg)
                replica.opt.step()
        except BaseException:
            # A stage failure reaches here too, re-raised by the chain.
            try:
                safe_send(("error", traceback.format_exc()))
            except Exception:
                pass
            q_apply.close()
            raise

    # Delta baseline for ``kstats`` replies: under fork the worker's
    # COUNTERS inherits the parent's pre-spawn totals (see ``_serve``).
    counters_baseline = COUNTERS.snapshot()
    conn.send(("ready", spec.index))
    with chain:
        chain.start()
        chain.spawn(train_consumer, f"train{spec.index}")
        try:
            while True:
                msg = conn.recv()
                tag = msg[0]
                if tag == "train":
                    chain.put(0, msg[1], msg[2])
                elif tag == "apply":
                    q_apply.put((msg[1], msg[2]), timeout=timeout)
                elif tag == "init":
                    # Arrives before any shard is dealt; no work is in
                    # flight, so the replica is safe to overwrite.
                    replica.model.set_flat_params(msg[1])
                elif tag == "end":
                    chain.close_input()
                # The post-stream replies first join the chain (the
                # parent's ``end`` already closed its input), so they
                # never race a chain thread.
                elif tag == "stats":
                    chain.join()
                    safe_send(("stats", chain.accounting()))
                elif tag == "params":
                    chain.join()
                    safe_send(("params",
                               replica.model.get_flat_params()))
                elif tag == "kstats":
                    chain.join()
                    safe_send(("kstats",
                               COUNTERS.delta(counters_baseline)))
                elif tag == "wstats":
                    chain.join()
                    safe_send(("wstats", replica.wstats()))
                elif tag == "stop":
                    return
                else:
                    raise ProtocolError(f"unknown message tag {tag!r}")
        finally:
            q_apply.close()


def _setup_overlapped(store, spec: _WorkerSpec):
    """Build the replica plus its private sampler and stage pipeline:
    the sharded resolver on a shard-sliced store, the flat row gather
    otherwise."""
    from ...sampling import build_worker_sampler

    replica = _WorkerReplica(store, spec)
    replica.prefetch = store.manifest.prefetch
    if replica.prefetch is None:
        raise ProtocolError(
            "shared store carries no prefetch spec: worker-sampling "
            "workers need their stage-buffer capacity from the "
            "manifest")
    # Private, independently-seeded sampler over the shared topology.
    sampler = build_worker_sampler(store, spec.index)
    if store.is_sharded:
        from .sharded import ShardStagePipeline
        replica.pipeline = ShardStagePipeline(
            sampler, store, spec.index, spec.transfer_precision)
    else:
        replica.pipeline = StagePipeline(
            sampler, replica.features, replica.labels,
            spec.transfer_precision)
    return replica


def _worker_main(conn, manifest, spec: _WorkerSpec) -> None:
    """One worker-sampling trainer replica (module-level: picklable
    under ``spawn``)."""
    _run_worker(conn, manifest, spec, _setup_overlapped,
                _serve_overlapped)


# ---------------------------------------------------------------------------
# Parent-side backend
# ---------------------------------------------------------------------------

class ProcessPipelinedBackend(LookaheadControl, ProcessPoolBackend):
    """Worker processes that sample their own mini-batches and overlap
    the producer chain with training.

    Parameters
    ----------
    session:
        The shared runtime core. Timing-plane sessions drive the
        adaptive look-ahead from modelled stage times; functional-only
        sessions deal at a fixed depth.
    timeout_s / mp_context:
        As :class:`~repro.runtime.backends.process_pool.ProcessPoolBackend`.
    initial_depth / max_depth / depth_source / allocator:
        The look-ahead knobs (see
        :class:`~repro.runtime.backends.pipelined.LookaheadControl`);
        the dealer starts at the first window's depth. ``max_depth``
        also sizes each worker's stage buffers (via the manifest's
        :class:`~repro.runtime.shm.SharedPrefetchSpec`), so a worker's
        receive loop can always enqueue a dealt shard without blocking
        the pipe.
    """

    name = "process_pipelined"
    options_cls = ProcessOverlapOptions
    conformance_tier = "statistical"

    def __init__(self, session, timeout_s: float = 120.0,
                 mp_context: str | None = None,
                 initial_depth: int | None = None,
                 max_depth: int | None = None,
                 depth_source: str | None = None,
                 allocator: NodeAllocator | None = None) -> None:
        super().__init__(session, timeout_s=timeout_s,
                         mp_context=mp_context)
        self._init_lookahead(initial_depth, max_depth, depth_source,
                             allocator)

    @property
    def overlaps_transfer(self) -> bool:
        """Only a window deeper than one keeps a dealt batch in flight
        across the sync barrier. At depth 1 iteration ``i + 1`` is
        dealt after iteration ``i``'s all-reduce, so a transfer never
        shares the PCIe link with a gradient pull and the duplex
        derate must not be priced."""
        return self.max_depth > 1

    def _run_granted(self, iterations: int):
        return ProcessPoolBackend.run(self, iterations)

    # -- subclass hooks ------------------------------------------------
    def _worker_entry(self):
        return _worker_main

    def _work_source(self):
        """What the dealer drains: the session's plan."""
        return self.session.work_source

    def _create_store(self, **layout):
        """The shared store plus the sampler and prefetch specs every
        worker needs; ``layout`` passes a shard layout through."""
        from ..shm import SharedFeatureStore, SharedPrefetchSpec
        return SharedFeatureStore.create(
            self.session.dataset,
            sampler_spec=self.session.shared_sampler_spec(),
            prefetch_spec=SharedPrefetchSpec(
                capacity=self.max_depth, timeout_s=self.timeout_s),
            **layout)

    def _make_report(self, iterations: int, n: int) -> RunReport:
        """Riders: the dealt slices and each worker's echoed
        targets."""
        return RunReport(iterations=iterations, num_workers=n,
                         trained_targets=[],
                         worker_targets=[[] for _ in range(n)])

    # ------------------------------------------------------------------
    def _drive(self, iterations: int, conns, report, rows) -> None:
        """The look-ahead dealing loop.

        Deal shards for up to ``depth`` iterations ahead through the
        per-worker pipes, then retire the oldest in-flight iteration:
        collect its results, run the shared sync tail (all-reduce,
        broadcast, optimizer steps, timing/DRM — unchanged semantics),
        and let the modelled stage times resize the window.
        """
        s = self.session
        n = s.num_trainers
        dealer = LookaheadDealer(self._work_source().iterate(iterations),
                                 self._seed_depth(report))

        def deal(pairs) -> None:
            for it, planned in pairs:
                report.dealt_sizes.append(planned.batch_sizes)
                for idx in range(n):
                    targets = planned.assignments[idx]
                    if targets is not None:
                        report.trained_targets.append(targets)
                    # Idle iterations are dealt too (targets=None) so
                    # every worker's pipeline carries one item per
                    # iteration and applies stay strictly in order.
                    self._send(conns, idx, ("train", it, targets))

        deal(dealer.refill())
        while True:
            entry = dealer.retire()
            if entry is None:
                break
            report.lookahead_history.append(
                (dealer.in_flight + 1, dealer.depth))
            it, planned = entry
            stats_by_idx: dict[int, object] = {}
            losses: list[float] = []
            accs: list[float] = []
            busy = [idx for idx in range(n)
                    if planned.assignments[idx] is not None]
            stage_s = self._collect(it, busy, conns, report,
                                    stats_by_idx, losses, accs)
            for idx in range(n):
                if planned.assignments[idx] is None:
                    # Idle replica: zero gradients, weight zero in the
                    # all-reduce. Done at sync time (not deal time) so
                    # a look-ahead deal can never clobber gradients of
                    # an earlier, not-yet-reduced iteration.
                    s.trainers[idx].model.zero_grad()
            times = self._sync_tail(it, planned, conns, report, rows,
                                    stats_by_idx, losses, accs, stage_s)
            self._adapt_depth(it, times, dealer.depth, report,
                              dealer.set_depth)
            deal(dealer.refill())

    def _collect(self, it: int, busy, conns, report, stats_by_idx,
                 losses, accs) -> dict[int, dict]:
        """Gather one iteration's results into the parent mirrors.

        Records each worker's realized batch statistics (the DRM
        inputs), its echoed target ids (the coverage evidence — what
        the worker trained, not what the parent dealt) and, on a
        shard-sliced store, its interconnect record. Returns the raw
        stage seconds each result carried, by worker index."""
        from ..protocol import Signal

        s = self.session
        stage_by_idx: dict[int, dict] = {}
        for idx in busy:
            msg = self._recv(conns, idx)
            tag, rit, loss, acc, st, echoed, grads, stage_s, io = msg
            if tag != "result" or rit != it:
                raise WorkerError(
                    f"worker {idx} answered {tag!r} for iteration "
                    f"{rit}, expected result for {it}")
            s.trainers[idx].model.set_flat_grads(grads)
            stats_by_idx[idx] = st
            stage_by_idx[idx] = stage_s
            report.total_edges += st.total_edges
            report.worker_targets[idx].append(echoed)
            if io:
                # Only a shard-sliced store bills an interconnect.
                report.shard_io.append(
                    {"iteration": it, "worker": idx, **io})
            losses.append(loss)
            accs.append(acc)
            report.protocol_log.record(it, Signal.DONE,
                                       s.trainers[idx].name)
        return stage_by_idx

    def _finalize(self, conns, report) -> None:
        """Close every worker's stream (``end``) and fold their stage
        accounting into the overlap report. Runs after ``wall_time_s``
        is stamped (the :meth:`run` scaffolding), so the drain and the
        per-worker stats round trips never inflate the measured
        training time the wall-clock benches compare across backends."""
        for idx in range(len(conns)):
            self._send(conns, idx, ("end",))
        self._collect_stage_stats(conns, report)
        # Chain the base hook: one more round trip per worker to fold
        # the kernel-traffic counters into ``report.kernel_stats`` (the
        # stage threads have drained by now, so the snapshots are
        # final).
        super()._finalize(conns, report)

    def _collect_stage_stats(self, conns, report) -> None:
        """Fold every worker's chain accounting into the per-stage
        overlap report (an empty pool folds to zeroed records)."""
        per_stage: dict[str, list] = {stage: [] for stage in CHAIN_STAGES}
        for idx in range(len(conns)):
            self._send(conns, idx, ("stats",))
            tag, payload = self._recv(conns, idx)
            if tag != "stats":
                raise WorkerError(
                    f"worker {idx} answered {tag!r} to a stats "
                    "request")
            for stage, rows in payload.items():
                per_stage[stage].extend(rows)
        report.stage_stats = {stage: fold_stage_stats(stage, rows)
                              for stage, rows in per_stage.items()}

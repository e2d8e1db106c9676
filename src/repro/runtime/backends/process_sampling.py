"""Worker-side-sampling process backend (the last lock-step stage made
parallel).

:class:`~repro.runtime.backends.process_pool.ProcessPoolBackend` freed
trainer forward/backward from the GIL, but still samples every
mini-batch in the parent: the sample stage — the stage HyScale-GNN
dedicates most CPU cores to (paper §III-A, Table-I thread split) —
remains serialized exactly where the paper parallelizes it. This
backend pushes neighbor sampling into the workers, the recipe of
DistDGL (Zheng et al., "Distributed Hybrid CPU and GPU Training for
GNNs on Billion-Scale Graphs") and HitGNN:

* the **parent** deals only *target-id shards*: it drives the shared
  :class:`~repro.runtime.core.BatchPlan` exactly as every other
  backend does (one permutation per epoch, per-trainer quota slices in
  trainer order — epoch coverage stays a plan property, so it stays
  **exact**), ships each worker its slice (a few KB of int64 ids
  instead of a whole sampled computational graph), runs the all-reduce
  over returned gradients, and — crucially — still adjudicates every
  DRM offload decision: :meth:`~repro.runtime.core.TrainingSession.timing_step`
  runs in the parent on the workers' realized batch statistics, so the
  engine's split trajectory stays well-defined and lock-step;
* each **worker** maps the CSR topology zero-copy from the
  :class:`~repro.runtime.shm.SharedFeatureStore` (whose manifest now
  carries the :class:`~repro.runtime.shm.SharedSamplerSpec`), rebuilds
  the session's sampler family locally with its **own independent RNG
  stream** (:func:`repro.sampling.worker_stream_seed` —
  ``SeedSequence``-derived, so worker ``k``'s draws never depend on
  how many workers run), and executes the full producer chain
  ``sample → gather → transfer`` plus forward/backward before
  returning ``(loss, accuracy, stats, flat gradients)``.

Wire traffic per iteration drops from one pickled computational graph
per trainer to one target-id slice down and one
:class:`~repro.sampling.base.MiniBatchStats` + echoed target ids +
flat gradient up.

Because neighbor draws come from per-worker streams rather than the
parent's single stream, bit-parity with the virtual reference is
impossible *by design* — this backend declares
``conformance_tier = "statistical"``, the tier PR 3 built for exactly
this: the kit asserts exact iteration count, exact epoch coverage,
per-worker shard disjointness (via :attr:`ProcessSamplingReport.worker_targets`),
DRM work conservation and loss/parameter closeness. Iterations remain
a synchronized barrier (unlike the pipelined plane there is no
look-ahead), so the DRM engine still observes iteration ``i`` before
``i + 1``'s quotas are read. The fused plane
(:mod:`.process_pipelined`) lifts exactly that restriction: it
subclasses this backend and adds bounded look-ahead dealing plus
worker-local stage overlap. The backend-author contract both planes
follow is documented in ``docs/backends.md``.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from ...errors import WorkerError
from ..resctl import fold_worker_realized
from .process_pool import (
    ProcessPoolBackend,
    ProcessReport,
    _WorkerReplica,
    _WorkerSpec,
    _run_worker,
    _serve,
)


@dataclass
class ProcessSamplingReport(ProcessReport):
    """A :class:`ProcessReport` plus the coverage evidence worker-side
    sampling owes the statistical conformance tier.

    ``trained_targets`` is the per-dispatch list of target-id slices in
    dispatch order (what the tier's epoch-coverage assertion consumes,
    same field the pipelined report exposes). ``worker_targets[k]`` is
    worker ``k``'s list of **echoed** target ids — the ``V^L`` of the
    batches it actually sampled and trained, reported back over the
    pipe, *not* a copy of the parent's dispatch bookkeeping — so the
    kit's partition assertion (union equals the dispatched target set,
    no target trained by two workers) genuinely audits worker
    behavior.
    """

    trained_targets: list[np.ndarray] = field(default_factory=list)
    worker_targets: list[list[np.ndarray]] = field(default_factory=list)


def _train_sharded_targets(replica: _WorkerReplica, spec: _WorkerSpec,
                           msg):
    """Handle a target-id shard: sample locally, then train.

    ``replica.sampler`` is this worker's private sampler over the
    shared CSR — the whole point of the backend: the sample stage runs
    here, on the worker's core, in parallel with every other worker's.
    The reply echoes the batch's realized target ids (``V^L`` of the
    locally sampled graph) so the parent records what the worker
    *actually trained*, not what it was asked to — the conformance
    kit's per-worker coverage assertion keys off this echo.
    """
    _, it, targets = msg
    t0 = time.perf_counter()
    mb = replica.sampler.sample(targets)
    replica.note_stage("sample", time.perf_counter() - t0)
    rep = replica.train(spec, mb)
    # The per-batch stage snapshot (sample here, load/train inside
    # `replica.train`) rides along with the result so the parent can
    # fold one realized StageTimes per iteration for its monitor.
    return ("result", it, rep.loss, rep.accuracy, mb.stats(),
            np.asarray(mb.targets), replica.model.get_flat_grads(),
            dict(replica.last_stage_s))


def _setup_worker_sampling(store, spec: _WorkerSpec):
    from ...sampling import build_worker_sampler
    replica = _WorkerReplica(store, spec)
    # Private, independently-seeded sampler over the shared topology.
    replica.sampler = build_worker_sampler(store, spec.index)
    return replica


def _worker_main(conn, manifest, spec: _WorkerSpec) -> None:
    """One sampling trainer replica (module-level: picklable under
    ``spawn``)."""
    _run_worker(conn, manifest, spec, _setup_worker_sampling,
                functools.partial(_serve,
                                  handle_train=_train_sharded_targets))


class ProcessSamplingBackend(ProcessPoolBackend):
    """Worker processes that sample their own mini-batches.

    Same construction surface as :class:`ProcessPoolBackend`
    (``timeout_s`` watchdog, ``mp_context`` start method); differs only
    in execution strategy: the parent deals :class:`BatchPlan` shards
    and adjudicates DRM, the workers run sample → gather → transfer →
    train locally. Declares the ``statistical`` conformance tier
    (per-worker RNG streams preclude bit-parity by design).
    """

    name = "process_sampling"
    conformance_tier = "statistical"

    #: Lock-step dealing: a worker's transfer for iteration ``i + 1``
    #: cannot start until the parent has dealt it, which only happens
    #: after iteration ``i``'s gradients were pulled — transfers and
    #: gradient pulls never share the PCIe link in flight, so the
    #: duplex-contention derate must not be priced into this plane's
    #: rows. (The fused subclass keeps batches in flight across the
    #: sync barrier and turns this back on.)
    overlaps_transfer = False

    # -- subclass hooks ------------------------------------------------
    def _worker_entry(self):
        return _worker_main

    def _create_store(self):
        from ..shm import SharedFeatureStore
        return SharedFeatureStore.create(
            self.session.dataset,
            sampler_spec=self.session.shared_sampler_spec())

    def _make_report(self, iterations: int,
                     n: int) -> ProcessSamplingReport:
        return ProcessSamplingReport(iterations=iterations,
                                     num_workers=n,
                                     worker_targets=[[] for _ in
                                                     range(n)])

    # ------------------------------------------------------------------
    def _dispatch(self, it: int, planned, conns, report,
                  stats_by_idx) -> list[int]:
        """Deal target-id shards — no sampling here: everything
        stochastic about *planning* stays in the parent, everything
        stochastic about *sampling* moves to the workers."""
        s = self.session
        busy: list[int] = []
        for idx, trainer in enumerate(s.trainers):
            targets = planned.assignments[idx]
            if targets is None:
                # Idle replica: zero gradients, weight zero in the
                # all-reduce (parent mirrors; worker just applies the
                # averaged update when it arrives).
                trainer.model.zero_grad()
                continue
            report.trained_targets.append(targets)
            self._send(conns, idx, ("train", it, targets))
            busy.append(idx)
        return busy

    def _collect(self, it: int, busy, conns, report, stats_by_idx,
                 losses, accs) -> None:
        """Gather results plus each worker's realized batch statistics
        (the DRM inputs) and its echoed target ids (the coverage
        evidence — recorded from what the worker trained, not from
        what the parent dispatched, so the conformance kit's partition
        assertion actually audits worker behavior)."""
        from ..protocol import Signal

        s = self.session
        self._iter_stage_s: dict[int, dict] = {}
        for idx in busy:
            msg = self._recv(conns, idx)
            tag, rit, loss, acc, st, echoed, grads, stage_s = msg
            if tag != "result" or rit != it:
                raise WorkerError(
                    f"worker {idx} answered {tag!r} for iteration "
                    f"{rit}, expected result for {it}")
            s.trainers[idx].model.set_flat_grads(grads)
            stats_by_idx[idx] = st
            self._iter_stage_s[idx] = stage_s
            report.total_edges += st.total_edges
            report.worker_targets[idx].append(echoed)
            losses.append(loss)
            accs.append(acc)
            report.protocol_log.record(it, Signal.DONE,
                                       s.trainers[idx].name)

    def _realized_stage_times(self, sync_s: float):
        """Fold the iteration's per-worker stage snapshots (shipped
        with each result) plus the parent-measured all-reduce into one
        canonical realized stage map."""
        stage_s = getattr(self, "_iter_stage_s", None)
        if not stage_s:
            return None
        per_trainer = [(trainer.kind, stage_s.get(idx, {}))
                       for idx, trainer in
                       enumerate(self.session.trainers)]
        return fold_worker_realized(per_trainer, sync_s)

"""Multi-process execution backend (GIL-free trainer replicas).

The threaded backend realizes the paper's Listing-1 protocol but every
NumPy forward/backward still serializes behind the GIL, so trainer
concurrency never turns into wall-clock speedup. This backend runs each
GNN Trainer in a :mod:`multiprocessing` worker process instead —
the DistDGL-style recipe: process-level parallel trainers over a shared
feature store — while keeping results loss-for-loss **bit-identical** to
the virtual-time plane.

Division of labor per iteration:

* the **parent** owns the session and drives the exact virtual-plane
  order: it slices per-trainer targets off the shared
  :class:`~repro.runtime.core.BatchPlan`, samples every mini-batch
  through ``session.sampler`` (all stochastic draws — epoch
  permutations, neighbor sampling — stay in the parent's single RNG
  stream, which is what makes the trajectory reproducible across every
  backend), ships each worker its batch as compact pickled index arrays,
  runs the :class:`~repro.runtime.synchronizer.GradientSynchronizer`
  all-reduce over the returned gradients, records modelled stage times,
  and applies the DRM adjustment;
* each **worker** holds one model replica, synced once at startup to
  the parent's current parameters (so a session that already trained —
  under any backend — resumes bit-identically), gathers its batch's
  features zero-copy from the
  :class:`~repro.runtime.shm.SharedFeatureStore`,
  applies the transfer-quantization policy for accelerator replicas,
  runs forward/backward, and returns ``(loss, accuracy, gradients)``;
  after the all-reduce it receives the averaged gradient and steps its
  local SGD — the same in-place update the parent applies to its mirror
  replicas, keeping all copies bit-equal without pickling parameters
  during steady state (parameters cross the pipe exactly twice per
  worker per run: the startup sync down, the parity audit up).

Only mini-batches (int64 index arrays) and gradients (one flat float64
vector each way) cross process boundaries; features never do.

``tests/integration/backend_conformance.py`` holds this backend to the
full parity matrix against the virtual reference, including hybrid +
DRM + int8 transfer; the shared-memory segment is torn down in a
``finally`` so no segment survives a run (clean or failed).

The spawn / handshake / parity-audit / teardown scaffolding here, the
worker replica and :meth:`ProcessPoolBackend._sync_tail` serve one other
plane: the worker-sampling plane (:mod:`.process_pipelined`), whose
three named fixed points — ``process_pipelined``, ``process_sampling``
and ``sharded`` — replace only the dealing loop and the worker's serve
loop.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
from dataclasses import dataclass

import numpy as np

from ...errors import ProtocolError, StageTimeoutError, WorkerError
from ..protocol import Signal
from ..resctl import fold_worker_realized, map_worker_totals
from .base import ExecutionBackend, RunReport
from .options import ProcessOptions


@dataclass(frozen=True)
class _WorkerSpec:
    """Everything a worker needs to rebuild its trainer (picklable)."""

    index: int
    name: str
    kind: str                  # "cpu" | "accel"
    model_name: str
    dims: tuple[int, ...]
    seed: int
    learning_rate: float
    transfer_precision: str


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------

def _rebuild_minibatch(node_ids, blocks_raw, feature_dim):
    """Re-materialize a MiniBatch from its wire form (validates)."""
    from ...sampling.base import LayerBlock, MiniBatch
    blocks = tuple(LayerBlock(src_local=src, dst_local=dst,
                              num_src=int(ns), num_dst=int(nd))
                   for src, dst, ns, nd in blocks_raw)
    return MiniBatch(node_ids=tuple(node_ids), blocks=blocks,
                     feature_dim=int(feature_dim))


class _WorkerReplica:
    """One worker's in-process state: the store mapping plus its model
    replica, trainer node and optimizer (built inside the worker, never
    pickled)."""

    def __init__(self, store, spec: _WorkerSpec) -> None:
        from ...kernels import BufferPool
        from ...nn.models import build_model
        from ...nn.optim import SGD
        from ..trainer import TrainerNode

        self.store = store
        self.features = store.features
        self.labels = store.labels
        self.degrees = store.degrees     # private copy, outlives views
        self.model = build_model(spec.model_name, spec.dims, spec.seed)
        self.node = TrainerNode(spec.name, spec.kind, self.model, None,
                                spec.dims, spec.model_name)
        self.opt = SGD(self.model, lr=spec.learning_rate)
        self.pipeline = None   # set by the worker-sampling plane
        # Lock-step workers train each batch to completion before
        # gathering the next, so the x0 buffer can be pooled: after
        # the first few iterations the gather/quantize hot path
        # allocates nothing. The worker-sampling plane's stage chain
        # keeps batches in flight and never passes a pool (see
        # docs/kernels.md).
        self.pool = BufferPool()
        # Realized stage accounting: cumulative (count, total seconds)
        # per raw stage name for the ``wstats`` pipe reply.
        self.stage_totals: dict[str, list] = {}

    def note_stage(self, stage: str, seconds: float) -> None:
        """Accumulate one realized stage duration (wstats)."""
        entry = self.stage_totals.setdefault(stage, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds

    def wstats(self) -> dict[str, tuple[int, float]]:
        """The cumulative ``{raw_stage: (count, total_s)}`` payload."""
        return {stage: (int(c), float(t))
                for stage, (c, t) in self.stage_totals.items()}

    def train(self, spec: _WorkerSpec, mb):
        """The session's exact feature path (gather, float64 widen,
        accel quantization — fused on the fast kernel tier) against the
        shared store, then one forward/backward."""
        from ..core import gather_batch_features
        t0 = time.perf_counter()
        x0 = gather_batch_features(self.features, mb, spec.kind,
                                   spec.transfer_precision,
                                   pool=self.pool)
        self.note_stage("load", time.perf_counter() - t0)
        t0 = time.perf_counter()
        rep = self.node.train_minibatch(mb, x0,
                                        self.labels[mb.targets],
                                        self.degrees)
        self.note_stage("train", time.perf_counter() - t0)
        return rep

    def release_views(self) -> None:
        """Drop shm-backed views before unmapping, else ``close()``
        raises BufferError on the exported buffers. Clears the
        worker-side stage pipeline too (it and its sampler view the
        segment)."""
        self.features = self.labels = None
        self.pipeline = None


def _serve(conn, replica: _WorkerReplica, spec: _WorkerSpec) -> None:
    """The lock-step worker message loop.

    A ``"train"`` message carries a parent-sampled batch in wire form:
    rebuild it, train, reply with loss, accuracy and gradients. The
    rest is the ready handshake, the parameter init/audit, and the
    synchronized ``apply`` + local SGD step that keeps the replica
    bit-equal to the parent mirror. Runs until ``("stop",)`` or EOF.

    ``kstats`` replies are deltas from a baseline taken here: under
    the fork start method the worker's :data:`~repro.kernels.COUNTERS`
    inherits whatever the *parent* accumulated before spawning, which
    must not be re-reported as worker traffic.
    """
    from ...kernels import COUNTERS
    counters_baseline = COUNTERS.snapshot()
    conn.send(("ready", spec.index))
    while True:
        msg = conn.recv()
        tag = msg[0]
        if tag == "train":
            _, it, node_ids, blocks_raw, feature_dim = msg
            mb = _rebuild_minibatch(node_ids, blocks_raw, feature_dim)
            rep = replica.train(spec, mb)
            conn.send(("result", it, rep.loss, rep.accuracy,
                       replica.model.get_flat_grads()))
        elif tag == "apply":
            _, _, avg = msg
            replica.model.set_flat_grads(avg)
            replica.opt.step()
        elif tag == "init":
            replica.model.set_flat_params(msg[1])
        elif tag == "params":
            conn.send(("params", replica.model.get_flat_params()))
        elif tag == "kstats":
            conn.send(("kstats", COUNTERS.delta(counters_baseline)))
        elif tag == "wstats":
            conn.send(("wstats", replica.wstats()))
        elif tag == "stop":
            return
        else:
            raise ProtocolError(f"unknown message tag {tag!r}")


def _run_worker(conn, manifest, spec: _WorkerSpec, setup,
                serve) -> None:
    """Worker-process scaffolding: attach the store, build the replica
    with ``setup(store, spec)``, run the message loop
    ``serve(conn, replica, spec)``, and tear down (close-never-unlink)
    no matter how the loop ends.

    The lock-step ``process`` plane serves with :func:`_serve`; the
    worker-sampling plane swaps in its overlapped loop —
    receive-routing plus a stage chain — while inheriting the
    attach/teardown scaffolding here.
    """
    store = None
    replica = None
    try:
        from ..shm import SharedFeatureStore

        store = SharedFeatureStore.attach(manifest)
        replica = setup(store, spec)
        serve(conn, replica, spec)
    except EOFError:
        pass                              # parent went away: just exit
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        if store is not None:
            if replica is not None:
                replica.release_views()
            try:
                store.close()             # never unlink: parent owns it
            except Exception:
                pass
        conn.close()


def _worker_main(conn, manifest, spec: _WorkerSpec) -> None:
    """One trainer replica: map the store, train on request, mirror the
    synchronized update. Runs until ``("stop",)`` or pipe EOF."""
    _run_worker(conn, manifest, spec, _WorkerReplica, _serve)


# ---------------------------------------------------------------------------
# Parent-side backend
# ---------------------------------------------------------------------------

class ProcessPoolBackend(ExecutionBackend):
    """Run synchronous-SGD training on worker *processes*.

    Parameters
    ----------
    session:
        The shared runtime core; one worker process is spawned per
        trainer replica (hybrid platform sessions: CPU + one per
        accelerator).
    timeout_s:
        Watchdog on every cross-process wait — a dead or wedged worker
        fails the run fast instead of hanging the suite.
    mp_context:
        ``multiprocessing`` start method (``"fork"`` where available —
        workers inherit the imported library for near-instant startup —
        else ``"spawn"``). Pass explicitly to override.
    """

    name = "process"
    options_cls = ProcessOptions

    def __init__(self, session, timeout_s: float = 120.0,
                 mp_context: str | None = None) -> None:
        super().__init__(session)
        if timeout_s <= 0:
            raise ProtocolError("timeout_s must be positive")
        if mp_context is None:
            methods = mp.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else "spawn"
        self.timeout_s = timeout_s
        self.mp_context = mp_context

    # ------------------------------------------------------------------
    def run(self, iterations: int) -> RunReport:
        """Execute ``iterations`` synchronized iterations.

        Workers and the shared-memory store live exactly as long as this
        call: both are torn down in a ``finally`` (terminate + unlink),
        so neither processes nor segments can leak past a run.
        """
        if iterations < 1:
            raise ProtocolError("iterations must be >= 1")
        s = self.session
        n = s.num_trainers
        report = self._make_report(iterations, n)
        rows: list[list[float]] = []

        setup_start = time.perf_counter()
        # Resolve the context before creating the segment: an invalid
        # start method must not leak a dataset-sized /dev/shm block.
        ctx = mp.get_context(self.mp_context)
        store = self._create_store()
        worker_entry = self._worker_entry()
        conns = []
        procs = []
        try:
            for idx, trainer in enumerate(s.trainers):
                spec = _WorkerSpec(
                    index=idx, name=trainer.name, kind=trainer.kind,
                    model_name=trainer.model_name, dims=trainer.dims,
                    seed=s.train_cfg.seed,
                    learning_rate=s.train_cfg.learning_rate,
                    transfer_precision=s.sys_cfg.transfer_precision)
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=worker_entry,
                    args=(child_conn, store.manifest, spec),
                    name=f"repro-{trainer.name}", daemon=True)
                proc.start()
                child_conn.close()        # parent keeps its end only
                conns.append(parent_conn)
                procs.append(proc)

            # Wait for every worker to finish mapping the store and
            # building its replica, then sync each to the parent's
            # *current* parameters — a session that already trained
            # (under any backend) resumes bit-identically instead of
            # silently restarting workers from the init seed. Only then
            # start the training clock: wall_time_s measures the
            # synchronized loop, not spawn or the one-time broadcast.
            for idx in range(n):
                tag, widx = self._recv(conns, idx)
                if tag != "ready" or widx != idx:
                    raise WorkerError(
                        f"worker {idx} sent {tag!r}/{widx} instead of "
                        "its ready handshake")
                self._send(conns, idx,
                           ("init",
                            s.trainers[idx].model.get_flat_params()))
            report.startup_time_s = time.perf_counter() - setup_start
            start = time.perf_counter()

            self._drive(iterations, conns, report, rows)
            report.wall_time_s = time.perf_counter() - start

            self._finalize(conns, report)
            report.replicas_consistent = self._check_parity(conns)
        finally:
            self._shutdown(conns, procs, store)
        report.resolve_timeline(s, rows)
        return report

    # ------------------------------------------------------------------
    # Subclass hooks (the worker-sampling plane swaps these three plus
    # :meth:`_drive`, inheriting spawn / handshake / shutdown / parity
    # intact).
    # ------------------------------------------------------------------
    def _worker_entry(self):
        """Module-level worker entry point (picklable under spawn)."""
        return _worker_main

    def _create_store(self):
        """Create the shared-memory store the workers will attach."""
        from ..shm import SharedFeatureStore
        return SharedFeatureStore.create(self.session.dataset)

    def _make_report(self, iterations: int, n: int) -> RunReport:
        """The run's report; a plane that produces a rider sets it
        here."""
        return RunReport(iterations=iterations, num_workers=n)

    # ------------------------------------------------------------------
    def _drive(self, iterations: int, conns, report, rows) -> None:
        """Drive the synchronized training loop (between handshake and
        parity audit). The default is the lock-step parent-sampling
        loop; the worker-sampling plane overrides this with its
        look-ahead dealing loop while inheriting spawn / handshake /
        parity audit / teardown from :meth:`run`."""
        for it, planned in self.session.work_source.iterate(iterations):
            self._run_iteration(it, planned, conns, report, rows)

    def _finalize(self, conns, report) -> None:
        """Post-training hook, run *after* ``wall_time_s`` is stamped
        and before the parity audit — accounting round trips here
        (the worker-sampling plane drains worker pipelines and collects
        their stage stats) never skew the measured training time that the
        wall-clock benches compare across backends.

        The base hook collects each worker's kernel-traffic counters
        (gather/quantize bytes, buffer-pool hits) and sums them into
        ``report.kernel_stats``; subclasses that override this chain
        ``super()._finalize(conns, report)`` after their own round
        trips."""
        from ...kernels import merge_counts
        for idx in range(len(conns)):
            self._send(conns, idx, ("kstats",))
        for idx in range(len(conns)):
            tag, counts = self._recv(conns, idx)
            if tag != "kstats":
                raise ProtocolError(
                    f"worker {idx} sent {tag!r} instead of its kernel "
                    "counter snapshot")
            merge_counts(report.kernel_stats, counts)
        # Realized stage accounting, same round-trip discipline: ask
        # everyone, then drain in order. Raw worker stage names map
        # onto the model's canonical columns by trainer kind before
        # summing, so the report (and the monitor) speak StageTimes.
        s = self.session
        for idx in range(len(conns)):
            self._send(conns, idx, ("wstats",))
        for idx in range(len(conns)):
            tag, totals = self._recv(conns, idx)
            if tag != "wstats":
                raise ProtocolError(
                    f"worker {idx} sent {tag!r} instead of its stage "
                    "wall-time accounting")
            mapped = map_worker_totals(s.trainers[idx].kind, totals)
            for stage, (count, total_s) in mapped.items():
                c, t = report.stage_seconds.get(stage, (0, 0.0))
                report.stage_seconds[stage] = (c + count, t + total_s)
            self.monitor.merge_totals(mapped)

    def _run_iteration(self, it: int, planned, conns, report,
                       rows) -> None:
        """One Fig.-5 iteration: scatter work (:meth:`_dispatch`),
        gather gradients (:meth:`_collect`), then the shared tail
        (:meth:`_sync_tail`) in exactly the virtual-plane order.
        The sync tail (and therefore the trajectory semantics) exists
        once, shared with the worker-sampling plane's loop."""
        stats_by_idx: dict[int, object] = {}
        busy = self._dispatch(it, planned, conns, report, stats_by_idx)

        losses: list[float] = []
        accs: list[float] = []
        self._collect(it, busy, conns, report, stats_by_idx, losses,
                      accs)
        self._sync_tail(it, planned, conns, report, rows, stats_by_idx,
                        losses, accs)

    def _sync_tail(self, it: int, planned, conns, report, rows,
                   stats_by_idx, losses, accs, stage_s=None):
        """The shared iteration tail: all-reduce, broadcast the
        averaged update, optimizer steps, timing/DRM bookkeeping — in
        exactly the virtual-plane order. ``stage_s`` maps worker index
        to the raw stage seconds its result carried; folded with the
        measured all-reduce it is the iteration's realized stage map
        (``None`` on the parent-sampling plane, which learns worker
        stage times only from the end-of-run ``wstats`` totals).
        Returns the modelled :class:`StageTimes` when the session
        carries a timing plane (the look-ahead steers from them), else
        ``None``. This exists once, so the trajectory semantics can
        never drift between process planes."""
        s = self.session
        sync_start = time.perf_counter()
        avg = s.synchronizer.all_reduce(list(planned.batch_sizes), it)
        report.protocol_log.record(it, Signal.SYNC, "synchronizer")
        for idx in range(len(conns)):
            self._send(conns, idx, ("apply", it, avg))
        for opt in s.optimizers:
            opt.step()
        sync_s = time.perf_counter() - sync_start
        report.protocol_log.record(it, Signal.ITER_START, "runtime")

        report.losses.append(float(np.mean(losses)))
        report.accuracies.append(float(np.mean(accs)))
        realized = None
        if stage_s:
            realized = fold_worker_realized(
                [(t.kind, stage_s.get(idx, {}))
                 for idx, t in enumerate(s.trainers)], sync_s)
            self.monitor.observe_times(realized)
        if not s.has_timing:
            return None
        # Realized batch stats in trainer order (idle trainers hold
        # a None placeholder), then one timing/DRM step — the DRM
        # engine is adjudicated here, in the parent, on every
        # process plane.
        stats_cpu = None
        stats_accel: list = []
        for idx, trainer in enumerate(s.trainers):
            st = stats_by_idx.get(idx)
            if trainer.kind == "cpu":
                stats_cpu = st
            else:
                stats_accel.append(st)
        times, row, split = s.timing_step(
            stats_cpu, stats_accel, it,
            estimator=self._timing_estimator(),
            realized=realized,
            calibrate=self._timing_calibrate(),
            overlapped=self.overlaps_transfer)
        rows.append(row)
        report.stage_history.append(times)
        report.split_history.append(split)
        return times

    # ------------------------------------------------------------------
    # resctl hooks — the lock-step defaults keep this plane's timing
    # step bit-equal to the virtual reference (no estimator, no
    # calibration); the worker-sampling plane overrides both.
    # ------------------------------------------------------------------
    def _timing_estimator(self):
        """The :class:`OnlineEstimator` fed by :meth:`_sync_tail`, or
        ``None`` on planes that never calibrate."""
        return None

    def _timing_calibrate(self) -> bool:
        """Whether the timing step should *apply* the estimator's
        corrections (``depth_source == "realized"`` on the
        worker-sampling plane) rather than just observe."""
        return False

    def _dispatch(self, it: int, planned, conns, report,
                  stats_by_idx) -> list[int]:
        """Scatter one iteration's work: sample each busy trainer's
        batch in the parent (the single RNG stream that makes this
        plane bit-identical to the virtual reference) and ship it in
        wire form. Returns the busy worker indices."""
        s = self.session
        busy: list[int] = []
        sample_s = 0.0
        for idx, trainer in enumerate(s.trainers):
            targets = planned.assignments[idx]
            if targets is None:
                # Idle replica: zero gradients, weight zero in the
                # all-reduce (parent mirrors; worker just applies the
                # averaged update when it arrives).
                trainer.model.zero_grad()
                continue
            t0 = time.perf_counter()
            mb = s.sampler.sample(targets)
            sample_s += time.perf_counter() - t0
            st = mb.stats()
            report.total_edges += st.total_edges
            stats_by_idx[idx] = st
            self._send(conns, idx, (
                "train", it, mb.node_ids,
                [(b.src_local, b.dst_local, b.num_src, b.num_dst)
                 for b in mb.blocks],
                mb.feature_dim))
            busy.append(idx)
        if busy:
            # Sampling is parent-side CPU work on this plane — feed the
            # monitor directly (observability only; never the timing
            # step, which stays bit-equal to the virtual reference).
            self.monitor.observe("sample_cpu", sample_s)
        return busy

    def _collect(self, it: int, busy, conns, report, stats_by_idx,
                 losses, accs) -> None:
        """Gather one iteration's results into the parent mirrors."""
        s = self.session
        for idx in busy:
            tag, rit, loss, acc, grads = self._recv(conns, idx)
            if tag != "result" or rit != it:
                raise WorkerError(
                    f"worker {idx} answered {tag!r} for iteration "
                    f"{rit}, expected result for {it}")
            s.trainers[idx].model.set_flat_grads(grads)
            losses.append(loss)
            accs.append(acc)
            report.protocol_log.record(it, Signal.DONE,
                                       s.trainers[idx].name)

    # ------------------------------------------------------------------
    def _send(self, conns, idx: int, msg) -> None:
        """Send one message to worker ``idx``; a dead worker surfaces
        as the backend's documented failure type, like ``_recv``."""
        try:
            conns[idx].send(msg)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerError(
                f"worker {idx} died before {msg[0]!r} could be "
                f"delivered: {exc!r}") from exc

    def _recv(self, conns, idx: int):
        """Receive one message from worker ``idx`` under the watchdog.

        Failures surface as the typed infra errors (`StageTimeoutError`
        for a wedged worker, `WorkerError` for a dead or crashed one),
        so CI logs can tell them apart from conformance failures.
        """
        conn = conns[idx]
        try:
            if not conn.poll(self.timeout_s):
                raise StageTimeoutError(
                    f"worker {idx} recv timeout after {self.timeout_s}s")
            msg = conn.recv()
        except (EOFError, BrokenPipeError, OSError) as exc:
            raise WorkerError(
                f"worker {idx} died mid-iteration: {exc!r}") from exc
        if msg[0] == "error":
            raise WorkerError(
                f"worker {idx} failed:\n{msg[1]}")
        return msg

    def _check_parity(self, conns) -> bool:
        """Worker replicas must match the parent mirrors bit for bit."""
        s = self.session
        if not s.synchronizer.replicas_consistent():
            return False
        for idx in range(len(conns)):
            self._send(conns, idx, ("params",))
            tag, flat = self._recv(conns, idx)
            if tag != "params":
                raise WorkerError(
                    f"worker {idx} answered {tag!r} to a params request")
            if not np.array_equal(flat,
                                  s.trainers[idx].model.get_flat_params()):
                return False
        return True

    def _shutdown(self, conns, procs, store) -> None:
        """Stop workers and destroy the shared segment. Never raises."""
        for conn in conns:
            try:
                conn.send(("stop",))
            except Exception:
                pass
        for proc in procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - wedged worker
                proc.terminate()
                proc.join(timeout=5.0)
        for conn in conns:
            try:
                conn.close()
            except Exception:
                pass
        try:
            store.close()
        finally:
            store.unlink()

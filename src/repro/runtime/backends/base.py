"""The execution-backend protocol.

An :class:`ExecutionBackend` realizes the training protocol described by
a :class:`~repro.runtime.core.TrainingSession` on some execution
substrate. Backends never construct samplers, replicas, synchronizers or
optimizers — the session owns construction; backends own *execution
strategy* only. That is the whole point of the split: adding a new way to
run training (process pool, async pipeline, partition sharding) means
implementing this interface, not forking the runtime.

Contract every backend must honor (so results are backend-independent):

* batches come from the session's :class:`~repro.runtime.core.BatchPlan`
  — one permutation per epoch, per-trainer quota slices in trainer order;
* mini-batches are sampled through ``session.sampler`` in plan order
  (the sampler's RNG stream is part of the reproducibility contract);
* features load through ``session.load_features`` (which applies the
  transfer-quantization policy for accelerator trainers);
* gradients synchronize through ``session.synchronizer`` with batch-size
  weights, after which *every* optimizer steps (idle trainers receive
  the averaged gradients too, keeping replicas consistent);
* DRM (when enabled) sees iteration ``i``'s realized stage times before
  iteration ``i + 1``'s quotas are read — **unless** the backend
  declares the ``statistical`` conformance tier, which relaxes exactly
  this clause (and therefore bit-parity) in exchange for overlap.

Each backend declares which tier of the conformance kit it targets via
:attr:`ExecutionBackend.conformance_tier`:

* ``"strict"`` — lock-step execution, held to **bit-identical** parity
  with the virtual reference (losses, DRM trajectory, parameters);
* ``"statistical"`` — stages overlap and stochastic draws may interleave
  across stage threads, so the kit instead asserts exact epoch coverage,
  work conservation, DRM-trajectory shape, and tolerance-based loss /
  parameter closeness.

The kit (``tests/integration/backend_conformance.py``) reads the flag
off the registered class, so third-party backends opt into the right
matrix by setting one class attribute.

Every live plane returns one :class:`RunReport`. Its riders —
``trained_targets``, ``worker_targets`` and ``shard_parts`` — stay
``None`` unless the plane produces that evidence, and the kit runs the
matching assertion exactly when a rider is set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar

import numpy as np

from ...kernels import KernelCounters
from ...perfmodel.model import StageTimes, WorkloadSplit
from ...sim.trace import Timeline
from ..core import TrainingSession
from ..protocol import ProtocolLog
from ..resctl import StageMonitor
from ..stage_chain import StageStats
from .options import BackendOptions


def summarize_overlap(stage_stats: dict[str, StageStats],
                      depth_history: list[tuple[int, int]]) -> str:
    """One-line per-stage overlap report for benches/logs — the
    formatter behind :meth:`RunReport.overlap_summary` (the wall-clock
    bench renders it in the ``overlap`` column)."""
    stats = " | ".join(s.describe() for s in stage_stats.values())
    depths = [d for _, d in depth_history]
    rng = f"{min(depths)}-{max(depths)}" if depths else "static"
    return f"depth={rng} | {stats}"


@dataclass
class RunReport:
    """Outcome of a live run, on every live plane.

    ``wall_time_s`` is real elapsed *training* time; the process planes
    clock it from all workers reporting ready, so process spawn and the
    shared-memory copy land in ``startup_time_s`` instead. When the
    session carries a timing plane the report also holds the
    virtual-time bookkeeping (stage history, DRM split trajectory,
    pipeline timeline and its makespan ``virtual_time_s``).
    ``kernel_stats`` is the run's kernel-traffic counter delta (bytes
    gathered, quantized payload bytes, buffer-pool hits; summed over
    the workers on the process planes).

    The overlapped planes fill the overlap observability:
    ``stage_stats`` (per-stage items, buffer high-water, mean
    occupancy), ``depth_history`` (the adaptive look-ahead trajectory
    ``(iteration, depth)``) and ``calibration`` (the estimator's
    per-stage model-vs-realized digest; empty on functional-only
    sessions). The worker-sampling plane adds its dealing audit:
    ``lookahead_history[i]`` is ``(in_flight, depth)`` when iteration
    ``i`` retired for synchronization — ``in_flight <= max_depth``
    always, though after an adaptive shrink it may exceed the new
    ``depth`` while the window drains — and ``dealt_sizes[i]`` is
    iteration ``i``'s per-trainer batch sizes *as dealt*, which lag
    DRM adjustments by the window size. ``stage_seconds`` is the
    process planes' realized worker-side accounting
    ``{canonical_stage: (count, total_s)}``.

    The riders are ``None`` unless the plane produces them:

    * ``trained_targets`` — the target-id slices dealt, in deal order
      (the statistical tier's epoch-coverage evidence);
    * ``worker_targets[k]`` — worker ``k``'s **echoed** target ids, the
      ``V^L`` of the batches it actually trained, reported back over
      the pipe (the kit's per-worker partition audit);
    * ``shard_parts`` — the partition map a sharded run trained under
      (the kit's cross-node ownership audit); with it, ``shard_io``
      holds one ``{iteration, worker, local_rows, remote_rows,
      cache_hits, local_bytes, remote_bytes}`` record per minibatch.
    """

    iterations: int
    num_workers: int = 0
    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)
    wall_time_s: float = 0.0
    startup_time_s: float = 0.0
    protocol_log: ProtocolLog = field(default_factory=ProtocolLog)
    replicas_consistent: bool = False
    prefetch_high_water: int = 0
    stage_history: list[StageTimes] = field(default_factory=list)
    split_history: list[WorkloadSplit] = field(default_factory=list)
    total_edges: float = 0.0
    virtual_time_s: float = 0.0
    timeline: Timeline = field(default_factory=Timeline)
    kernel_stats: dict[str, int] = field(default_factory=dict)
    stage_seconds: dict[str, tuple[int, float]] = field(
        default_factory=dict)
    stage_stats: dict[str, StageStats] = field(default_factory=dict)
    depth_history: list[tuple[int, int]] = field(default_factory=list)
    lookahead_history: list[tuple[int, int]] = \
        field(default_factory=list)
    dealt_sizes: list[tuple[int, ...]] = field(default_factory=list)
    calibration: dict[str, dict] = field(default_factory=dict)
    shard_io: list[dict] = field(default_factory=list)
    trained_targets: list[np.ndarray] | None = None
    worker_targets: list[list[np.ndarray]] | None = None
    shard_parts: np.ndarray | None = None

    def overlap_summary(self) -> str:
        """One-line per-stage overlap report; ``"-"`` on a plane with
        no stage buffers to report (``threaded``, ``process``)."""
        if not self.stage_stats:
            return "-"
        return summarize_overlap(self.stage_stats, self.depth_history)

    def resolve_timeline(self, session: TrainingSession,
                         rows: list[list[float]]) -> None:
        """Run the timing plane's per-iteration duration rows through
        the modelled pipeline: the timeline and its makespan."""
        if session.has_timing and rows:
            self.timeline = session.make_pipeline().run(rows)
            self.virtual_time_s = self.timeline.makespan

    # The sharded plane's interconnect totals, read off the workers'
    # counter deltas — sourced independently of ``shard_io``, so the
    # two cross-check (0 on every other plane).
    @property
    def local_gather_bytes(self) -> int:
        return int(self.kernel_stats.get("shard_local_bytes", 0))

    @property
    def remote_gather_bytes(self) -> int:
        return int(self.kernel_stats.get("shard_remote_bytes", 0))

    @property
    def remote_cache_hit_rate(self) -> float:
        hits = self.kernel_stats.get("remote_cache_hits", 0)
        misses = self.kernel_stats.get("remote_cache_misses", 0)
        total = hits + misses
        return hits / total if total else 0.0


class ExecutionBackend:
    """Base class for pluggable execution strategies.

    Parameters
    ----------
    session:
        The shared runtime core this backend executes.
    """

    #: Registry key; subclasses override.
    name: ClassVar[str] = ""

    #: The typed construction-knob declaration
    #: (:mod:`~repro.runtime.backends.options`). ``register_backend``
    #: validates every field against the constructor signature;
    #: ``build_backend(name, session, **knobs)`` resolves user kwargs
    #: through it with unknown-option errors naming the backend.
    options_cls: ClassVar[type[BackendOptions]] = BackendOptions

    #: Which conformance tier this backend targets: ``"strict"``
    #: (bit-identical to the virtual reference — the default) or
    #: ``"statistical"`` (overlapped execution; the kit asserts
    #: coverage, conservation and closeness instead of bit-parity).
    conformance_tier: ClassVar[str] = "strict"

    #: Does this backend overlap the next iteration's feature transfer
    #: with the current iteration's gradient pull on the PCIe link?
    #: Gates the timing plane's duplex-contention derate
    #: (:meth:`TrainingSession.duration_row`). ``True`` by default:
    #: the virtual reference models the overlapped pipeline whenever
    #: prefetching is configured, and the strict planes must price
    #: their rows identically to it by contract. The worker-sampling
    #: plane derives it from its look-ahead: a window capped at one
    #: iteration deals each transfer after the previous pull.
    overlaps_transfer: ClassVar[bool] = True

    def __init__(self, session: TrainingSession) -> None:
        self.session = session
        #: Realized per-stage wall-time monitor (resctl stage 1) —
        #: an explicit **session-scoped handle**: every live plane
        #: feeds its own; overlapped planes additionally calibrate
        #: from it through their estimator. Two concurrent sessions
        #: (train + serve, or two trainings) never share one.
        self.monitor = StageMonitor()
        #: Session-scoped kernel-traffic handle: the in-process planes
        #: enlist their run/stage threads into it
        #: (:func:`repro.kernels.scoped_counters`), so a report's
        #: ``kernel_stats`` counts only this backend's dispatches even
        #: when other sessions run concurrently in the same process.
        self.counters = KernelCounters()

    def run_epoch(self, max_iterations: int | None = None) -> Any:
        """Execute one epoch (or ``max_iterations``, whichever is less).

        The live planes implement ``run(iterations)`` and inherit this;
        each returns a :class:`RunReport`. A backend without ``run``
        overrides this method instead (the virtual-time plane returns
        its modelled ``EpochReport``); every report exposes at least
        ``iterations`` and per-iteration ``losses``.
        """
        iters = self.session.iterations_per_epoch()
        if max_iterations is not None:
            iters = min(iters, max_iterations)
        return self.run(iters)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} over {self.session.dataset.name}>"

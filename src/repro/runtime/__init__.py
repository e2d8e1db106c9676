"""The HyScale-GNN runtime: protocol, pipeline, DRM, and the hybrid system.

This package is the paper's primary contribution (§III-§IV):

* :mod:`repro.runtime.protocol` — the processor-accelerator training
  protocol's handshake signals and ordering invariants (paper Fig. 5,
  Listing 1);
* :mod:`repro.runtime.synchronizer` — gradient all-reduce across trainer
  replicas (gather → average → broadcast);
* :mod:`repro.runtime.trainer` — CPU and accelerator trainer nodes
  (functional NumPy training + kernel-model timing);
* :mod:`repro.runtime.prefetch` — the two-stage feature prefetch buffers;
* :mod:`repro.runtime.drm` — the Dynamic Resource Management engine
  (paper Algorithm 1, verbatim decision structure);
* :mod:`repro.runtime.core` — the shared runtime core:
  :class:`TrainingSession` (owns all construction: sampler via the
  registry in :mod:`repro.sampling`, trainer replicas, synchronizer,
  optimizers, perf model, DRM, quantize policy) and :class:`BatchPlan`
  (the per-trainer quota / permutation-cursor logic, implemented once);
* :mod:`repro.runtime.backends` — pluggable execution strategies over
  the core. The **backend registry** maps a name to an
  :class:`ExecutionBackend` subclass: ``get_backend("virtual")`` returns
  :class:`VirtualTimeBackend` (sequential, modelled-hardware time —
  the paper-figure plane), ``get_backend("threaded")`` returns
  :class:`ThreadedBackend` (live threads, Listing-1 handshakes),
  ``get_backend("process")`` returns :class:`ProcessPoolBackend`
  (worker processes over a shared-memory feature store — GIL-free
  NumPy training), ``get_backend("process_sampling")`` returns
  :class:`ProcessSamplingBackend` (workers that additionally run the
  sample stage locally from independent per-worker RNG streams — the
  parent deals plan shards and adjudicates DRM),
  ``get_backend("pipelined")`` returns
  :class:`PipelinedBackend` (overlapped per-trainer
  sample → gather → transfer stage threads with an adaptive,
  perf-model-driven look-ahead — the paper's §IV-B prefetch made
  live), and ``get_backend("process_pipelined")`` returns
  :class:`ProcessPipelinedBackend` (the fusion of the last two: the
  parent deals plan shards *ahead* through a bounded adaptive
  look-ahead window while each worker overlaps its local
  sample → gather → transfer chain with train+sync on stage threads —
  process parallelism and stage overlap composed), and
  ``get_backend("sharded")`` returns :class:`ShardedBackend` (the
  multi-node plane on one node: partition-owned dealing with accounted
  remote gathers). All execute the *same* plan and session, so hybrid
  split, DRM, prefetch and transfer quantization behave identically on
  each; new executors join via
  :func:`register_backend` without touching the core and inherit the
  tiered conformance suite
  (``tests/integration/backend_conformance.py``) at the tier their
  ``conformance_tier`` capability flag declares — the full backend-
  author guide lives in ``docs/backends.md``. Every live backend
  returns one :class:`RunReport`;
* :mod:`repro.runtime.shm` — :class:`SharedFeatureStore`, the
  single-segment shared-memory mapping of the dataset's features,
  labels and CSR topology that process workers gather from zero-copy;
* :mod:`repro.runtime.resctl` — feedback-driven resource control:
  :class:`StageMonitor` (realized per-stage wall times sampled from
  the live planes), :class:`OnlineEstimator` (calibrates the analytic
  perf model against the realized signal), and :class:`NodeAllocator`
  (arbitrates look-ahead depth budget across concurrent sessions).
  The overlapped backends expose the loop through their
  ``depth_source`` knob (see ``docs/architecture.md``);
* :mod:`repro.runtime.hybrid` — :class:`HyScaleGNN`, the top-level
  system facade (session + virtual-time backend);
* :mod:`repro.runtime.executor` — :class:`ThreadedExecutor`, the
  threaded facade (session + threaded backend).
"""

from .protocol import ProtocolLog, ProtocolEvent, Signal, validate_protocol
from .synchronizer import GradientSynchronizer
from .trainer import TrainerNode, TrainerReport
from .prefetch import PrefetchBuffer
from .drm import DRMDecision, DRMEngine
from .core import BatchPlan, PlannedIteration, TrainingSession
from .stage_pipeline import (
    PreparedBatch,
    StagePipeline,
    StageTimings,
    WorkSource,
)
from .shm import (
    SharedFeatureStore,
    SharedPrefetchSpec,
    SharedSamplerSpec,
    SharedStoreManifest,
)
from .backends import (
    BACKENDS,
    BackendOptions,
    ExecutionBackend,
    PipelinedBackend,
    ProcessPipelinedBackend,
    ProcessPoolBackend,
    ProcessSamplingBackend,
    RunReport,
    ShardedBackend,
    ThreadedBackend,
    VirtualTimeBackend,
    available_backends,
    build_backend,
    get_backend,
    register_backend,
    resolve_options,
)
from .backends.virtual import EpochReport
from .backends.pipelined import DEPTH_SOURCES, adaptive_depth, seed_depth
from .backends.process_pipelined import LookaheadDealer
from .stage_chain import StageStats
from .resctl import (
    DEFAULT_ALLOCATOR,
    DepthGrant,
    NodeAllocator,
    OnlineEstimator,
    StageMonitor,
    StageSummary,
    fold_worker_realized,
    summarize_calibration,
)
from .hybrid import HyScaleGNN
from .executor import ThreadedExecutor

__all__ = [
    "Signal",
    "ProtocolEvent",
    "ProtocolLog",
    "validate_protocol",
    "GradientSynchronizer",
    "TrainerNode",
    "TrainerReport",
    "PrefetchBuffer",
    "DRMEngine",
    "DRMDecision",
    "TrainingSession",
    "BatchPlan",
    "PlannedIteration",
    "StagePipeline",
    "StageTimings",
    "PreparedBatch",
    "WorkSource",
    "ExecutionBackend",
    "VirtualTimeBackend",
    "ThreadedBackend",
    "ProcessPoolBackend",
    "ProcessSamplingBackend",
    "PipelinedBackend",
    "ProcessPipelinedBackend",
    "ShardedBackend",
    "RunReport",
    "LookaheadDealer",
    "StageStats",
    "adaptive_depth",
    "seed_depth",
    "DEPTH_SOURCES",
    "DEFAULT_ALLOCATOR",
    "DepthGrant",
    "NodeAllocator",
    "OnlineEstimator",
    "StageMonitor",
    "StageSummary",
    "fold_worker_realized",
    "summarize_calibration",
    "SharedFeatureStore",
    "SharedPrefetchSpec",
    "SharedSamplerSpec",
    "SharedStoreManifest",
    "BACKENDS",
    "register_backend",
    "get_backend",
    "available_backends",
    "BackendOptions",
    "build_backend",
    "resolve_options",
    "HyScaleGNN",
    "EpochReport",
    "ThreadedExecutor",
]

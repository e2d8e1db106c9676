"""Pluggable execution backends for the shared runtime core.

A backend realizes the training protocol of a
:class:`~repro.runtime.core.TrainingSession` on a concrete execution
substrate. Seven ship with the library:

* ``"virtual"`` — :class:`VirtualTimeBackend`: sequential execution with
  modelled-hardware (virtual-time) accounting; the paper-figure plane.
* ``"threaded"`` — :class:`ThreadedBackend`: live Python threads with
  the paper's Listing-1 condition-variable handshakes.
* ``"process"`` — :class:`ProcessPoolBackend`: one worker *process* per
  trainer replica over a shared-memory feature store
  (:class:`~repro.runtime.shm.SharedFeatureStore`) — GIL-free NumPy
  training, DistDGL-style.
* ``"pipelined"`` — :class:`PipelinedBackend`: per-trainer
  sample → gather → transfer stage threads over backpressured
  :class:`~repro.runtime.prefetch.PrefetchBuffer` queues feeding the
  train stage, with an adaptive look-ahead driven by the performance
  model — the paper's §IV-B overlap made live.
* three fixed points of **one worker-sampling process plane**
  (:mod:`.process_pipelined`): worker processes run the sample stage
  locally over the shared CSR, each with an independent
  ``SeedSequence``-derived RNG stream, and overlap their
  sample → gather → transfer chain with train+sync on a one-lane
  :class:`~repro.runtime.stage_chain.StageChain`; the parent deals
  target-id shards through a look-ahead window, runs the all-reduce
  and keeps adjudicating DRM:

  * ``"process_pipelined"`` — :class:`ProcessPipelinedBackend`: the
    plane with its bounded, adaptively-sized look-ahead window —
    process-level parallelism *and* per-worker stage overlap at once
    (paper §IV composed);
  * ``"process_sampling"`` — :class:`ProcessSamplingBackend`: the
    window pinned at one iteration (lock-step dealing) — the last
    lock-step stage made parallel;
  * ``"sharded"`` — :class:`ShardedBackend`: ``process_sampling``
    over a graph partitioned (``hash``/``bfs``) one shard per trainer.
    The feature store is shard-sliced, the parent deals each shard
    only the targets it owns, and every worker's pipeline resolves
    feature rows as local gather vs. **remote** gather (optionally
    through a degree-aware
    :class:`~repro.runtime.remote_cache.RemoteFeatureCache`) with
    per-minibatch byte accounting — DistDGL's distributed layout with
    the interconnect accounted rather than physical.

All consume the same :class:`~repro.runtime.core.BatchPlan` and session,
so every feature flag — hybrid CPU+accelerator split, DRM, two-stage
prefetch, transfer quantization, pluggable samplers — behaves identically
on each; ``tests/integration/backend_conformance.py`` holds every
registered backend (third-party ones included) to the conformance tier
its :attr:`~ExecutionBackend.conformance_tier` flag declares: ``strict``
backends must match the virtual reference bit for bit, ``statistical``
backends (pipelined, process_sampling, process_pipelined and sharded
— whose overlap or per-worker RNG streams preclude bit-parity by
design) must preserve exact epoch coverage, per-worker shard
disjointness, work conservation and loss/parameter closeness. New
executors plug in through :func:`register_backend` and inherit the
right tier for free. The full author guide — stage hooks,
tiers, shm manifest, worker RNG streams, registration — lives in
``docs/backends.md``.
"""

from __future__ import annotations

from ...errors import ConfigError
from ...registry import Registry
from .base import ExecutionBackend, RunReport
from .options import (
    BackendOptions,
    LiveOptions,
    OverlapOptions,
    ProcessOptions,
    ProcessOverlapOptions,
    ShardedOptions,
    ThreadedOptions,
    build_backend,
    resolve_options,
    validate_options_cls,
)
from .virtual import EpochReport, VirtualTimeBackend
from .threaded import ThreadedBackend
from .process_pool import ProcessPoolBackend
from .pipelined import PipelinedBackend, adaptive_depth
from .process_pipelined import LookaheadDealer, ProcessPipelinedBackend
from .process_sampling import ProcessSamplingBackend
from .sharded import ShardedBackend, ShardPlan
from ..stage_chain import StageStats

#: name -> backend class. A :class:`~repro.registry.Registry` (the
#: unified registry discipline), dict-compatible for legacy call sites;
#: mutated only through :func:`register_backend`.
BACKENDS: Registry = Registry("execution backend")


def register_backend(cls: type[ExecutionBackend]
                     ) -> type[ExecutionBackend]:
    """Register an execution backend under ``cls.name``.

    Usable as a class decorator; returns ``cls`` unchanged. Validates
    the class contract eagerly: a non-empty ``name`` and an
    ``options_cls`` declaration whose every field the constructor
    accepts (see :mod:`~repro.runtime.backends.options`), so knob
    drift fails at registration rather than first use.
    """
    if not getattr(cls, "name", ""):
        raise ConfigError(
            f"backend class needs a non-empty `name`; registered: "
            f"{sorted(BACKENDS)}")
    validate_options_cls(cls)
    BACKENDS.register(cls.name, cls)
    return cls


def get_backend(name: str) -> type[ExecutionBackend]:
    """Look up a backend class by registry key (unknown names raise
    :class:`~repro.errors.ConfigError` listing the registry)."""
    return BACKENDS.get(name)


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return BACKENDS.available()


register_backend(VirtualTimeBackend)
register_backend(ThreadedBackend)
register_backend(ProcessPoolBackend)
register_backend(ProcessSamplingBackend)
register_backend(PipelinedBackend)
register_backend(ProcessPipelinedBackend)
register_backend(ShardedBackend)

__all__ = [
    "ExecutionBackend",
    "BackendOptions",
    "LiveOptions",
    "ThreadedOptions",
    "ProcessOptions",
    "OverlapOptions",
    "ProcessOverlapOptions",
    "ShardedOptions",
    "build_backend",
    "resolve_options",
    "VirtualTimeBackend",
    "ThreadedBackend",
    "ProcessPoolBackend",
    "ProcessSamplingBackend",
    "PipelinedBackend",
    "ProcessPipelinedBackend",
    "ShardedBackend",
    "EpochReport",
    "RunReport",
    "ShardPlan",
    "LookaheadDealer",
    "StageStats",
    "adaptive_depth",
    "BACKENDS",
    "register_backend",
    "get_backend",
    "available_backends",
]

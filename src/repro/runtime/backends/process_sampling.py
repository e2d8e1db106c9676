"""Worker-side sampling at depth 1: the worker-sampling plane's
lock-step fixed point.

:class:`~repro.runtime.backends.process_pool.ProcessPoolBackend` freed
trainer forward/backward from the GIL, but still samples every
mini-batch in the parent: the sample stage — the stage HyScale-GNN
dedicates most CPU cores to (paper §III-A, Table-I thread split) —
remains serialized exactly where the paper parallelizes it. The
worker-sampling plane (:mod:`.process_pipelined`) pushes sampling into
the workers, the recipe of DistDGL (Zheng et al., "Distributed Hybrid
CPU and GPU Training for GNNs on Billion-Scale Graphs") and HitGNN:
the parent deals only target-id shards of the shared
:class:`~repro.runtime.core.BatchPlan` (a few KB of int64 ids instead
of a whole sampled computational graph), runs the all-reduce and
adjudicates every DRM decision; each worker samples from its own
``SeedSequence``-derived stream and runs ``sample → gather → transfer
→ train`` on a one-lane stage chain.

``process_sampling`` is that plane with its look-ahead pinned at one
iteration and ``depth_source="model"``: shard ``i + 1`` is dealt only
after iteration ``i``'s all-reduce and DRM step, so the DRM engine
observes iteration ``i`` before ``i + 1``'s quotas are read, and a
transfer never overlaps a gradient pull. A window that can never grow
has nothing to arbitrate, so the plane takes no
:class:`~repro.runtime.resctl.NodeAllocator` grant. Per-worker RNG
streams preclude bit-parity with the virtual reference, so it declares
the ``statistical`` conformance tier. The backend-author contract is
documented in ``docs/backends.md``.
"""

from __future__ import annotations

from .options import ProcessOptions
from .process_pipelined import ProcessPipelinedBackend


class ProcessSamplingBackend(ProcessPipelinedBackend):
    """Worker processes that sample their own mini-batches, dealt one
    iteration at a time.

    Same construction surface as :class:`ProcessPoolBackend`
    (``timeout_s`` watchdog, ``mp_context`` start method); the
    look-ahead knobs are fixed at ``initial_depth=max_depth=1`` and
    ``depth_source="model"``.
    """

    name = "process_sampling"
    options_cls = ProcessOptions

    def __init__(self, session, timeout_s: float = 120.0,
                 mp_context: str | None = None) -> None:
        super().__init__(session, timeout_s=timeout_s,
                         mp_context=mp_context, initial_depth=1,
                         max_depth=1, depth_source="model")

"""What the benchmark attaches to the program from the outside.

* :class:`IterationClock` — the return time of every parent-side
  ``GradientSynchronizer.all_reduce`` (one per iteration on every live
  plane). Active in every run: it is how iteration gaps are measured.
* :class:`DealLedger` — each iteration's quota as the plan reads it and
  the batch sizes it then deals, for the output checks. Active in every
  run.
* :func:`install_spans` — the traced run's span wrappers around each
  layer's public functions.
"""

from __future__ import annotations

import os
import threading
import time
from multiprocessing.connection import Connection

from repro import kernels
from repro.nn.aggregators import SparseAggregator
from repro.nn.layers import GCNLayer, SAGELayer
from repro.nn.models import GNNModel
from repro.nn.optim import SGD
from repro.runtime import (
    GradientSynchronizer,
    PrefetchBuffer,
    StagePipeline,
    TrainerNode,
    TrainingSession,
)
from repro.runtime.remote_cache import RemoteFeatureCache
from repro.sampling.neighbor import NeighborSampler
from repro.serving import ServingSession

from .spans import Tracer


class IterationClock:
    """Stamps every return of the benchmark process's
    ``GradientSynchronizer.all_reduce`` while :attr:`recording`."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.stamps: list[float] = []
        self.recording = False
        self._original = GradientSynchronizer.all_reduce
        clock = self

        def all_reduce(sync, *args, **kwargs):
            result = clock._original(sync, *args, **kwargs)
            if clock.recording and os.getpid() == clock.pid:
                clock.stamps.append(time.perf_counter())
            return result

        GradientSynchronizer.all_reduce = all_reduce

    def start(self) -> None:
        self.stamps = []
        self.recording = True

    def stop(self) -> list[float]:
        self.recording = False
        return self.stamps

    def close(self) -> None:
        GradientSynchronizer.all_reduce = self._original


class DealLedger:
    """Records, per planned iteration, the quota the plan read and the
    per-trainer batch sizes it then dealt.

    A context manager: hooks the instance attributes ``plan.counts_fn``
    (read once per planned iteration by both ``BatchPlan`` and
    ``ShardPlan``) and ``source.iterate`` of the work source the backend
    drains, and puts both back on exit.
    """

    def __init__(self, plan, source) -> None:
        self.plan = plan
        self.source = source
        self.quotas: list[tuple[int, ...]] = []
        self.dealt: list[tuple[int, ...]] = []

    def __enter__(self) -> "DealLedger":
        counts_fn = self.plan.counts_fn
        iterate = self.source.iterate

        def recording_counts():
            counts = counts_fn()
            self.quotas.append(tuple(int(c) for c in counts))
            return counts

        def recording_iterate(iterations):
            for it, planned in iterate(iterations):
                self.dealt.append(planned.batch_sizes)
                yield it, planned

        self.plan.counts_fn = recording_counts
        self.source.iterate = recording_iterate
        self._originals = counts_fn
        return self

    def __exit__(self, *exc) -> None:
        self.plan.counts_fn = self._originals
        del self.source.iterate           # back to the class's method


def install_spans(tracer: Tracer) -> None:
    """Wrap each layer's public functions; see ``catalog.PER_LAYER``
    for what the spans feed."""
    wrap = tracer.wrap
    # The layers of the model whose forward/backward this thread is in,
    # so a layer's span can carry its index.
    current = threading.local()

    def remember_layers(args):
        current.layers = args[0].layers

    def layer_attrs(args, kwargs, result):
        layers = getattr(current, "layers", ())
        index = next((i for i, layer in enumerate(layers)
                      if layer is args[0]), -1)
        return {"layer": index}

    def tick_in_worker(args, result):
        if tracer.in_worker:
            tracer.tick()

    # sampling
    wrap(NeighborSampler, "sample", "sampling.sample",
         attrs=lambda a, k, mb: {"input_nodes": int(mb.input_nodes.size),
                                 "edges": int(sum(b.num_edges
                                                  for b in mb.blocks))})
    # kernels
    wrap(kernels, "gather_rows", "kernels.gather")
    wrap(kernels, "gather_quantize", "kernels.gather")
    wrap(kernels, "quantize", "kernels.quantize")
    # nn
    wrap(TrainerNode, "train_minibatch", "trainer.train")
    wrap(GNNModel, "forward", "nn.model.forward", before=remember_layers)
    wrap(GNNModel, "backward", "nn.model.backward",
         before=remember_layers)
    for cls in (GCNLayer, SAGELayer):
        wrap(cls, "build_aggregator", "nn.build_aggregator",
             attrs=layer_attrs)
        wrap(cls, "forward", "nn.layer.forward", attrs=layer_attrs)
        wrap(cls, "backward", "nn.layer.backward", attrs=layer_attrs)
    wrap(SparseAggregator, "forward", "nn.agg.forward")
    wrap(SparseAggregator, "backward", "nn.agg.backward")
    wrap(SGD, "step", "nn.optimizer", after=tick_in_worker)
    # runtime
    wrap(GradientSynchronizer, "all_reduce", "sync.all_reduce",
         attrs=lambda a, k, avg: {"grad_bytes": int(avg.nbytes)
                                  * a[0].num_trainers},
         after=lambda a, r: tracer.tick())
    wrap(TrainingSession, "timing_step", "timing.step",
         attrs=_timing_attrs)
    wrap(PrefetchBuffer, "get", "prefetch.get")
    wrap(PrefetchBuffer, "put", "prefetch.put")
    wrap(RemoteFeatureCache, "lookup", "shard.cache_lookup")
    wrap(Connection, "recv", "ipc.recv")
    # serving
    wrap(ServingSession, "submit", "serving.submit")
    wrap(StagePipeline, "prepare", "serving.prepare",
         attrs=lambda a, k, prepared: {"unique_targets":
                                       int(len(a[1]))})


def _timing_attrs(args, kwargs, result) -> dict:
    """The perf model's stage prediction for the iteration's realized
    batch stats (under the split in effect), beside the realized stage
    times the backend passed in."""
    session, stats_cpu, stats_accel = args[0], args[1], args[2]
    _, _, split = result
    predicted = session.perfmodel.stage_times(split, stats_cpu,
                                              stats_accel)
    return {"model": predicted.as_dict(),
            "realized": dict(kwargs.get("realized") or {})}


class PartitionTimer:
    """Times the partitioner the sharded backend calls at construction
    (``PARTITIONERS`` of the sharded backend module)."""

    def __init__(self, partitioners: dict) -> None:
        self.seconds: list[float] = []
        self._partitioners = partitioners
        self._originals = dict(partitioners)
        for name, fn in self._originals.items():
            partitioners[name] = self._timed(fn)

    def _timed(self, fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds.append(time.perf_counter() - t0)
        return timed

    def close(self) -> None:
        self._partitioners.update(self._originals)

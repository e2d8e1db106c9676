"""The benchmark's workloads and metrics, with what each per-layer
metric should move.

``BENCHMARK.json`` at the repository root lists the same workloads and
metrics; ``test_perfbench.py`` holds the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass

TRAIN = ("train-hybrid", "train-sharded")
SERVE = ("serve-open-loop",)
ALL = TRAIN + SERVE


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


WORKLOADS = (
    Workload("train-hybrid",
             "the paper's CPU+GPU design on worker processes with DRM "
             "and look-ahead: worker BLAS threading, dealing and DRM "
             "changes show here"),
    Workload("train-sharded",
             "the only user of graph.partition, ShardMap and "
             "RemoteFeatureCache; no timing plane, so DRM is bypassed"),
    Workload("serve-open-loop",
             "open-loop inference in small deduplicated micro-batches: "
             "no backward, all-reduce or worker, so the bypass for "
             "training changes"),
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: What the metric measures.
    doc: str
    #: End-to-end metrics: the share of the parent's median by which
    #: the metric may worsen. ``None`` for per-layer metrics.
    bound: float | None = None
    #: Per-layer metrics: the end-to-end metrics and workloads the
    #: layer should move.
    moves: tuple[str, ...] = ()
    workloads: tuple[str, ...] = ALL


END_TO_END = (
    Metric("targets_per_s", "targets/s", "higher",
           "train-*: targets trained per second of the timed loop "
           "(total targets over total run wall time). serve-open-loop: "
           "goodput of the overload phase, targets of requests answered "
           "within the 100 ms limit per second (sheds count as misses), "
           "the median over 1 s windows", bound=0.25),
    Metric("p50_ms", "ms", "lower",
           "train-*: median gap between consecutive returns of the "
           "parent's GradientSynchronizer.all_reduce (one per "
           "iteration). serve-open-loop: median latency of the nominal "
           "phase, from each request's scheduled arrival", bound=0.25),
    Metric("tail_ms", "ms", "lower",
           "train-*: p90 of the iteration gaps, the median over windows "
           "of 100 consecutive gaps (10 beyond each p90). "
           "serve-open-loop: p90 latency of the nominal phase, the "
           "median over windows of 100 consecutive requests", bound=0.25),
    Metric("setup_s", "s", "lower",
           "median over the run's set-ups of dataset build + session "
           "construction + backend construction + worker start-up",
           bound=0.25),
    Metric("peak_rss_mb", "MB", "lower",
           "peak resident memory of the benchmark process plus that "
           "of its largest worker process", bound=0.25),
)

_TRAIN_MOVES = ("targets_per_s@train-*", "p50_ms@train-*")


def _m(name, unit, better, doc, moves, workloads=ALL):
    return Metric(name, unit, better, doc, moves=moves,
                  workloads=workloads)


PER_LAYER = (
    # -- setup -----------------------------------------------------------
    _m("setup.dataset_s", "s", "lower", "load_dataset, median of set-ups",
       ("setup_s@all",)),
    _m("setup.session_s", "s", "lower",
       "TrainingSession / ServingSession construction",
       ("setup_s@all",)),
    _m("setup.backend_s", "s", "lower", "backend construction",
       ("setup_s@train-*",), TRAIN),
    _m("setup.startup_s", "s", "lower",
       "the report's worker startup_time_s", ("setup_s@train-*",),
       TRAIN),
    _m("graph.partition_s", "s", "lower",
       "the partitioner call inside ShardedBackend construction",
       ("setup_s@train-sharded",), ("train-sharded",)),
    # -- sampling --------------------------------------------------------
    _m("sampling.sample_ms", "ms", "lower",
       "Sampler.sample per batch (median)",
       _TRAIN_MOVES + ("p50_ms@serve-open-loop",)),
    _m("sampling.input_nodes", "count", "lower",
       "input vertices per sampled batch (median)",
       _TRAIN_MOVES + ("p50_ms@serve-open-loop",)),
    _m("sampling.edges", "count", "lower",
       "edges per sampled batch (median)",
       _TRAIN_MOVES + ("p50_ms@serve-open-loop",)),
    # -- kernels ---------------------------------------------------------
    _m("kernels.gather_ms", "ms", "lower",
       "gather_rows or the fused gather_quantize per call (median)",
       _TRAIN_MOVES + ("p50_ms@serve-open-loop",)),
    _m("kernels.quantize_ms", "ms", "lower",
       "the unfused transfer-precision kernel per call (median)",
       _TRAIN_MOVES, ("train-hybrid",)),
    _m("kernels.gather_src_bytes", "B", "lower",
       "feature bytes the gathers read, per iteration (serving: per "
       "micro-batch)", _TRAIN_MOVES + ("p50_ms@serve-open-loop",)),
    _m("kernels.payload_bytes", "B", "lower",
       "quantized link payload, per iteration (serving: per "
       "micro-batch)", _TRAIN_MOVES + ("p50_ms@serve-open-loop",)),
    _m("kernels.pool_hit_ratio", "ratio", "higher",
       "BufferPool hits over lookups (0 where no pool is used)",
       _TRAIN_MOVES),
    # -- nn --------------------------------------------------------------
    *(_m(f"nn.L{layer}.{phase}_{part}_ms", "ms", "lower",
         (f"layer {layer} {phase} "
          + ("aggregation: build_aggregator + SparseAggregator"
             if part == "agg" else
             "update: layer self time minus aggregation")
          + " per batch (median)"),
         ("targets_per_s@train-*",)
         + (("p50_ms@serve-open-loop",) if phase == "fwd" else ()),
         ALL if phase == "fwd" else TRAIN)
      for layer in (0, 1) for phase in ("fwd", "bwd")
      for part in ("agg", "update")),
    _m("nn.optimizer_ms", "ms", "lower",
       "the parent's SGD.step calls per iteration (median)",
       _TRAIN_MOVES, TRAIN),
    _m("train.final_loss", "loss", "lower",
       "mean training loss over the last 10 traced iterations",
       ("targets_per_s@train-*",), TRAIN),
    # -- runtime.synchronizer -------------------------------------------
    _m("sync.allreduce_ms", "ms", "lower",
       "GradientSynchronizer.all_reduce per iteration (median)",
       ("p50_ms@train-hybrid", "p50_ms@train-sharded"), TRAIN),
    _m("sync.grad_bytes", "B", "lower",
       "flat gradient bytes reduced per iteration (one per replica)",
       ("p50_ms@train-hybrid", "p50_ms@train-sharded"), TRAIN),
    # -- runtime.backends (process planes) -------------------------------
    _m("worker.busy_ms", "ms", "lower",
       "per worker and iteration: median iteration gap minus the "
       "worker's wait (median)",
       ("p50_ms@train-hybrid", "tail_ms@train-hybrid",
        "p50_ms@train-sharded", "tail_ms@train-sharded"),
       ("train-hybrid", "train-sharded")),
    _m("worker.wait_ms", "ms", "lower",
       "per worker and iteration: time its training thread blocked for "
       "input, on the pipe (lock-step workers) or on its stage buffers "
       "(overlapped workers): dealing, pipes and straggler wait (median)",
       ("p50_ms@train-hybrid", "tail_ms@train-hybrid",
        "p50_ms@train-sharded", "tail_ms@train-sharded"),
       ("train-hybrid", "train-sharded")),
    _m("worker.imbalance_ratio", "ratio", "lower",
       "per iteration: max over mean worker busy (median)",
       ("p50_ms@train-hybrid", "tail_ms@train-hybrid",
        "p50_ms@train-sharded", "tail_ms@train-sharded"),
       ("train-hybrid", "train-sharded")),
    _m("dealer.lookahead_depth_mean", "count", "higher",
       "mean look-ahead depth in effect per iteration",
       ("p50_ms@train-hybrid", "tail_ms@train-hybrid"),
       ("train-hybrid",)),
    # -- runtime.prefetch ------------------------------------------------
    _m("prefetch.get_wait_ms", "ms", "lower",
       "PrefetchBuffer.get time of the train consumer waiting for a "
       "prepared batch, per iteration (median)",
       ("targets_per_s@train-hybrid",),
       ("train-hybrid",)),
    _m("prefetch.put_wait_ms", "ms", "lower",
       "PrefetchBuffer.put time of producers blocked on a full buffer, "
       "summed per iteration (median)",
       ("targets_per_s@train-hybrid",),
       ("train-hybrid",)),
    _m("prefetch.occupancy_mean", "count", "higher",
       "mean stage-buffer occupancy over the report's stages",
       ("targets_per_s@train-hybrid",),
       ("train-hybrid",)),
    # -- runtime.drm / resctl / perfmodel --------------------------------
    _m("timing.step_ms", "ms", "lower",
       "self time of TrainingSession.timing_step per iteration (median)",
       ("tail_ms@train-hybrid",),
       ("train-hybrid",)),
    _m("drm.moves", "count", "lower",
       "iterations whose workload split differs from the previous one",
       ("tail_ms@train-hybrid",),
       ("train-hybrid",)),
    _m("drm.cpu_share", "ratio", "higher",
       "CPU trainer's share of the per-iteration targets (median)",
       ("tail_ms@train-hybrid",),
       ("train-hybrid",)),
    # Model beside realized (Fig. 8 at stage granularity); informational.
    *(_m(f"{source}.{stage}_ms", "ms", "lower",
         (f"{'realized' if source == 'stage' else 'perf-model'} "
          f"{stage} stage time per iteration (median)"
          + ("; the model prices the paper's hardware"
             if source == "model" else "")),
         ("tail_ms@train-hybrid",),
         ("train-hybrid",))
      for stage in ("sample_cpu", "sample_accel", "load", "transfer",
                    "train_cpu", "train_accel", "sync")
      for source in ("stage", "model")),
    # -- runtime.remote_cache / ShardMap ---------------------------------
    _m("shard.local_bytes", "B", "lower",
       "feature bytes resolved from the worker's own shard, per "
       "iteration (median)", ("p50_ms@train-sharded",),
       ("train-sharded",)),
    _m("shard.remote_bytes", "B", "lower",
       "feature bytes billed as remote fetches, per iteration (median)",
       ("p50_ms@train-sharded",), ("train-sharded",)),
    _m("remote_cache.hit_ratio", "ratio", "higher",
       "RemoteFeatureCache hits over remote lookups",
       ("p50_ms@train-sharded",), ("train-sharded",)),
    _m("shard.resolve_ms", "ms", "lower",
       "the worker's local/cache/remote row resolution per batch (mean "
       "of the report's load-stage accounting)",
       ("p50_ms@train-sharded",), ("train-sharded",)),
    # -- serving ---------------------------------------------------------
    _m("serving.queue_wait_ms", "ms", "lower",
       "scheduled arrival to the start of its micro-batch's "
       "preparation (median, nominal phase)",
       ("p50_ms@serve-open-loop", "tail_ms@serve-open-loop"), SERVE),
    _m("serving.batch_requests_mean", "count", "higher",
       "requests per executed micro-batch (mean, both phases)",
       ("targets_per_s@serve-open-loop",), SERVE),
    _m("serving.dedup_ratio", "ratio", "lower",
       "unique targets sampled over targets requested",
       ("targets_per_s@serve-open-loop",), SERVE),
    _m("serving.prepare_ms", "ms", "lower",
       "StagePipeline.prepare per micro-batch (median)",
       ("p50_ms@serve-open-loop", "targets_per_s@serve-open-loop"),
       SERVE),
    _m("serving.forward_ms", "ms", "lower",
       "model forward per micro-batch (median)",
       ("p50_ms@serve-open-loop", "targets_per_s@serve-open-loop"),
       SERVE),
    _m("serving.submit_us", "us", "lower",
       "ServingSession.submit per request (median)",
       ("tail_ms@serve-open-loop",), SERVE),
    _m("loadgen.lateness_ms", "ms", "lower",
       "p99 of how far behind its schedule the generator submitted, "
       "nominal phase", ("tail_ms@serve-open-loop",), SERVE),
    # -- the tracer itself -----------------------------------------------
    _m("trace.overhead_ratio", "ratio", "higher",
       "traced over untraced targets_per_s", ("none",)),
)

END_TO_END_NAMES = tuple(m.name for m in END_TO_END)
PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)
BY_NAME = {m.name: m for m in END_TO_END + PER_LAYER}

"""Per-layer metrics of a traced run, from its spans and its report.

Every function takes what the traced run recorded and returns
``{metric_name: (value, sample_count)}`` for its layer. A metric whose
layer the workload never exercises reads 0 with 0 samples.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from .spans import Span
from .stats import median, percentile, self_times

MS = 1e6      # nanoseconds per millisecond


class SpanIndex:
    """The traced run's spans, grouped for the aggregations below."""

    def __init__(self, spans: Iterable[Span], root_pid: int) -> None:
        self.spans = list(spans)
        self.root_pid = root_pid
        self.by_id = {s.span_id: s for s in self.spans}
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        for s in self.spans:
            self.by_name[s.name].append(s)
        self.self_ns = self_times((s.span_id, s.parent_id, s.start_ns,
                                   s.end_ns) for s in self.spans)

    def named(self, name: str) -> list[Span]:
        return self.by_name.get(name, [])

    def parent(self, span: Span) -> Span | None:
        return self.by_id.get(span.parent_id)


def _med(values: list[float]) -> tuple[float, int]:
    return (median(values), len(values)) if values else (0.0, 0)


def _per_iteration(spans: Iterable[Span], value) -> list[float]:
    """Sum ``value(span)`` per (process, iteration); one entry each."""
    sums: dict[tuple[int, int], float] = defaultdict(float)
    for s in spans:
        sums[(s.pid, s.iteration)] += value(s)
    return list(sums.values())


def sampling_and_kernels(ix: SpanIndex) -> dict:
    samples = ix.named("sampling.sample")
    return {
        "sampling.sample_ms": _med([s.ms for s in samples]),
        "sampling.input_nodes": _med([s.attrs["input_nodes"]
                                      for s in samples]),
        "sampling.edges": _med([s.attrs["edges"] for s in samples]),
        "kernels.gather_ms": _med([s.ms for s in
                                   ix.named("kernels.gather")]),
        "kernels.quantize_ms": _med([s.ms for s in
                                     ix.named("kernels.quantize")]),
    }


def kernel_traffic(kernel_stats: dict, units: int) -> dict:
    """Counter totals per iteration (or per micro-batch: ``units``)."""
    units = max(1, units)
    hits = kernel_stats.get("pool_hits", 0)
    lookups = hits + kernel_stats.get("pool_misses", 0)
    return {
        "kernels.gather_src_bytes":
            (kernel_stats.get("gather_src_bytes", 0) / units, units),
        "kernels.payload_bytes":
            (kernel_stats.get("payload_bytes", 0) / units, units),
        "kernels.pool_hit_ratio": (hits / lookups if lookups else 0.0,
                                   lookups),
    }


def nn_layers(ix: SpanIndex, layers: int = 2) -> dict:
    """Aggregation and update time per GNN layer, forward and backward,
    one sample per model forward / backward call."""
    # (model span id, layer) -> ms, for each of the four quantities.
    parts: dict[str, dict] = {key: defaultdict(float) for key in
                              ("fwd_agg", "fwd_update", "bwd_agg",
                               "bwd_update")}
    for s in ix.named("nn.build_aggregator"):
        parts["fwd_agg"][(s.parent_id, s.attrs["layer"])] += s.ms
    for phase in ("forward", "backward"):
        prefix = "fwd" if phase == "forward" else "bwd"
        for s in ix.named(f"nn.layer.{phase}"):
            key = (s.parent_id, s.attrs["layer"])
            parts[f"{prefix}_update"][key] += ix.self_ns[s.span_id] / MS
        for s in ix.named(f"nn.agg.{phase}"):
            layer = ix.parent(s)
            if layer is None:
                continue
            parts[f"{prefix}_agg"][(layer.parent_id,
                                    layer.attrs["layer"])] += s.ms
    out = {}
    for layer in range(layers):
        for phase in ("fwd", "bwd"):
            for part in ("agg", "update"):
                values = [v for (_, idx), v in
                          parts[f"{phase}_{part}"].items()
                          if idx == layer]
                out[f"nn.L{layer}.{phase}_{part}_ms"] = _med(values)
    parent_steps = [s for s in ix.named("nn.optimizer")
                    if s.pid == ix.root_pid]
    out["nn.optimizer_ms"] = _med(_per_iteration(parent_steps,
                                                 lambda s: s.ms))
    return out


def synchronizer(ix: SpanIndex) -> dict:
    reduces = ix.named("sync.all_reduce")
    return {
        "sync.allreduce_ms": _med([s.ms for s in reduces]),
        "sync.grad_bytes": _med([s.attrs["grad_bytes"]
                                 for s in reduces]),
    }


def _training_threads(ix: SpanIndex) -> set[tuple[int, int]]:
    """(pid, tid) of every thread that ran ``trainer.train``."""
    return {(s.pid, s.tid) for s in ix.named("trainer.train")}


def workers(ix: SpanIndex, iteration_gaps_ms: list[float]) -> dict:
    """Per worker process and iteration: wait = the time its training
    thread was blocked for input (the pipe on lock-step workers, the
    stage buffers on overlapped ones); busy = iteration gap - wait."""
    if not iteration_gaps_ms:
        return {}
    gap = median(iteration_gaps_ms)
    trainers = {key for key in _training_threads(ix)
                if key[0] != ix.root_pid}
    waits: dict[tuple[int, int], float] = defaultdict(float)
    seen: set[tuple[int, int]] = set()
    for s in ix.spans:
        if (s.pid, s.tid) not in trainers:
            continue
        seen.add((s.pid, s.iteration))
        if s.name in ("ipc.recv", "prefetch.get"):
            waits[(s.pid, s.iteration)] += s.ms
    if not seen:
        return {}
    wait = {key: waits.get(key, 0.0) for key in seen}
    busy = {key: gap - w for key, w in wait.items()}
    by_iteration: dict[int, list[float]] = defaultdict(list)
    for (_, iteration), b in busy.items():
        by_iteration[iteration].append(b)
    ratios = [max(bs) / (sum(bs) / len(bs))
              for bs in by_iteration.values()
              if len(bs) > 1 and sum(bs) > 0]
    return {
        "worker.busy_ms": _med(list(busy.values())),
        "worker.wait_ms": _med(list(wait.values())),
        "worker.imbalance_ratio": _med(ratios),
    }


def prefetch(ix: SpanIndex, stage_stats: dict) -> dict:
    """Consumer starvation: a training thread's ``get`` that is followed
    by ``trainer.train`` (not its wait for the averaged update)."""
    trainers = _training_threads(ix)
    by_thread: dict[tuple[int, int], list[Span]] = defaultdict(list)
    for s in ix.spans:
        if (s.pid, s.tid) in trainers and s.parent_id is None and \
                s.name in ("prefetch.get", "trainer.train"):
            by_thread[(s.pid, s.tid)].append(s)
    starved = []
    for spans in by_thread.values():
        spans.sort(key=lambda s: s.start_ns)
        starved.extend(a for a, b in zip(spans, spans[1:])
                       if a.name == "prefetch.get"
                       and b.name == "trainer.train")
    occupancy = [st.mean_occupancy for st in stage_stats.values()]
    return {
        "prefetch.get_wait_ms": _med(_per_iteration(starved,
                                                    lambda s: s.ms)),
        "prefetch.put_wait_ms": _med(_per_iteration(
            ix.named("prefetch.put"), lambda s: s.ms)),
        "prefetch.occupancy_mean": (sum(occupancy) / len(occupancy)
                                    if occupancy else 0.0,
                                    len(occupancy)),
    }


def lookahead_depth(report) -> dict:
    """The fused process plane's dealer depth at each retire."""
    depths = [depth for _, depth in
              getattr(report, "lookahead_history", ())]
    if not depths:
        return {}
    return {"dealer.lookahead_depth_mean":
            (sum(depths) / len(depths), len(depths))}


def timing_plane(ix: SpanIndex, split_history: list) -> dict:
    steps = ix.named("timing.step")
    out = {"timing.step_ms": _med([ix.self_ns[s.span_id] / MS
                                   for s in steps])}
    if split_history:
        moves = sum(1 for a, b in zip(split_history, split_history[1:])
                    if a != b)
        out["drm.moves"] = (float(moves), len(split_history))
        out["drm.cpu_share"] = _med([sp.cpu_targets / sp.total_targets
                                     for sp in split_history
                                     if sp.total_targets])
    for source in ("realized", "model"):
        prefix = "stage" if source == "realized" else "model"
        per_stage: dict[str, list[float]] = defaultdict(list)
        for s in steps:
            for stage, seconds in s.attrs[source].items():
                per_stage[stage].append(seconds * 1e3)
        for stage, values in per_stage.items():
            out[f"{prefix}.{stage}_ms"] = _med(values)
    return out


def sharding(report) -> dict:
    per_iteration: dict[int, list[int]] = defaultdict(lambda: [0, 0])
    for rec in report.shard_io:
        per_iteration[rec["iteration"]][0] += rec["local_bytes"]
        per_iteration[rec["iteration"]][1] += rec["remote_bytes"]
    count, total_s = report.stage_seconds.get("load", (0, 0.0))
    hits = report.kernel_stats.get("remote_cache_hits", 0)
    lookups = hits + report.kernel_stats.get("remote_cache_misses", 0)
    return {
        "shard.local_bytes": _med([v[0] for v in
                                   per_iteration.values()]),
        "shard.remote_bytes": _med([v[1] for v in
                                    per_iteration.values()]),
        "remote_cache.hit_ratio": (report.remote_cache_hit_rate,
                                   lookups),
        "shard.resolve_ms": (total_s / count * 1e3 if count else 0.0,
                             count),
    }


def serving(ix: SpanIndex, outcomes: list, lateness_s: list[float],
            answered: int, requested_targets: int) -> dict:
    """``outcomes`` holds the traced nominal phase's requests as
    ``(arrival_s, batch_ordinal)`` (ordinal ``None`` when shed), the
    ordinal indexing the traced micro-batches in execution order;
    ``answered`` counts the requests the traced phases answered and
    ``requested_targets`` the targets those requests named."""
    prepares = sorted(ix.named("serving.prepare"),
                      key=lambda s: s.start_ns)
    starts = [s.start_ns / 1e9 for s in prepares]
    queue = [(starts[ordinal] - arrival) * 1e3
             for arrival, ordinal in outcomes
             if ordinal is not None and ordinal < len(starts)]
    forwards = ix.named("nn.model.forward")
    unique = sum(s.attrs["unique_targets"] for s in prepares)
    return {
        "serving.queue_wait_ms": _med(queue),
        "serving.batch_requests_mean": (answered / len(prepares)
                                        if prepares else 0.0,
                                        len(prepares)),
        "serving.dedup_ratio": (unique / requested_targets
                                if requested_targets else 0.0,
                                len(prepares)),
        "serving.prepare_ms": _med([s.ms for s in prepares]),
        "serving.forward_ms": _med([s.ms for s in forwards]),
        "serving.submit_us": _med([s.ms * 1e3 for s in
                                   ix.named("serving.submit")]),
        "loadgen.lateness_ms": ((percentile(lateness_s, 99) * 1e3,
                                 len(lateness_s))
                                if lateness_s else (0.0, 0)),
    }

"""The three workloads: set-up, timed run, output checks.

Every workload runs on the scaled ``ogbn-products`` graph (19,133
vertices, ~503k edges, 1,536 train vertices, 100 features, 47 classes)
with a 2-layer model, fanouts (10, 5) and hidden size 128. The seed
builds the dataset and seeds the model, the partitioner and the load
generator; the program only ever sees the generated inputs.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.config import ABLATION_PRESETS, SystemConfig, TrainingConfig
from repro.graph.datasets import load_dataset
from repro.hw.topology import hyscale_cpu_gpu_platform
from repro.runtime import TrainingSession
from repro.runtime.backends import build_backend
from repro.runtime.backends import sharded as sharded_backend
from repro.serving import SHED_REASONS, ServingConfig, ServingSession

from . import layers
from .instrument import (
    DealLedger,
    IterationClock,
    PartitionTimer,
    install_spans,
)
from .spans import Tracer
from .stats import (
    gaps,
    goodput_per_s,
    median,
    windowed_goodput,
    windowed_tail,
)

DATASET = "ogbn-products"
FANOUTS = (10, 5)
HIDDEN = 128
MINIBATCH = 256
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Iterations of the run that ends the last set-up (starts the workers,
#: fills caches) and sets the timed run's length; the earlier set-ups
#: run one iteration, enough to start their workers.
WARMUP_ITERATIONS = 10
#: Warm-up gaps left out of the iteration-time estimate: the first
#: iterations start workers and fill the stage pipeline.
WARMUP_SKIP = 2
#: Timed runs per measurement (a backend runs a count of iterations,
#: so the first run's rate sizes the second to fill the time).
TIMED_CHUNKS = 2
#: ``tail_ms`` of training: the median over windows of this many
#: consecutive iteration gaps of each window's p90 (10 beyond it).
TAIL_WINDOW_GAPS = 100
#: The timed run fills at least one window.
MIN_TIMED_ITERATIONS = TAIL_WINDOW_GAPS + 1
#: Iterations whose mean loss is ``train.final_loss``.
FINAL_LOSS_WINDOW = 10

LATENCY_LIMIT_S = 0.1
#: About a tenth of the overload capacity measured on a shared 2-vCPU
#: host (1.4k-2.2k requests/s as the host's speed drifts): the
#: 64-request queue bound then leaves 320 ms of slack for host stalls,
#: which reached ~250 ms there, before anything sheds.
NOMINAL_RPS = 200.0
OVERLOAD_RPS = 5000.0
TARGETS_PER_REQUEST = 4
#: ``tail_ms`` of serving: the median over windows of this many
#: consecutive nominal requests of each window's p90 (10 beyond it).
#: The p99 of light load measures the host's stalls more than the
#: server: on a shared 2-vCPU host it ranged 17-49 ms run to run.
TAIL_WINDOW_REQUESTS = 100
#: The nominal phase fills at least one window.
MIN_NOMINAL_REQUESTS = TAIL_WINDOW_REQUESTS
#: Window of the overload phase's goodput; the median window counts.
GOODPUT_WINDOW_S = 1.0
DRAIN_GRACE_S = 10.0


@dataclass
class Result:
    """What one run measured, checked and counted."""

    metrics: dict[str, tuple[float, int]] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    info: dict = field(default_factory=dict)
    mp_start_method: str | None = None


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------

def train_config(model: str, seed: int) -> TrainingConfig:
    return TrainingConfig(model=model, minibatch_size=MINIBATCH,
                          fanouts=FANOUTS, hidden_dim=HIDDEN, seed=seed)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _setup_metrics(setups: list[dict], keys: tuple[str, ...]) -> dict:
    return {f"setup.{k}_s": (median([s[k] for s in setups]),
                             len(setups)) for k in keys}


# ---------------------------------------------------------------------------
# Training workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainSpec:
    backend: str
    model: str
    precision: str
    platform: bool
    options: tuple = ()


TRAIN_SPECS = {
    "train-hybrid": TrainSpec("process_pipelined", "sage", "int8", True),
    "train-sharded": TrainSpec("sharded", "sage", "fp32", False,
                               (("partitioner", "bfs"),
                                ("remote_cache_rows", 2000))),
}


def _build_training(spec: TrainSpec, seed: int):
    """One set-up: dataset, session, backend; returns them with the
    seconds each took."""
    t0 = time.perf_counter()
    ds = load_dataset(DATASET, seed=seed)
    t1 = time.perf_counter()
    cfg = train_config(spec.model, seed)
    if spec.platform:
        sys_cfg = ABLATION_PRESETS["hybrid_drm_tfp"].with_updates(
            transfer_precision=spec.precision)
        session = TrainingSession(ds, cfg, sys_cfg,
                                  hyscale_cpu_gpu_platform(1))
    else:
        sys_cfg = SystemConfig(hybrid=True, drm=False,
                               transfer_precision=spec.precision)
        session = TrainingSession(ds, cfg, sys_cfg, num_trainers=2)
    t2 = time.perf_counter()
    options = dict(spec.options)
    if "partitioner" in options:
        options["partition_seed"] = seed
    backend = build_backend(spec.backend, session, **options)
    t3 = time.perf_counter()
    return session, backend, {"dataset": t1 - t0, "session": t2 - t1,
                              "backend": t3 - t2}


def _work_source(backend, session):
    return getattr(backend, "shard_plan", None) or session.plan


@dataclass
class _Chunk:
    """One timed ``backend.run``: its report, the all-reduce return
    stamps, the targets dealt per iteration and the output checks."""

    report: object
    stamps: list[float]
    targets: list[int]
    checks: dict[str, bool]

    @property
    def iterations(self) -> int:
        return len(self.targets)

    @property
    def gaps_ms(self) -> list[float]:
        return [g * 1e3 for g in gaps(self.stamps)]


def targets_per_s(chunks: list[_Chunk]) -> float:
    """Targets trained per second of the chunks' timed loops."""
    return (sum(sum(c.targets) for c in chunks)
            / sum(c.report.wall_time_s for c in chunks))


class _TimedTraining:
    """A set-up session plus the hooks the timed runs read."""

    def __init__(self, spec: TrainSpec, seed: int) -> None:
        self.spec = spec
        self.setups: list[dict] = []
        self.clock = IterationClock()
        self.partition = PartitionTimer(sharded_backend.PARTITIONERS)
        try:
            for k in range(SETUP_REPEATS):
                self.session = self.backend = None
                gc.collect()
                self.session, self.backend, times = \
                    _build_training(spec, seed)
                self.clock.start()
                warm = self.backend.run(WARMUP_ITERATIONS
                                        if k == SETUP_REPEATS - 1 else 1)
                stamps = self.clock.stop()
                # Worker start-up; the in-process planes have none.
                times["startup"] = getattr(warm, "startup_time_s", 0.0)
                times["setup"] = sum(times.values())
                self.setups.append(times)
        except BaseException:
            self.clock.close()
            raise
        finally:
            self.partition.close()
        self.mp_start_method = getattr(self.backend, "mp_context", None)
        # A first guess; every timed run replaces it with its own rate.
        self.iteration_s = ((stamps[-1] - stamps[WARMUP_SKIP])
                            / (len(stamps) - 1 - WARMUP_SKIP))

    def iterations_for(self, seconds: float, floor: int) -> int:
        return max(floor, int(math.ceil(seconds / self.iteration_s)))

    def run(self, iterations: int) -> _Chunk:
        with DealLedger(self.session.plan,
                        _work_source(self.backend,
                                     self.session)) as ledger:
            self.clock.start()
            try:
                report = self.backend.run(iterations)
            finally:
                stamps = self.clock.stop()
        self.iteration_s = report.wall_time_s / iterations
        return _Chunk(report, stamps,
                      [sum(sizes) for sizes in ledger.dealt],
                      _training_checks(self.spec, report, ledger,
                                       iterations))

    def run_for(self, seconds: float, floor: int) -> list[_Chunk]:
        """``TIMED_CHUNKS`` timed runs filling ``seconds`` together,
        with at least ``floor`` iterations in all; each sizes itself on
        the rate the previous one measured."""
        start = time.perf_counter()
        chunks: list[_Chunk] = []
        # +1: a run of n iterations yields n - 1 gaps.
        per_chunk_floor = -(-floor // TIMED_CHUNKS) + 1
        for k in range(TIMED_CHUNKS):
            left = seconds - (time.perf_counter() - start)
            chunks.append(self.run(self.iterations_for(
                left / (TIMED_CHUNKS - k), per_chunk_floor)))
        return chunks

    def close(self) -> None:
        self.clock.close()


def _training_checks(spec: TrainSpec, report, ledger: DealLedger,
                     iterations: int) -> dict[str, bool]:
    losses = list(report.losses)
    checks = {
        "replicas_consistent": bool(report.replicas_consistent),
        "losses_finite": len(losses) == iterations
        and all(math.isfinite(x) for x in losses),
    }
    quotas, dealt = ledger.quotas, ledger.dealt
    same_count = len(quotas) == len(dealt) == iterations
    if spec.backend == "sharded":
        # The shard plan apportions the quota's total across shards.
        per_iteration = all(sum(d) == sum(q)
                            for d, q in zip(dealt, quotas))
    else:
        per_iteration = all(tuple(d) == tuple(q)
                            for d, q in zip(dealt, quotas))
    checks["dealt_equals_quota"] = same_count and per_iteration
    total = sum(sum(d) for d in dealt)
    trained = getattr(report, "worker_targets", None)
    if trained:
        trained_total = sum(int(np.asarray(t).size)
                            for per_worker in trained for t in per_worker)
    else:
        trained_total = sum(int(t.size) for t in report.trained_targets)
    checks["trained_equals_dealt"] = trained_total == total
    if spec.backend == "sharded":
        ks = report.kernel_stats
        resolved = sum(r["local_rows"] + r["remote_rows"] + r["cache_hits"]
                       for r in report.shard_io)
        checks["shard_rows_equal_gathered"] = (
            resolved == ks.get("gather_rows", -1)
            == ks.get("shard_local_rows", 0)
            + ks.get("shard_remote_rows", 0)
            + ks.get("remote_cache_hits", 0) > 0)
    return checks


def _merge_checks(chunks: list[_Chunk]) -> dict[str, bool]:
    merged: dict[str, bool] = {}
    for chunk in chunks:
        for name, ok in chunk.checks.items():
            merged[name] = merged.get(name, True) and ok
    return merged


def _failed(chunks: list[_Chunk]) -> int:
    return sum(1 for c in chunks for x in c.report.losses
               if not math.isfinite(x))


def run_training(name: str, seed: int, seconds: float,
                 tracer: Tracer | None) -> Result:
    spec = TRAIN_SPECS[name]
    result = Result()
    timed = _TimedTraining(spec, seed)
    try:
        result.mp_start_method = timed.mp_start_method
        plain_share = 1.0 if tracer is None else 0.4
        floor = MIN_TIMED_ITERATIONS if tracer is None else 30
        chunks = timed.run_for(seconds * plain_share, floor)
        result.checks.update(_merge_checks(chunks))
        result.attempted += sum(c.iterations for c in chunks)
        result.failed += _failed(chunks)
        rate = targets_per_s(chunks)
        gaps_ms = [g for c in chunks for g in c.gaps_ms]
        result.info.update(iterations=[c.iterations for c in chunks],
                           chunk_targets_per_s=[targets_per_s([c])
                                                for c in chunks],
                           gaps_ms=gaps_ms,
                           final_loss=float(np.mean(
                               chunks[-1].report.losses[
                                   -FINAL_LOSS_WINDOW:])))
        if tracer is None:
            result.metrics.update({
                "targets_per_s": (rate, len(chunks)),
                "p50_ms": (median(gaps_ms), len(gaps_ms)),
                "tail_ms": (median(windowed_tail(gaps_ms, 90,
                                                 TAIL_WINDOW_GAPS)),
                            len(gaps_ms)),
                "setup_s": (median([s["setup"] for s in timed.setups]),
                            len(timed.setups)),
            })
        else:
            _traced_training(timed, spec, seconds * (1 - plain_share),
                             tracer, rate, result)
    finally:
        timed.close()
    result.metrics["peak_rss_mb"] = (peak_rss_mb(), 1)
    return result


def _traced_training(timed: _TimedTraining, spec: TrainSpec,
                     seconds: float, tracer: Tracer,
                     plain_targets_per_s: float, result: Result) -> None:
    iterations = timed.iterations_for(seconds, 30)
    install_spans(tracer)
    tracer.enabled = True
    try:
        traced = timed.run(iterations)
    finally:
        tracer.uninstall()
    tracer.collect()
    report = traced.report
    result.checks.update({f"traced.{k}": v
                          for k, v in traced.checks.items()})
    result.attempted += iterations
    result.failed += _failed([traced])

    ix = layers.SpanIndex(tracer.spans, tracer.root_pid)
    m = result.metrics
    m.update(_setup_metrics(timed.setups,
                            ("dataset", "session", "backend", "startup")))
    m["graph.partition_s"] = ((median(timed.partition.seconds),
                               len(timed.partition.seconds))
                              if timed.partition.seconds else (0.0, 0))
    m.update(layers.sampling_and_kernels(ix))
    m.update(layers.kernel_traffic(report.kernel_stats, iterations))
    m.update(layers.nn_layers(ix))
    m["train.final_loss"] = (float(np.mean(
        report.losses[-FINAL_LOSS_WINDOW:])), FINAL_LOSS_WINDOW)
    m.update(layers.synchronizer(ix))
    m.update(layers.workers(ix, traced.gaps_ms))
    m.update(layers.prefetch(ix, getattr(report, "stage_stats", {})))
    m.update(layers.lookahead_depth(report))
    m.update(layers.timing_plane(ix, list(report.split_history)))
    if spec.backend == "sharded":
        m.update(layers.sharding(report))
    m["trace.overhead_ratio"] = (targets_per_s([traced])
                                 / plain_targets_per_s, 1)


# ---------------------------------------------------------------------------
# Serving workload
# ---------------------------------------------------------------------------

def _build_serving(seed: int):
    t0 = time.perf_counter()
    ds = load_dataset(DATASET, seed=seed)
    t1 = time.perf_counter()
    session = ServingSession(
        ds, train_config("sage", seed),
        SystemConfig(transfer_precision="int8"),
        config=ServingConfig(latency_budget_s=LATENCY_LIMIT_S,
                             coalesce_window_s=0.01,
                             max_batch_targets=64,
                             max_pending_requests=64, device="accel"),
        clock=time.perf_counter)
    t2 = time.perf_counter()
    return session, {"dataset": t1 - t0, "session": t2 - t1}


@dataclass
class Phase:
    """One open-loop phase. Per request (arrays of the phase's length):
    its scheduled arrival, its latency (NaN if shed), the ordinal of
    the micro-batch that answered it (-1 if shed) and how late the
    generator submitted it."""

    duration_s: float
    arrivals: np.ndarray
    latencies: np.ndarray
    ordinals: np.ndarray
    lateness_s: np.ndarray
    shed: dict[str, int] = field(default_factory=dict)
    responses: int = 0
    bad_predictions: int = 0

    @property
    def answered_latencies(self) -> list[float]:
        return self.latencies[~np.isnan(self.latencies)].tolist()


class OpenLoop:
    """Single-thread open-loop generator over one serving session.

    Requests are due every ``1/rate`` seconds from the phase start,
    whatever the session does; each is stamped with its scheduled
    arrival, so latency includes the wait a stall imposes on later
    requests.
    """

    def __init__(self, session: ServingSession, seed: int) -> None:
        self.session = session
        self.rng = np.random.default_rng(seed)
        self.ids = session.dataset.train_ids
        self.num_classes = session.dataset.spec.num_classes
        self.submitted = 0        # == the session's next request id
        self.batches = 0          # micro-batches answered so far

    def _draw(self, n: int) -> np.ndarray:
        """``n`` requests of distinct train-vertex targets each."""
        draws = self.rng.choice(self.ids, size=(n, TARGETS_PER_REQUEST))
        srt = np.sort(draws, axis=1)
        for row in np.flatnonzero((srt[:, 1:] == srt[:, :-1]).any(axis=1)):
            draws[row] = self.rng.choice(self.ids, TARGETS_PER_REQUEST,
                                         replace=False)
        return draws

    def run(self, rate_rps: float, duration_s: float) -> Phase:
        session = self.session
        clock = session.clock
        n = max(1, int(round(rate_rps * duration_s)))
        draws = self._draw(n)
        first_id = self.submitted
        start = clock()
        phase = Phase(n / rate_rps,
                      arrivals=start + np.arange(n) / rate_rps,
                      latencies=np.full(n, np.nan),
                      ordinals=np.full(n, -1, dtype=np.int64),
                      lateness_s=np.full(n, np.nan))
        arrivals = phase.arrivals.tolist()
        i = 0
        while i < n:
            now = clock()
            while i < n and arrivals[i] <= now:
                phase.lateness_s[i] = clock() - arrivals[i]
                shed = session.submit(draws[i], arrival_s=arrivals[i])
                if shed is not None:
                    if shed.request_id != first_id + i:
                        raise RuntimeError(
                            "request ids no longer follow submit order")
                    phase.shed[shed.reason] = \
                        phase.shed.get(shed.reason, 0) + 1
                self.submitted += 1
                i += 1
            self._record(phase, first_id, session.step())
        deadline = clock() + DRAIN_GRACE_S
        while session.admission.pending > 0:
            if clock() > deadline:
                raise RuntimeError("serving drain exceeded its grace")
            session.batcher.flush()
            self._record(phase, first_id, session.step())
        return phase

    def _record(self, phase: Phase, first_id: int, responses) -> None:
        last_seq = None
        for r in responses:
            if r.batch_seq != last_seq:
                last_seq = r.batch_seq
                self.batches += 1
            k = r.request_id - first_id
            phase.latencies[k] = r.latency_s
            phase.ordinals[k] = self.batches - 1
            phase.responses += 1
            preds = np.asarray(r.predictions)
            if preds.shape != (TARGETS_PER_REQUEST,) or \
                    preds.min() < 0 or preds.max() >= self.num_classes:
                phase.bad_predictions += 1


def _serving_checks(phase_nominal: Phase, phase_overload: Phase,
                    session: ServingSession, prefix: str = ""
                    ) -> dict[str, bool]:
    report = session.report
    phases = (phase_nominal, phase_overload)
    return {
        f"{prefix}accepted_equals_completed":
            report.accepted == report.completed
            and session.admission.pending == 0,
        f"{prefix}one_response_per_accepted": all(
            p.responses == p.latencies.size - sum(p.shed.values())
            for p in phases),
        f"{prefix}sheds_typed": all(reason in SHED_REASONS
                                    for p in phases for reason in p.shed),
        f"{prefix}nominal_sheds_nothing": not phase_nominal.shed,
        f"{prefix}predictions_valid": all(p.bad_predictions == 0
                                          for p in phases),
    }


def _goodput_rps(phase: Phase) -> float:
    return goodput_per_s(phase.latencies.tolist(), LATENCY_LIMIT_S,
                         phase.duration_s)


def _goodput_windows(phase: Phase) -> list[float]:
    """Goodput (requests/s) per 1-second window of scheduled arrivals;
    ``targets_per_s`` is the median window times the request size."""
    return windowed_goodput(phase.arrivals.tolist(),
                            phase.latencies.tolist(),
                            LATENCY_LIMIT_S, float(phase.arrivals[0]),
                            phase.duration_s,
                            min(GOODPUT_WINDOW_S, phase.duration_s))


def run_serving(seed: int, seconds: float,
                tracer: Tracer | None) -> Result:
    result = Result()
    setups = []
    session = None
    for _ in range(SETUP_REPEATS):
        if session is not None:
            session.close()
        session = None
        gc.collect()
        session, times = _build_serving(seed)
        times["setup"] = sum(times.values())
        setups.append(times)
        # Warm caches and lazy set-up before anything is timed.
        OpenLoop(session, seed).run(NOMINAL_RPS, 0.3)
    loop = OpenLoop(session, seed + 1)
    loop.submitted = session.report.offered
    try:
        if tracer is None:
            nominal_s = max(seconds * 0.55,
                            MIN_NOMINAL_REQUESTS / NOMINAL_RPS)
            nominal = loop.run(NOMINAL_RPS, nominal_s)
            overload = loop.run(OVERLOAD_RPS, seconds * 0.45)
            result.checks.update(_serving_checks(nominal, overload,
                                                 session))
            done = nominal.answered_latencies
            windows = _goodput_windows(overload)
            result.info["goodput_windows"] = windows
            result.metrics.update({
                "targets_per_s": (median(windows) * TARGETS_PER_REQUEST,
                                  len(windows)),
                "p50_ms": (median(done) * 1e3, len(done)),
                "tail_ms": (median(windowed_tail(done, 90,
                                                 TAIL_WINDOW_REQUESTS))
                            * 1e3, len(done)),
                "setup_s": (median([s["setup"] for s in setups]),
                            len(setups)),
            })
            phases = (nominal, overload)
        else:
            phases = _traced_serving(session, loop, seconds, tracer,
                                     setups, result)
        nominal = phases[0]
        result.attempted = int(nominal.latencies.size)
        result.failed = int(np.isnan(nominal.latencies).sum())
        result.info.update(
            shed=[p.shed for p in phases],
            goodput_rps=_goodput_rps(phases[1]),
            nominal_requests=int(nominal.latencies.size),
            overload_requests=int(phases[1].latencies.size))
    finally:
        session.close()
    result.metrics["peak_rss_mb"] = (peak_rss_mb(), 1)
    return result


def _traced_serving(session: ServingSession, loop: OpenLoop,
                    seconds: float, tracer: Tracer, setups: list[dict],
                    result: Result) -> tuple[Phase, Phase]:
    plain = loop.run(OVERLOAD_RPS, seconds * 0.25)
    install_spans(tracer)
    tracer.enabled = True
    try:
        nominal = loop.run(NOMINAL_RPS, seconds * 0.4)
        overload = loop.run(OVERLOAD_RPS, seconds * 0.25)
    finally:
        tracer.uninstall()
    result.checks.update(_serving_checks(nominal, overload, session,
                                         "traced."))
    ix = layers.SpanIndex(tracer.spans, tracer.root_pid)
    m = result.metrics
    m.update(_setup_metrics(setups, ("dataset", "session")))
    m.update(layers.sampling_and_kernels(ix))
    m.update(layers.kernel_traffic(session.counters.snapshot(),
                                   len(session.report.batch_sizes)))
    m.update(layers.nn_layers(ix))
    batches_before = loop.batches - len(ix.named("serving.prepare"))
    outcomes = [(arrival, None if ordinal < 0
                 else ordinal - batches_before)
                for arrival, ordinal in zip(nominal.arrivals.tolist(),
                                            nominal.ordinals.tolist())]
    answered = nominal.responses + overload.responses
    m.update(layers.serving(ix, outcomes, nominal.lateness_s.tolist(),
                            answered, answered * TARGETS_PER_REQUEST))
    traced_windows = _goodput_windows(overload)
    m["trace.overhead_ratio"] = (median(traced_windows)
                                 / median(_goodput_windows(plain)),
                                 len(traced_windows))
    return nominal, overload


def write_trace(tracer: Tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(tracer.chrome_trace()))

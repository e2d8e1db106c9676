"""Partition-mapped sharded training plane (multi-node, simulated).

The worker-sampling plane (:mod:`.process_pipelined`) parallelizes the
sample stage but treats the feature store as one flat address space:
any worker gathers any row at host-memory cost. A multi-node
deployment cannot — DistDGL (Zheng et al., "Distributed Hybrid CPU and
GPU Training for GNNs on Billion-Scale Graphs") partitions the graph
across machines, trains each partition's target vertices on the machine
that owns them, and pays network cost for every feature row that lives
on another partition. ``sharded`` reproduces that execution structure
on one host, with the interconnect *accounted* rather than physical.
It is the worker-sampling plane at depth 1 (``process_sampling``) with
two things swapped — where rows come from and which targets each worker
is dealt:

* the graph is partitioned up front (``hash_partition`` — P3-style
  random assignment, the worst case for locality — or
  ``bfs_partition``, the METIS stand-in) into one shard per trainer
  replica, and the :class:`~repro.runtime.shm.SharedFeatureStore` is
  **shard-sliced**: features and labels are laid out in shard-major
  order (per-shard contiguous slices + the
  :class:`~repro.graph.shard_map.ShardMap` translation arrays travel
  in the segment);
* the work source is :class:`ShardPlan`, which deals each shard **only
  the targets it owns**: it mirrors the shared
  :class:`~repro.runtime.core.BatchPlan` epoch-for-epoch (same RNG
  stream, same bookkeeping) but filters each epoch permutation by the
  partition map and apportions every iteration's target budget across
  shards proportionally to the work each has left (largest-remainder
  rounding) — iteration counts, epoch coverage and per-iteration
  budget conservation stay *exact*;
* each worker's stage pipeline is a :class:`ShardStagePipeline`, whose
  ``gather`` resolves a minibatch's input rows three ways — local
  slice, :class:`~repro.runtime.remote_cache.RemoteFeatureCache` hit
  (a PaGraph-style static cache of its halo's hottest vertices), or
  remote miss (read from the owning shard's slice, billed as remote
  bytes) — and returns a per-minibatch local/remote io record that
  rides with its batch to the result message.

Gradient sync stays the per-iteration all-reduce barrier and DRM keeps
being adjudicated in the parent, exactly as on every worker-sampling
fixed point. Per-run local/remote byte totals and the cache hit rate
flow into ``report.kernel_stats`` (``shard_local_bytes`` /
``shard_remote_bytes`` / ``remote_cache_*`` keys ride the existing
``kstats`` pipe round trip) and the wall-clock bench's ``shard io``
column; per-minibatch records land in the report's ``shard_io``, and
the partition map it trained under in its ``shard_parts`` rider.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ... import kernels
from ...errors import ConfigError, ProtocolError
from ...graph.partition import bfs_partition, hash_partition
from ...graph.shard_map import ShardMap
from ...sampling.base import MiniBatch
from ..core import PlannedIteration
from ..stage_pipeline import StagePipeline
from .base import RunReport
from .options import ShardedOptions
from .process_sampling import ProcessSamplingBackend

#: The partitioners a sharded backend can be constructed with.
PARTITIONERS = {
    "hash": hash_partition,
    "bfs": bfs_partition,
}


# ---------------------------------------------------------------------------
# Parent-side dealing
# ---------------------------------------------------------------------------

class ShardPlan:
    """Partition-mapped dealing over the session's own epoch stream.

    The shared :class:`~repro.runtime.core.BatchPlan` slices each epoch
    permutation by a quota cursor, so a trainer's batch is an arbitrary
    mix of vertices. A sharded plane must instead deal every target to
    the shard that *owns* it, while preserving the plan's exact
    arithmetic — the statistical tier asserts iteration count, epoch
    coverage and per-iteration budget conservation with no tolerance.
    This dealer threads that needle:

    * each epoch draws **one** permutation from the session plan's own
      RNG and increments its ``epochs_started`` — the sharded run
      consumes the plan's stream exactly like every other backend, so
      the kit's epoch bookkeeping holds unchanged;
    * the permutation is filtered per shard by the partition map
      (keeping permutation order within each shard: batch composition
      stays a fresh draw every epoch);
    * every iteration reads the live per-trainer quotas once (so DRM
      moves keep applying next-iteration, like everywhere else), takes
      their total ``T``, and apportions ``min(T, remaining)`` targets
      across shards **proportionally to the work each shard has
      left**, largest-remainder rounding, ties to the lower shard
      index. Proportional apportionment is what makes unbalanced
      partitions exhaust together: every iteration trains exactly
      ``min(T, remaining)`` targets, so a full epoch takes exactly
      ``ceil(train_size / T)`` iterations — the reference count.

    Empty shards (legal for ``num_parts > num_vertices`` partitions)
    simply receive ``None`` assignments and their trainers idle through
    the run.
    """

    def __init__(self, plan, parts: np.ndarray,
                 num_shards: int) -> None:
        self.plan = plan
        self.parts = np.asarray(parts, dtype=np.int64)
        self.num_shards = int(num_shards)

    # -- one epoch -----------------------------------------------------
    def start_epoch(self) -> Iterator[PlannedIteration]:
        """Yield one epoch of shard-owned :class:`PlannedIteration`.

        Mirrors ``BatchPlan.start_epoch``: the permutation is drawn
        eagerly off the *session plan's* RNG (one draw per epoch — the
        stream stays in lock-step with every other backend) and the
        plan's ``epochs_started`` advances, so full-epoch bookkeeping
        assertions see an identical plan state.
        """
        plan = self.plan
        epoch = plan.epochs_started
        plan.epochs_started += 1
        perm = plan.rng.permutation(plan.train_ids)
        owned = [perm[self.parts[perm] == k]
                 for k in range(self.num_shards)]
        return self._iterate(epoch, owned)

    def _iterate(self, epoch: int, owned: list[np.ndarray]
                 ) -> Iterator[PlannedIteration]:
        cursors = np.zeros(self.num_shards, dtype=np.int64)
        sizes = np.array([o.size for o in owned], dtype=np.int64)
        index = 0
        while True:
            remaining = sizes - cursors
            total_left = int(remaining.sum())
            if total_left == 0:
                return
            budget = sum(max(0, int(c))
                         for c in self.plan.counts_fn())
            take = min(budget, total_left)
            if take <= 0:
                return    # zero total quota: nobody can make progress
            quotas = _apportion(take, remaining)
            assignments: list[np.ndarray | None] = []
            for k in range(self.num_shards):
                q = int(quotas[k])
                if q <= 0:
                    assignments.append(None)
                    continue
                assignments.append(
                    owned[k][cursors[k]:cursors[k] + q])
                cursors[k] += q
            yield PlannedIteration(epoch=epoch, index=index,
                                   assignments=tuple(assignments))
            index += 1

    # -- many iterations -----------------------------------------------
    def iterate(self, iterations: int
                ) -> Iterator[tuple[int, PlannedIteration]]:
        """Yield ``(global_iteration, planned)`` for exactly
        ``iterations`` iterations, rolling into fresh epoch
        permutations at epoch boundaries — the same numbering and
        no-progress guard as ``BatchPlan.iterate``."""
        produced = 0
        while produced < iterations:
            before = produced
            for planned in self.start_epoch():
                yield produced, planned
                produced += 1
                if produced >= iterations:
                    return
            if produced == before:
                raise ProtocolError(
                    "shard plan yielded no work for an epoch")


def _apportion(take: int, remaining: np.ndarray) -> np.ndarray:
    """Split ``take`` targets across shards ∝ work left.

    Largest-remainder (Hamilton) apportionment over integer arithmetic:
    ``quota_k = floor(take * remaining_k / R)`` plus one for the
    largest fractional remainders until the total is ``take``. Because
    ``take <= R = sum(remaining)``, every quota satisfies
    ``quota_k <= remaining_k``; ties break to the lower shard index, so
    dealing is deterministic.
    """
    remaining = remaining.astype(np.int64)
    total = int(remaining.sum())
    if take >= total:
        return remaining.copy()
    base = (take * remaining) // total
    rem = take * remaining - base * total
    leftover = take - int(base.sum())
    if leftover > 0:
        # argsort is stable, so equal remainders keep index order.
        top = np.argsort(-rem, kind="stable")[:leftover]
        base[top] += 1
    return base


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

class ShardStagePipeline(StagePipeline):
    """One shard's worker pipeline over a shard-sliced store.

    ``gather`` is the local / cache / remote resolver; ``labels_for``
    maps targets through ``shard_row`` because labels, like features,
    are stored shard-major.

    Parameters
    ----------
    sampler:
        The worker's private sampler.
    store:
        The attached shard-sliced
        :class:`~repro.runtime.shm.SharedFeatureStore`; its manifest's
        shard spec sizes the remote cache.
    shard:
        The shard this worker owns.
    transfer_precision:
        The PCIe quantization policy.
    """

    def __init__(self, sampler, store, shard: int,
                 transfer_precision: str) -> None:
        from ..remote_cache import RemoteFeatureCache

        super().__init__(sampler, store.features, store.labels,
                         transfer_precision)
        self.shard = shard
        smap = store.shard_map()
        # Views into the segment; they go when the pipeline does.
        self.parts = smap.parts
        self.shard_row = smap.shard_row
        self.cache = None
        cache_rows = store.manifest.shard.remote_cache_rows
        if cache_rows > 0:
            cache = RemoteFeatureCache(cache_rows)
            cache.admit(smap.halo(store.csr_graph(), shard),
                        store.degrees, self.features,
                        rows_of=self.shard_row)
            self.cache = cache
        self._row_bytes = int(
            self.features.dtype.itemsize
            * int(np.prod(self.features.shape[1:], dtype=np.int64)))

    def gather(self, mb: MiniBatch) -> np.ndarray:
        return self.gather_io(mb)[0]

    def gather_io(self, mb: MiniBatch) -> tuple[np.ndarray, dict]:
        """Resolve the batch's rows local/cache/remote, widened to
        float64, plus the batch's io record.

        The assembled rows are bit-identical to a flat gather (cache
        rows are copies of the same store rows); only the
        *accounting* knows which interconnect each row crossed.
        """
        ids = np.asarray(mb.input_nodes, dtype=np.int64)
        rows = self.shard_row[ids]
        local_mask = self.parts[ids] == self.shard
        local_idx = np.flatnonzero(local_mask)
        remote_idx = np.flatnonzero(~local_mask)

        src = np.empty((ids.size,) + self.features.shape[1:],
                       dtype=self.features.dtype)
        src[local_idx] = self.features[rows[local_idx]]
        cache_hits = 0
        if remote_idx.size:
            if self.cache is not None:
                hit_mask, hit_rows = self.cache.lookup(ids[remote_idx])
                src[remote_idx[hit_mask]] = hit_rows
                miss_idx = remote_idx[~hit_mask]
                cache_hits = int(hit_mask.sum())
            else:
                miss_idx = remote_idx
            # The remote fetch: rows read out of *other shards'*
            # slices — on a real deployment this is the network RPC;
            # here it is the same segment, but billed as remote.
            src[miss_idx] = self.features[rows[miss_idx]]
        remote_rows = int(remote_idx.size - cache_hits)
        io = {
            "local_rows": int(local_idx.size),
            "remote_rows": remote_rows,
            "cache_hits": cache_hits,
            "local_bytes": int(local_idx.size) * self._row_bytes,
            "remote_bytes": remote_rows * self._row_bytes,
        }
        x0 = src.astype(np.float64)
        # Shard-io keys plus the standard gather keys the "kernel io"
        # bench column reads — this resolver replaces the registry's
        # gather dispatch, so it must keep the same books.
        kernels.record(
            shard_local_bytes=io["local_bytes"],
            shard_remote_bytes=io["remote_bytes"],
            shard_local_rows=io["local_rows"],
            shard_remote_rows=io["remote_rows"],
            remote_cache_hits=cache_hits,
            remote_cache_misses=remote_rows,
            gather_calls=1, gather_rows=ids.size,
            gather_src_bytes=src.nbytes, gather_out_bytes=x0.nbytes)
        return x0, io

    def labels_for(self, mb: MiniBatch) -> np.ndarray:
        return self.labels[self.shard_row[np.asarray(
            mb.targets, dtype=np.int64)]]


# ---------------------------------------------------------------------------
# Parent-side backend
# ---------------------------------------------------------------------------

class ShardedBackend(ProcessSamplingBackend):
    """Worker-replica sessions over per-shard slices of the store.

    Parameters
    ----------
    session:
        The shared runtime core; one worker process *and one graph
        shard* per trainer replica.
    timeout_s / mp_context:
        As on every process plane.
    partitioner:
        ``"hash"`` (random assignment — P3-style, worst-case locality)
        or ``"bfs"`` (locality-aware region growing, the METIS
        stand-in; the default).
    partition_seed:
        Seed of the partitioner's RNG — partition maps are
        deterministic per (graph, partitioner, seed).
    remote_cache_rows:
        Per-worker :class:`~repro.runtime.remote_cache.RemoteFeatureCache`
        capacity in feature rows; ``0`` (default) disables the cache —
        every remote row is billed at full interconnect cost.
    """

    name = "sharded"
    options_cls = ShardedOptions

    def __init__(self, session, timeout_s: float = 120.0,
                 mp_context: str | None = None,
                 partitioner: str = "bfs",
                 partition_seed: int = 0,
                 remote_cache_rows: int = 0) -> None:
        super().__init__(session, timeout_s=timeout_s,
                         mp_context=mp_context)
        if partitioner not in PARTITIONERS:
            raise ConfigError(
                f"unknown partitioner {partitioner!r}; expected one of "
                f"{sorted(PARTITIONERS)}")
        if remote_cache_rows < 0:
            raise ConfigError("remote_cache_rows must be non-negative")
        self.partitioner = partitioner
        self.partition_seed = int(partition_seed)
        self.remote_cache_rows = int(remote_cache_rows)
        parts = PARTITIONERS[partitioner](
            session.dataset.graph, session.num_trainers,
            seed=self.partition_seed)
        self.shard_map = ShardMap.from_partition(
            parts, num_shards=session.num_trainers)
        self.shard_plan = ShardPlan(session.plan, parts,
                                    session.num_trainers)

    # -- subclass hooks ------------------------------------------------
    def _work_source(self):
        """Deal from the partition-routed plan, not the quota cursor."""
        return self.shard_plan

    def _create_store(self):
        from ..shm import SharedShardSpec
        return super()._create_store(
            shard_map=self.shard_map,
            shard_spec=SharedShardSpec(
                num_shards=self.shard_map.num_shards,
                partitioner=self.partitioner,
                partition_seed=self.partition_seed,
                remote_cache_rows=self.remote_cache_rows))

    def _make_report(self, iterations: int, n: int) -> RunReport:
        """Adds the ``shard_parts`` rider: the map this run trains
        under."""
        report = super()._make_report(iterations, n)
        report.shard_parts = self.shard_map.parts
        return report

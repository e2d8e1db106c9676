"""The report contract: every live plane returns one ``RunReport``.

The conformance kit runs its coverage, partition and ownership
assertions exactly when the matching rider (``trained_targets``,
``worker_targets``, ``shard_parts``) is set, so a rider a plane does
not produce must stay ``None`` — an empty-list default would send the
kit's worker-partition block into ``np.concatenate([])`` on a plane
that never reports worker echoes. This pins which riders each
registered live plane sets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SystemConfig, TrainingConfig
from repro.runtime import (
    RunReport,
    TrainingSession,
    available_backends,
    build_backend,
)

#: The riders each live plane produces; every other rider is ``None``.
_WORKER_RIDERS = {"trained_targets", "worker_targets"}
RIDERS = {
    "threaded": set(),
    "process": set(),
    "pipelined": {"trained_targets"},
    "process_sampling": _WORKER_RIDERS,
    "process_pipelined": _WORKER_RIDERS,
    "sharded": _WORKER_RIDERS | {"shard_parts"},
}

LIVE_BACKENDS = [b for b in available_backends() if b != "virtual"]


@pytest.mark.parametrize("name", LIVE_BACKENDS)
def test_every_live_plane_returns_a_run_report(name, tiny_ds):
    cfg = TrainingConfig(model="sage", minibatch_size=32,
                         fanouts=(4, 3), hidden_dim=16,
                         learning_rate=0.05, seed=11)
    session = TrainingSession(
        tiny_ds, cfg, SystemConfig(hybrid=True, drm=False, prefetch=True),
        num_trainers=2)
    report = build_backend(name, session, timeout_s=60).run(2)

    assert type(report) is RunReport
    assert report.iterations == 2
    for rider in ("trained_targets", "worker_targets", "shard_parts"):
        produced = getattr(report, rider) is not None
        assert produced == (rider in RIDERS[name]), \
            f"{name}: rider {rider} set={produced}"
    if report.shard_parts is not None:
        parts = np.asarray(report.shard_parts)
        assert parts.shape == (tiny_ds.graph.num_vertices,)
    assert (report.overlap_summary() == "-") == (not report.stage_stats)

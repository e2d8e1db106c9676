"""The stage chain on its own: failure fan-out, close propagation,
pass-through order, per-item timings and the typed join error.

Both overlapped planes (the ``pipelined`` backend and every
``process_pipelined`` worker) run :class:`StageChain`; these tests drive
it directly over a stub pipeline so each contract is checked once,
without a training session.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.runtime import PreparedBatch
from repro.runtime.stage_chain import (
    CHAIN_STAGES,
    CHAIN_THREAD_PREFIX,
    PRODUCER_STAGES,
    StageChain,
)


class Boom(Exception):
    """The failure a stub stage raises."""


class _Batch:
    def __init__(self, targets: np.ndarray) -> None:
        self.targets = targets


class StubPipeline:
    """The stage methods a chain calls; ``fail_in`` names the stage
    that raises ``error``, ``block_in`` the one that waits on
    ``release``."""

    def __init__(self, fail_in: str | None = None,
                 block_in: str | None = None) -> None:
        self.fail_in = fail_in
        self.block_in = block_in
        self.error = Boom("injected")
        self.release = threading.Event()

    def _enter(self, stage: str) -> None:
        if stage == self.fail_in:
            raise self.error
        if stage == self.block_in:
            self.release.wait()

    def sample(self, targets):
        self._enter("sample")
        return _Batch(targets)

    def gather(self, mb):
        self._enter("gather")
        return mb.targets.astype(np.float64)

    def gather_io(self, mb):
        return self.gather(mb), {}

    def transfer(self, x0, trainer_kind):
        self._enter("transfer")
        return x0 * 2.0

    def labels_for(self, mb):
        return mb.targets % 3


def _chain_threads() -> list[str]:
    return [t.name for t in threading.enumerate()
            if t.is_alive() and t.name.startswith(CHAIN_THREAD_PREFIX)]


def _drain(chain: StageChain, lane: int) -> list:
    items = []
    while (item := chain.get(lane)) is not None:
        items.append(item)
    return items


class TestStageChain:
    @pytest.mark.parametrize("stage", PRODUCER_STAGES)
    def test_stage_failure_reaches_consumer_and_closes_everything(
            self, stage):
        pipeline = StubPipeline(fail_in=stage)
        chain = StageChain(pipeline, ["cpu", "accel"], depth=2,
                           timeout_s=5.0)
        chain.start()
        chain.put(0, 0, np.arange(4))
        with pytest.raises(Boom) as info:
            chain.get(0)
        assert info.value is pipeline.error
        # The other lane sees the same original failure.
        with pytest.raises(Boom):
            chain.get(1)
        assert all(buf._closed for stage_bufs in chain.buffers.values()
                   for buf in stage_bufs)
        chain.close()
        assert _chain_threads() == []

    def test_closing_input_ends_lanes_after_queued_items(self):
        chain = StageChain(StubPipeline(), ["cpu", "accel"], depth=8,
                           timeout_s=5.0)
        chain.start()
        for it in range(5):
            for lane in range(2):
                chain.put(lane, it, np.arange(it + 1))
        chain.close_input()
        for lane in range(2):
            items = _drain(chain, lane)
            assert [it for it, _ in items] == list(range(5))
            assert chain.get(lane) is None
        chain.close()
        assert _chain_threads() == []

    def test_pass_through_items_keep_iteration_order(self):
        plan = [np.arange(3), None, np.arange(2), None, None,
                np.arange(5)]
        with StageChain(StubPipeline(), ["accel"], depth=1,
                        timeout_s=5.0) as chain:
            chain.start()
            chain.spawn(self._feed, "feeder", chain, plan)
            items = _drain(chain, 0)
        assert [it for it, _ in items] == list(range(len(plan)))
        for (_, prepared), targets in zip(items, plan):
            if targets is None:
                assert prepared is None
            else:
                assert isinstance(prepared, PreparedBatch)
                np.testing.assert_array_equal(prepared.mb.targets,
                                              targets)
                np.testing.assert_array_equal(prepared.x0, targets * 2.0)
                np.testing.assert_array_equal(prepared.labels,
                                              targets % 3)

    @staticmethod
    def _feed(chain: StageChain, plan) -> None:
        for it, targets in enumerate(plan):
            for lane in range(len(chain.kinds)):
                chain.put(lane, it, targets)
        chain.close_input()

    def test_every_item_carries_non_negative_timings(self):
        with StageChain(StubPipeline(), ["cpu", "accel"], depth=2,
                        timeout_s=5.0) as chain:
            chain.start()
            chain.spawn(self._feed, "feeder", chain, [np.arange(4)] * 3)
            for lane in range(2):
                for _ in range(3):
                    _, prepared = chain.get(lane)
                    t = prepared.timings
                    assert min(t.sample_s, t.gather_s,
                               t.transfer_s) >= 0.0
                    assert set(t.stage_seconds()) == {"sample", "load",
                                                      "transfer"}
        stats = chain.stage_stats()
        assert list(stats) == list(CHAIN_STAGES)

    def test_join_names_a_thread_that_outlives_its_deadline(self):
        pipeline = StubPipeline(block_in="gather")
        chain = StageChain(pipeline, ["cpu"], depth=1, timeout_s=0.2)
        chain.start()
        chain.put(0, 0, np.arange(2))
        chain.close_input()
        try:
            with pytest.raises(ProtocolError,
                               match=f"{CHAIN_THREAD_PREFIX}gather0"):
                chain.join()
        finally:
            pipeline.release.set()
        chain.close()
        assert _chain_threads() == []

    def test_resize_reaches_every_buffer(self):
        chain = StageChain(StubPipeline(), ["cpu", "accel"], depth=1,
                           timeout_s=5.0)
        chain.resize(3)
        assert {buf.depth for stage_bufs in chain.buffers.values()
                for buf in stage_bufs} == {3}

"""Tests of the benchmark's pure helpers and of its span tracer."""

from __future__ import annotations

import json
import os
import multiprocessing as mp
from pathlib import Path

import pytest

from perfbench import catalog
from perfbench.spans import Tracer
from perfbench.stats import (
    goodput_per_s,
    percentile,
    samples_beyond,
    self_times,
    valid_metric_name,
    valid_unit,
    windowed_goodput,
    windowed_tail,
)

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    spans = [
        ("root", None, 0.0, 10.0),
        ("a", "root", 1.0, 3.0),
        ("b", "root", 5.0, 9.0),
        ("b1", "b", 6.0, 7.0),      # grandchild: only b's self time
    ]
    got = self_times(spans)
    assert got["root"] == pytest.approx(10.0 - 2.0 - 4.0)
    assert got["a"] == pytest.approx(2.0)
    assert got["b"] == pytest.approx(3.0)
    assert got["b1"] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    spans = [("p", None, 0.0, 10.0), ("c1", "p", 2.0, 6.0),
             ("c2", "p", 4.0, 8.0)]
    assert self_times(spans)["p"] == pytest.approx(10.0 - 6.0)


def test_self_time_clips_children_to_the_parent():
    spans = [("p", None, 0.0, 4.0), ("c", "p", 3.0, 7.0)]
    assert self_times(spans)["p"] == pytest.approx(3.0)


def test_self_time_of_a_root_with_unknown_parent_is_its_duration():
    assert self_times([("x", "gone", 1.0, 2.5)]) == {"x": 1.5}


# -- percentiles ---------------------------------------------------------------

def test_percentile_matches_linear_interpolation():
    xs = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(xs, 50) == 3.0
    assert percentile(xs, 90) == pytest.approx(4.6)
    assert percentile([7.0], 99) == 7.0


@pytest.mark.parametrize("n, q, beyond", [(100, 90, 10), (99, 90, 9),
                                          (1000, 99, 10), (999, 99, 9),
                                          (10000, 99.9, 10)])
def test_samples_beyond(n, q, beyond):
    assert samples_beyond(n, q) == beyond


def test_windowed_tail_takes_one_percentile_per_full_window():
    values = list(range(100)) + [1000.0] * 100 + [5.0] * 30
    got = windowed_tail(values, 90, 100)
    assert got == [pytest.approx(89.1), 1000.0]   # the 30-sample tail
    with pytest.raises(ValueError):               # is dropped
        windowed_tail(values, 90, 99)             # 9 beyond p90
    with pytest.raises(ValueError):
        windowed_tail(values[:50], 90, 100)


# -- goodput -----------------------------------------------------------------

def test_goodput_counts_sheds_and_late_answers_as_misses():
    outcomes = [0.01, 0.05, None, 0.2, None, 0.1]
    assert goodput_per_s(outcomes, limit_s=0.1, duration_s=2.0) == 1.5


def test_goodput_of_an_all_shed_phase_is_zero():
    assert goodput_per_s([None] * 5, 0.1, 1.0) == 0.0
    with pytest.raises(ValueError):
        goodput_per_s([], 0.1, 0.0)


def test_windowed_goodput_buckets_by_scheduled_arrival():
    arrivals = [10.0, 10.2, 10.6, 11.1, 11.5, 12.9, 13.2]
    latencies = [0.01, None, 0.02, 0.5, 0.03, 0.01, 0.01]
    got = windowed_goodput(arrivals, latencies, 0.1, start=10.0,
                           duration_s=3.5, window_s=1.0)
    assert got == [2.0, 1.0, 1.0]          # the 0.5 s tail is dropped


# -- names -------------------------------------------------------------------

@pytest.mark.parametrize("name", ["p50_ms", "nn.L0.fwd_agg_ms",
                                  "setup-s", "9lives", "a" * 64])
def test_valid_metric_names(name):
    assert valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "lat(ms)",
                                  "a" * 65, "p99/s", None])
def test_invalid_metric_names(name):
    assert not valid_metric_name(name)


def test_units():
    for unit in ("ms", "s", "1/s", "count", "targets/s", "%"):
        assert valid_unit(unit)
    for unit in ("", "per second", "a" * 17):
        assert not valid_unit(unit)


def test_catalog_names_are_valid_and_unique():
    metrics = catalog.END_TO_END + catalog.PER_LAYER
    names = [m.name for m in metrics] + [w.name for w in
                                         catalog.WORKLOADS]
    assert len(set(names)) == len(names)
    for m in metrics:
        assert valid_metric_name(m.name), m.name
        assert valid_unit(m.unit), m.unit
        assert m.better in ("higher", "lower")
        assert set(m.workloads) <= set(catalog.ALL)
    assert "setup_s" in catalog.END_TO_END_NAMES


def test_benchmark_json_matches_the_catalog():
    spec = json.loads(SPEC.read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(catalog.ALL)
    assert [w["why"] for w in spec["workloads"]] == \
        [w.why for w in catalog.WORKLOADS]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in catalog.END_TO_END]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in catalog.PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


# -- tracer ------------------------------------------------------------------

class _Work:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2


def _child(work, n):
    work.outer(n)


def test_tracer_records_nested_spans_and_restores_originals(tmp_path):
    original = _Work.__dict__["outer"]
    tracer = Tracer(tmp_path)
    tracer.wrap(_Work, "outer", "outer",
                attrs=lambda a, k, r: {"result": r})
    tracer.wrap(_Work, "inner", "inner")
    tracer.enabled = True
    assert _Work().outer(3) == 7
    tracer.uninstall()
    assert _Work.__dict__["outer"] is original
    _Work().outer(1)                       # not recorded any more
    by_name = {s.name: s for s in tracer.spans}
    assert set(by_name) == {"outer", "inner"}
    assert by_name["inner"].parent_id == by_name["outer"].span_id
    assert by_name["outer"].attrs == {"result": 7}
    events = tracer.chrome_trace()["traceEvents"]
    assert {e["name"] for e in events if e["ph"] == "X"} == \
        {"outer", "inner"}


@pytest.mark.skipif("fork" not in mp.get_all_start_methods(),
                    reason="worker spans ride the fork start method")
def test_tracer_carries_forked_worker_spans_back(tmp_path):
    tracer = Tracer(tmp_path)
    tracer.wrap(_Work, "outer", "outer")
    tracer.enabled = True
    try:
        proc = mp.get_context("fork").Process(target=_child,
                                              args=(_Work(), 2))
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode == 0
    finally:
        tracer.uninstall()
    tracer.collect()
    assert [s.pid for s in tracer.spans] == [proc.pid]
    assert not list(tmp_path.glob("spans-*.json"))


# -- process hygiene ---------------------------------------------------------

def test_stop_helpers_ends_the_resource_tracker():
    from multiprocessing import resource_tracker, shared_memory

    from perfbench.run import _stop_helpers

    shm = shared_memory.SharedMemory(create=True, size=16)
    shm.close()
    shm.unlink()
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None
    _stop_helpers()
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)               # ended and reaped, not a zombie

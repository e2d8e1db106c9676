"""Pure helpers of the benchmark: percentiles, goodput, span self time,
metric-name validity. Nothing here imports the program under test."""

from __future__ import annotations

import math
import re
from typing import Iterable, Sequence

#: A metric name: starts with a letter or digit; letters, digits, ``_``,
#: ``.`` and ``-``; at most 64 characters.
_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
#: A unit: letters, digits, ``_``, ``/``, ``%``, ``.`` and ``-``; at
#: most 16 characters.
_UNIT_RE = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")

#: Samples a reported tail percentile must have beyond it.
MIN_BEYOND = 10


def valid_metric_name(name: str) -> bool:
    return isinstance(name, str) and _NAME_RE.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return isinstance(unit, str) and _UNIT_RE.fullmatch(unit) is not None


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, linear interpolation between order
    statistics (NumPy's default), of a non-empty sequence."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the ``q``-th percentile."""
    return int(math.floor(n * (100.0 - q) / 100.0 + 1e-9))


def windowed_tail(values: Sequence[float], q: float, window: int,
                  min_beyond: int = MIN_BEYOND) -> list[float]:
    """The ``q``-th percentile of each run of ``window`` consecutive
    samples (a shorter tail is dropped); each window must hold at least
    ``min_beyond`` samples beyond its percentile. The median of these
    is a tail figure one slow stretch of the run cannot dominate."""
    if samples_beyond(window, q) < min_beyond:
        raise ValueError(f"a window of {window} leaves fewer than "
                         f"{min_beyond} samples beyond p{q:g}")
    if len(values) < window:
        raise ValueError(f"{len(values)} samples fill no window of "
                         f"{window}")
    return [percentile(values[lo:lo + window], q)
            for lo in range(0, len(values) - window + 1, window)]


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def goodput_per_s(latencies_s: Iterable[float | None], limit_s: float,
                  duration_s: float) -> float:
    """Requests answered within ``limit_s`` per second of
    ``duration_s``. A ``None`` latency is a request that was shed or
    failed: it counts as a miss, never as good."""
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    good = sum(1 for lat in latencies_s
               if lat is not None and lat <= limit_s)
    return good / duration_s


def windowed_goodput(arrivals: Sequence[float],
                     latencies: Sequence[float | None], limit_s: float,
                     start: float, duration_s: float,
                     window_s: float) -> list[float]:
    """:func:`goodput_per_s` over consecutive windows of ``window_s``
    from ``start``, each request counted in the window of its scheduled
    arrival. A tail shorter than a window is dropped."""
    count = int(duration_s // window_s)
    buckets: list[list] = [[] for _ in range(count)]
    for arrival, latency in zip(arrivals, latencies):
        k = int((arrival - start) // window_s)
        if 0 <= k < count:
            buckets[k].append(latency)
    return [goodput_per_s(b, limit_s, window_s) for b in buckets]


def gaps(stamps: Sequence[float]) -> list[float]:
    """Differences between consecutive timestamps."""
    return [b - a for a, b in zip(stamps, stamps[1:])]


def covered_length(intervals: Iterable[tuple[float, float]],
                   lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Iterable[tuple]) -> dict:
    """Self time of every span: its duration minus the part of its
    interval that its child spans cover.

    ``spans`` yields ``(span_id, parent_id, start, end)``; a
    ``parent_id`` of ``None`` (or of a span not in the set) marks a
    root. Returns ``{span_id: self_time}``.
    """
    spans = list(spans)
    children: dict = {}
    for sid, parent, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {sid: (end - start)
            - covered_length(children.get(sid, ()), start, end)
            for sid, _, start, end in spans}

"""Integration-suite fixtures: loud failure on leaked runtime resources.

The live backends own real OS resources — worker processes and a
``/dev/shm`` segment on the process plane, stage threads on the
threaded/pipelined planes. Their contract is that nothing outlives a
``run()``, clean or failed. The autouse fixture below re-checks that
contract after *every* integration test, so a shutdown regression fails
the offending test immediately in CI instead of silently leaking until
the machine runs out of shared memory.
"""

from __future__ import annotations

import glob
import multiprocessing as mp
import threading
import time

import pytest

from repro.runtime.stage_chain import CHAIN_THREAD_PREFIX

#: The SharedFeatureStore segment name prefix (runtime/shm.py).
_SHM_PATTERN = "/dev/shm/repro_shm_*"

#: Thread-name prefixes owned by the live backends' stage threads (the
#: stage chain's prefix is imported, so a rename cannot silently turn
#: this check into a no-op).
_BACKEND_THREAD_PREFIXES = (CHAIN_THREAD_PREFIX, "producer", "trainer")


def _segments() -> set[str]:
    return set(glob.glob(_SHM_PATTERN))


def _worker_processes() -> list[mp.process.BaseProcess]:
    # active_children() also reaps finished children; backends join
    # their workers in a finally, so anything still alive here leaked.
    return [p for p in mp.active_children() if p.is_alive()]


def _backend_threads() -> list[str]:
    return sorted(t.name for t in threading.enumerate()
                  if t.is_alive() and
                  t.name.startswith(_BACKEND_THREAD_PREFIXES))


@pytest.fixture(autouse=True)
def no_leaked_runtime_resources():
    """Assert every test tears its execution substrate down fully.

    Checks, in order: no new ``/dev/shm`` segment survived (process
    plane), no live worker process survived (process plane), and no
    backend stage thread survived (threaded/pipelined planes). A short
    grace period absorbs threads that are mid-exit after their final
    join returned.
    """
    segments_before = _segments()
    yield
    leaked_segments = _segments() - segments_before
    assert not leaked_segments, \
        f"test leaked shared-memory segments: {sorted(leaked_segments)}"

    leaked_procs = _worker_processes()
    assert not leaked_procs, \
        (f"test leaked live worker processes: "
         f"{[p.name for p in leaked_procs]}")

    deadline = time.monotonic() + 2.0
    threads = _backend_threads()
    while threads and time.monotonic() < deadline:
        time.sleep(0.01)
        threads = _backend_threads()
    assert not threads, \
        f"test leaked live backend stage threads: {threads}"

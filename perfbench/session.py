"""The Ray session the benchmark runs in, and what it measures about it.

Ray is pinned to ``NUM_CPUS`` logical CPUs whatever the box reports:
the flagship hangs with fewer than 4 (its Extractor pool and hash-shuffle
aggregators demand more CPUs than a 1-3 CPU session has), and a fixed
count keeps runs on different boxes comparable.
"""

from __future__ import annotations

import gc
import glob
import logging
import os
import shutil
import threading
import time

NUM_CPUS = 4
OBJECT_STORE_BYTES = 512 * 1024**2
#: longest AF_UNIX socket path Linux accepts, and the length Ray appends
#: to its temp dir ("/session_<date>_<usec>_<pid>/sockets/plasma_store")
_SOCKET_MAX = 107
_SOCKET_SUFFIX = 66


def ray_temp_dir(work_dir: str) -> str | None:
    """Ray's temp dir inside the work dir, or None (Ray's default) when
    that path is too long for Ray's Unix sockets."""
    d = os.path.join(os.path.abspath(work_dir), "r")
    return d if len(d) + _SOCKET_SUFFIX <= _SOCKET_MAX else None


def start(work_dir: str) -> None:
    import ray
    from ray.data import DataContext

    tmp = ray_temp_dir(work_dir)
    if tmp is None:
        print("perfbench: checkout path too long for Ray sockets; "
              "using Ray's default temp dir", flush=True)
    else:  # earlier runs' session logs
        for old in glob.glob(os.path.join(tmp, "session_2*")):
            shutil.rmtree(old, ignore_errors=True)
    ray.init(
        address="local", num_cpus=NUM_CPUS, object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False, logging_level="ERROR", log_to_driver=False,
        _temp_dir=tmp,
    )
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def stop() -> None:
    import ray

    ray.shutdown()


def wait_idle(timeout: float = 30.0) -> float:
    """Wait until every CPU of the session is free again.

    A finished Dataset's actor pool is released by reference counting,
    and the executor sits in reference cycles, so without a collection
    the previous run's actors keep their CPUs and the next run's pool
    waits for them (a 15-20 s stall before the first Extractor task)."""
    import ray

    t = time.perf_counter()
    gc.collect()
    while ray.available_resources().get("CPU", 0) < NUM_CPUS:
        if time.perf_counter() - t > timeout:
            break
        time.sleep(0.02)
    return time.perf_counter() - t


def cpu_steal() -> tuple[int, int]:
    """(steal, total) jiffies over all CPUs, from /proc/stat."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of CPU time a virtual machine's host took between two reads:
    wall times stretch by about that much, with no change in the code."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total else 0.0


def call_with_limit(fn, limit: float):
    """Run ``fn()`` in a thread; returns (result, error, timed_out)."""
    box: dict = {}

    def target():
        try:
            box["result"] = fn()
        except Exception as e:  # reported as a failed run
            box["error"] = e

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(limit)
    if th.is_alive():
        return None, None, True
    return box.get("result"), box.get("error"), False


#: process title Ray gives the Extractor pool's actors
EXTRACTOR_TITLE = b"ray::MapWorker(MapBatches(Extractor))"
SAMPLE_INTERVAL_S = 0.5


class ProcessSampler:
    """Samples the driver and every Ray process of its process group:
    peak summed resident memory, and the most live Extractor actors."""

    def __init__(self):
        self.peak_mb = 0.0
        self.max_count = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._page = os.sysconf("SC_PAGE_SIZE")

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.sample()
        return False

    def _loop(self):
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            self.sample()

    def sample(self) -> None:
        pgrp = os.getpgrp()
        rss = count = 0
        for pid in os.listdir("/proc"):
            if not pid.isdigit():
                continue
            try:
                with open(f"/proc/{pid}/stat", "rb") as fh:
                    fields = fh.read().rsplit(b")", 1)[1].split()
                if int(fields[2]) != pgrp:
                    continue
                with open(f"/proc/{pid}/statm", "rb") as fh:
                    rss += int(fh.read().split()[1]) * self._page
                with open(f"/proc/{pid}/cmdline", "rb") as fh:
                    count += fh.read().startswith(EXTRACTOR_TITLE)
            except (FileNotFoundError, ProcessLookupError, IndexError):
                continue
        self.peak_mb = max(self.peak_mb, rss / 2**20)
        self.max_count = max(self.max_count, count)

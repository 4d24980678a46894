"""Benchmark entry point.

    python3 perfbench/run.py --workload {extract_stream,ordered_shuffle,checkpoint_sink} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. It starts the benchmark process
(``perfbench.bench``) with the repository on ``PYTHONPATH`` (so Ray's
worker processes, which do not see the driver's ``sys.path``, import the
package too) in a process group of its own, gives it a wall-clock limit,
and afterwards kills and waits for anything left in that group. The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

#: the whole run, set-up included, must be over by then
HARD_LIMIT = 175.0


def _group_members(pgid: int) -> list[int]:
    out = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat", "rb") as fh:
                fields = fh.read().rsplit(b")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        if int(fields[2]) == pgid and fields[0] != b"Z":
            out.append(int(pid))
    return out


def _reap(pgid: int, timeout: float = 15.0) -> None:
    """Kill every process left in the group and wait until none is left."""
    deadline = time.monotonic() + timeout
    while _group_members(pgid) and time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.1)


def main() -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "weakscraper_ray", "__init__.py")):
        print("perfbench: run from the repository root (weakscraper_ray/ not found)",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.bench", *sys.argv[1:]],
        cwd=root, env=env, start_new_session=True,
    )
    try:
        rc = proc.wait(timeout=HARD_LIMIT)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {HARD_LIMIT:.0f} s; killed", file=sys.stderr)
        rc = 3
    except KeyboardInterrupt:
        rc = 130
    finally:
        _reap(proc.pid)
        proc.wait()
    return rc


if __name__ == "__main__":
    sys.exit(main())

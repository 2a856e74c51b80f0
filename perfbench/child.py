#!/usr/bin/env python3
"""Run a command as a child process; print its wall time, exit code and peak RSS.

Usage:
    python3 perfbench/child.py PROGRAM [ARG ...]

The command's standard output is discarded and its standard error passed
through.  The last line of standard output is a JSON object with
``wall_s`` (spawn to exit), ``code`` (exit code), ``maxrss_kb`` (the
command's ``ru_maxrss`` from ``os.wait4``) and ``floor_kb`` (this process's
``ru_maxrss`` at the spawn).  Linux carries the peak RSS across fork and
exec, so a child's ``ru_maxrss`` is at least that of the process that
spawned it; spawning from this small process keeps that floor far below the
command's own peak.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def _hwm_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def main(argv) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    floor_kb = _hwm_kb()
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "code": proc.returncode,
                      "maxrss_kb": usage.ru_maxrss, "floor_kb": floor_kb}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

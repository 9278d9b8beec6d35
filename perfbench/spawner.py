"""Start job processes for run.py, one at a time, and report their resource use.

It runs as a small process of its own.  A child's ``ru_maxrss`` starts from
the peak RSS of the process that forked it, so jobs forked straight from
run.py, which holds the job list and the oracles, would all report at least
run.py's own size.

One JSON request per line on stdin::

    {"cmd": [...], "cwd": "...", "env": {...}, "stdout": "path", "timeout": 60.0}

One JSON reply per line on stdout::

    {"wall_s": ..., "cpu_s": ..., "maxrss_kib": ..., "exit_code": ..., "timed_out": ...}

End of input ends it; a job still running then is killed first.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time


def run_job(request: dict, stdin_fd: int) -> dict | None:
    """Run one job; None if stdin closed while it ran (the job is killed)."""
    with open(request["stdout"], "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            request["cmd"],
            cwd=request["cwd"],
            env=request["env"],
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=subprocess.DEVNULL,
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd, stdin_fd], [], [], request["timeout"])
            if pidfd not in ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    if stdin_fd in ready and pidfd not in ready:
        return None
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kib": usage.ru_maxrss,
        "exit_code": os.waitstatus_to_exitcode(status),
        "timed_out": not ready,
    }


def main() -> None:
    stdin_fd = sys.stdin.fileno()
    for line in sys.stdin.buffer:
        reply = run_job(json.loads(line), stdin_fd)
        if reply is None:
            return
        try:
            sys.stdout.write(json.dumps(reply) + "\n")
            sys.stdout.flush()
        except BrokenPipeError:
            return  # run.py is gone


if __name__ == "__main__":
    main()

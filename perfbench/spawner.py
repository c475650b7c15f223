"""Small launcher that starts benchmark child processes and reports their rusage.

Linux carries a process's peak resident size across exec, so a child forked
from run.py, which holds numpy arrays for the checks, would report that peak
as its own.  Children forked from this small launcher report their own.

Protocol, one JSON object per line on stdin and stdout:

    request  {"argv": [...], "env": {...}, "cwd": "...",
              "stdout": "path", "stderr": "path", "timeout": seconds}
    reply    {"rc": int, "wall_s": float, "cpu_s": float, "maxrss_kb": int,
              "timed_out": bool}

An empty line or end of input stops the launcher.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run_one(req):
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            req["argv"], stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            env=req["env"], cwd=req["cwd"],
        )
        fired = []
        timer = threading.Timer(req["timeout"], lambda: (fired.append(1), proc.kill()))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "timed_out": bool(fired),
    }


def main():
    for line in sys.stdin:
        if not line.strip():
            break
        reply = run_one(json.loads(line))
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

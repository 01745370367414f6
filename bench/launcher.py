"""Starts run.py's measured processes and reports each one's wall time and rusage.

On Linux, exec folds the memory high-water mark of the process that spawned
a child into the child's ru_maxrss.  Spawned straight from run.py, which
holds inputs and oracle arrays, every child would report at least run.py's
peak.  This launcher imports nothing large, so a child's ru_maxrss is its
own peak.

Protocol: one JSON request per line on stdin,
    {"argv": [...], "stdout": path or null}
and one JSON reply per line on stdout,
    {"wall": s, "code": exit code, "maxrss_mb": MiB, "cpu": user + sys s}.
Children run one at a time, in the launcher's working directory and
environment.  End of input ends the launcher.
"""

import json
import os
import signal
import subprocess
import sys
import time

TIMEOUT_S = 170


class Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise Timeout


def run(argv, stdout_path):
    out = open(stdout_path, "w") if stdout_path else subprocess.DEVNULL
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out)
        signal.alarm(TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if stdout_path:
            out.close()
    return {"wall": wall, "code": proc.returncode, "maxrss_mb": usage.ru_maxrss / 1024.0,
            "cpu": usage.ru_utime + usage.ru_stime}


def main():
    signal.signal(signal.SIGALRM, _on_alarm)
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request.get("stdout"))
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

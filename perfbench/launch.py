"""Starts hardy-means invocations one at a time for run.py.

Reads one JSON request per line on stdin, {"argv": [...], "out": path,
"err": path}, runs ``python3 -m hardy_means <argv>`` with stdout and
stderr sent to those files, reaps it with wait4 and answers with one JSON
line {"wall_s", "cpu_s", "rss_kb", "returncode"}.  SIGTERM stops it after
killing and reaping the invocation in flight.

It is a process of its own, kept small (no numpy), because Linux starts a
child's peak-RSS count from the memory of the process that spawns it:
run.py, holding numpy, mpmath and the oracles' arrays, would inflate
every invocation's peak_rss_mb.
"""

import json
import os
import signal
import subprocess
import sys
import time


def _stop(signum, frame):
    raise SystemExit(1)


def main() -> None:
    signal.signal(signal.SIGTERM, _stop)
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["out"], "wb") as out, open(request["err"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "hardy_means", *request["argv"]],
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except SystemExit:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss,
            "returncode": proc.returncode,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

"""Stage launcher: runs one command per JSON request line on stdin.

run.py starts this process before it builds any inputs, while it is still
small, and runs every stage through it. On Linux a child's ru_maxrss starts
from the high-water RSS of the process that forked it, so stages forked by
the benchmark process itself would report the benchmark's own memory. Forked
from this small process instead, os.wait4 gives each stage's own peak (and
that of the backend children it waited for).

Request:  {"cmd": [...], "stdout": path, "stderr": path}
Response: {"rc", "start", "end", "cpu_s", "rss_mb"} with perf_counter times.
"""
import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as so, open(req["stderr"], "wb") as se:
            start = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], stdout=so, stderr=se)
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        resp = {"rc": proc.returncode, "start": start, "end": end, "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0}
        sys.stdout.write(json.dumps(resp) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

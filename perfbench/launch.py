"""Runs the benchmark's child processes and reports wall time, peak RSS and exit code.

Reads one JSON request ``[argv, log_path, timeout_s]`` per line on standard
input and answers each with one JSON line ``[wall_s, peak_rss_mb, exit_code]``.
Output of the child goes to ``log_path``.

Linux counts the peak RSS of the spawning process into the peak RSS of a
child that it forks or vforks.  This launcher imports nothing large, so the
peak RSS it reports is the child's own, however much memory the benchmark
process holds.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv, log: str, timeout: float) -> list:
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    return [wall, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status)]


def main() -> None:
    for line in sys.stdin:
        argv, log, timeout = json.loads(line)
        print(json.dumps(run(argv, log, timeout)), flush=True)


if __name__ == "__main__":
    main()

"""Run one command; print its wall time, exit code, peak RSS and streaming span as JSON.

    python3 -I -S launch.py OUT ERR TIMEOUT_S WATCH -- CMD...

The benchmark starts each measured command through this small process
rather than directly: Linux carries a parent's resident set into a child's
``ru_maxrss`` up to the child's ``exec``, so a command forked from the
benchmark process (which holds numpy, scipy and the in-process results)
would report the benchmark's memory instead of its own.

WATCH names the file whose offset in the command shows it streaming:
``stdout`` for its output, a path for an input file it reads, or ``-``.
The offset is read every millisecond from the command's
``/proc/<pid>/fdinfo``; the first and the last change are reported as
``[seconds since start, offset]``, so the time between them is the
command's streaming time with its start-up and exit left out.
"""

import json
import os
import subprocess
import sys
import threading
import time

POLL_S = 0.001


def find_fd(pid: int, watch: str):
    if watch == "stdout":
        return 1
    try:
        for fd in os.listdir(f"/proc/{pid}/fd"):
            if os.readlink(f"/proc/{pid}/fd/{fd}") == watch:
                return int(fd)
    except OSError:
        pass
    return None


def poll(pid: int, watch: str, t0: float, stop: threading.Event, span: list) -> None:
    """Keep ``span`` as [first change, last change] of the watched offset, after
    the offset first seen."""
    fd = None
    last = None
    while not stop.wait(POLL_S):
        if fd is None:
            fd = find_fd(pid, watch)
            if fd is None:
                continue
        try:
            with open(f"/proc/{pid}/fdinfo/{fd}") as fh:
                pos = int(fh.readline().split()[1])
        except (OSError, IndexError, ValueError):
            return
        if last is not None and pos != last:
            point = [time.perf_counter() - t0, pos]
            span[:] = [span[0] if span else point, point]
        last = pos


def main() -> int:
    if len(sys.argv) < 7 or sys.argv[5] != "--":
        sys.stderr.write("usage: launch.py OUT ERR TIMEOUT_S WATCH -- CMD...\n")
        return 2
    out_path, err_path, timeout, watch = sys.argv[1], sys.argv[2], float(sys.argv[3]), sys.argv[4]
    cmd = sys.argv[6:]
    span = []
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=out, stderr=err)
        stop = threading.Event()
        poller = None
        if watch != "-":
            watch = watch if watch == "stdout" else os.path.realpath(watch)
            poller = threading.Thread(target=poll, args=(p.pid, watch, t0, stop, span))
            poller.start()
        killer = threading.Timer(timeout, p.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            wall = time.perf_counter() - t0
            killer.cancel()
            stop.set()
            if poller is not None:
                poller.join()
    p.returncode = os.waitstatus_to_exitcode(status)
    sys.stdout.write(json.dumps({"wall_s": wall, "maxrss_kb": usage.ru_maxrss,
                                 "code": p.returncode, "span": span}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Start the benchmark's child processes from a small process.

On Linux, the peak RSS that os.wait4 reports for a child includes the
peak RSS of the process whose memory the child replaced at exec. A child
started straight from the benchmark, which holds generated inputs and
parsed outputs, would report at least the benchmark's own peak. This
process starts before the benchmark grows and stays small, so its
children report their own peak. It streams each child's stdout to a
file, times the first complete line, and reaps the child with os.wait4.

Protocol: one JSON request per stdin line,
  {"argv": [...], "out": PATH, "err": PATH, "timeout": SECONDS},
and one JSON reply per stdout line,
  {"wall", "cpu", "first_line", "rss_mb", "code"} or {"error": TEXT}.
A child still running at its timeout is killed and reaped. The process
exits when stdin closes.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time


def run(argv: list[str], out: str, err: str, timeout: float) -> dict:
    start = time.perf_counter()
    deadline = start + timeout
    first_line = None
    with open(out, "wb") as fout, open(err, "wb") as ferr:
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=ferr)
        fd = proc.stdout.fileno()
        try:
            while True:
                ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.perf_counter()))
                if not ready:
                    return {"error": f"timed out after {timeout:.0f} s: {' '.join(argv[-3:])}"}
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    break
                if first_line is None and b"\n" in chunk:
                    first_line = time.perf_counter() - start
                fout.write(chunk)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "first_line": first_line,
        "rss_mb": usage.ru_maxrss / 1024,
        "code": proc.returncode,
    }


def main() -> int:
    for line in sys.stdin:
        try:
            reply = run(**json.loads(line))
        except OSError as exc:
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Starts the benchmark's timed child commands from a small process.

On Linux a child's peak RSS (``ru_maxrss``) starts at its parent's
high-water mark, so a command started directly by the benchmark, which
runs the same commands in-process and holds their reports, would report
the benchmark's memory instead of its own. This process stays small
(stdlib only). It reads one JSON request per line,
``{"argv": [...], "capture": bool}``, runs it in the working directory and
environment it was started with, waits for it, and answers with one JSON
line: ``status``, ``text`` (stdout when captured, else stderr), ``wall`` and
``cpu`` seconds, and ``maxrss_kib``.
"""

import json
import os
import subprocess
import sys
import time


def run(argv: list, capture: bool) -> dict:
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
        stderr=subprocess.STDOUT if capture else subprocess.PIPE,
    )
    stream = proc.stdout if capture else proc.stderr
    try:
        with stream:
            text = stream.read().decode("utf-8", "replace")
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "status": proc.returncode,
        "text": text,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "maxrss_kib": usage.ru_maxrss,
    }


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        sys.stdout.write(json.dumps(run(request["argv"], request["capture"])) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

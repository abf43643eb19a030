"""Starts the benchmark's child processes and reports their wall time, peak RSS and exit code.

Linux carries the peak resident size of the process that spawns a child into
the child's ``ru_maxrss`` (across fork and exec alike), so a child started by
``run.py``, which holds numpy and the parsed reports, would report at least
``run.py``'s own peak.  ``run.py`` therefore starts this small process once
and has it start every child.  One JSON request per line on standard input::

    {"argv": [...], "stderr": "path", "timeout_s": 100}

and one JSON reply per line on standard output::

    {"wall_s": 1.23, "peak_rss_mb": 34.5, "exit_code": 0}

Children inherit this process's environment and working directory.  A
child still running after ``timeout_s`` is killed, and so is a running child
when this process is terminated; either way the child is reaped.
"""

import json
import os
import signal
import sys
import time


def run_child(argv: list, stderr_path: str, timeout_s: int) -> dict:
    devnull = os.open(os.devnull, os.O_RDWR)
    err = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    actions = [(os.POSIX_SPAWN_DUP2, devnull, 0), (os.POSIX_SPAWN_DUP2, devnull, 1),
               (os.POSIX_SPAWN_DUP2, err, 2)]
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    finally:
        os.close(devnull)
        os.close(err)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(timeout_s)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        signal.alarm(0)
    return {"wall_s": time.perf_counter() - start, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "exit_code": os.waitstatus_to_exitcode(status)}


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    for line in sys.stdin:
        req = json.loads(line)
        reply = run_child(req["argv"], req["stderr"], req["timeout_s"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

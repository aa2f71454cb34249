"""Spawn-and-wait helper that keeps a child's peak RSS its own.

At exec, Linux folds the memory high-water mark of the image a child
replaces into the child's ``ru_maxrss``.  A child spawned straight from the
benchmark process would therefore report at least the benchmark's own RSS
(hundreds of MB after an in-process run).  This helper imports only the
standard library, so the ~10 MB it passes on stays below any child's.

Protocol, one JSON object per line: a request ``{"args", "env", "log",
"timeout"}`` on stdin is answered on stdout by ``{"code", "wall", "rss_mb"}``.
Wall time runs from just before the spawn to the return of ``wait4``.  The
helper exits when stdin closes.
"""

import json
import os
import signal
import sys
import threading
import time


def run(args: list, env: dict, log_path: str, timeout: float) -> dict:
    with open(log_path, "wb") as log:
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, log.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, log.fileno(), 2),
        ]
        started = time.perf_counter()
        pid = os.posix_spawn(args[0], args, env, file_actions=actions)
        watchdog = threading.Timer(timeout, os.kill, (pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    watchdog.join()
    return {"code": os.waitstatus_to_exitcode(status), "wall": wall, "rss_mb": usage.ru_maxrss / 1024.0}


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["args"], request["env"], request["log"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

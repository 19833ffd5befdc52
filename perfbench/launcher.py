"""A small process that starts the benchmark's child processes.

On Linux a child's peak RSS (ru_maxrss) starts from the RSS of the
process that forked it, so children forked by the benchmark itself, which
holds numpy and oracle matrices, would report the benchmark's size.
Children are forked from this launcher instead, which imports nothing
heavy; it is started once per run and serves requests over its stdin and
stdout, one JSON line each way.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time


class Launcher:
    """Client side: starts the launcher and runs commands through it."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def run(self, cmd: list[str], env: dict, cwd: str, log: str,
            timeout: float) -> dict:
        """Run cmd to completion; returns rc, wall_s, cpu_s (user+sys) and
        rss_mb (peak RSS) of that one child."""
        request = {"cmd": cmd, "env": env, "cwd": cwd, "log": log,
                   "timeout": timeout}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        return json.loads(reply)

    def close(self) -> None:
        """Ends the launcher; a child still running (after an interrupt)
        is killed and reaped by the launcher's SIGTERM handler."""
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self._proc.terminate()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def serve() -> None:
    running = []

    def stop(signum, frame):
        for p in running:
            p.kill()
            try:
                os.waitpid(p.pid, 0)
            except ChildProcessError:  # already reaped by wait4
                pass
        raise SystemExit(1)

    signal.signal(signal.SIGTERM, stop)
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["log"], "ab") as err:
            t0 = time.perf_counter()
            p = subprocess.Popen(req["cmd"], stdin=subprocess.DEVNULL,
                                 stdout=subprocess.DEVNULL, stderr=err,
                                 env=req["env"], cwd=req["cwd"])
            running.append(p)
            killer = threading.Timer(req["timeout"], p.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(p.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
            running.remove(p)
        p.returncode = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps({
            "rc": p.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()

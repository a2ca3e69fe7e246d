"""A small helper process that starts the benchmark's Python subprocesses.

A child started by fork or vfork takes the high-water RSS of its parent's
address space into its own ``ru_maxrss`` when it execs.  The benchmark
process holds ddna and the generated inputs, so children started from it
would all report at least its size.  The helper is forked before any of
that is loaded and starts every subprocess, so the peak RSS it reports
for its children is theirs.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from multiprocessing import Pipe
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Completed:
    returncode: int | None  # None when the run timed out
    stdout: bytes
    stderr: bytes
    seconds: float


def child_env() -> dict[str, str]:
    """The pinned environment of every ddna subprocess."""
    env = {k: v for k, v in os.environ.items() if k not in ("DDNA_THETA", "PYTHONPATH")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    return env


class Launcher:
    def __init__(self) -> None:
        self._conn, theirs = Pipe()
        self.pid = os.fork()
        if self.pid == 0:
            self._conn.close()
            _serve(theirs)
        theirs.close()

    def run(self, args: list[str]) -> Completed:
        """Run ``python <args>`` from the repository root and wait for it."""
        self._conn.send(args)
        return self._conn.recv()

    def children_peak_rss_mb(self) -> float:
        self._conn.send("rusage")
        return self._conn.recv() / 1024

    def close(self) -> None:
        self._conn.send(None)
        self._conn.close()
        os.waitpid(self.pid, 0)


def _serve(conn) -> None:
    code = 1
    try:
        env = child_env()
        while (request := conn.recv()) is not None:
            if request == "rusage":
                conn.send(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
                continue
            start = time.perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, *request], cwd=ROOT, env=env, capture_output=True, timeout=60
                )
                done = Completed(proc.returncode, proc.stdout, proc.stderr, 0.0)
            except subprocess.TimeoutExpired as exc:
                done = Completed(None, exc.stdout or b"", exc.stderr or b"", 0.0)
            done.seconds = time.perf_counter() - start
            conn.send(done)
        code = 0
    finally:
        os._exit(code)

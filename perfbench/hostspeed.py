"""Host speed: a fixed pure-Python loop, timed on two processes at once.

Usage: ``python3 perfbench/hostspeed.py SECONDS`` prints one line, the
number of calibration rounds this process completed per second.

The benchmark's host is a small VM on a shared machine whose effective CPU
speed drifts by a fifth to a third over minutes as neighbours come and go.
That drift moves every CPU-bound rate the same way, so the scan rate is
also reported scaled to a nominal host speed: :func:`measure` runs this
loop on two processes (as many as ``scan --jobs 2`` keeps busy) between
scans, and ``rate * NOMINAL_ROUNDS_PER_S / measured`` is the rate the
scan would have had on a host running the loop at the nominal speed.
The loop is benchmark code and never changes with the program, so a change
to the program moves the scaled rate exactly as it moves the raw one.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

#: Rounds per second of both processes together on the host the benchmark
#: was written on (2-vCPU x86-64 VM, Python 3.11); it sets the unit only.
NOMINAL_ROUNDS_PER_S = 1000.0
PROCESSES = 2

_WORDS = [f"label{i}-xn--{i * 7919 % 10007}" for i in range(512)]


def _round() -> int:
    table = {}
    for word in _WORDS:
        table[word] = word.upper().encode().decode().replace("-", ".").split(".")
    total = 0
    for i in range(20_000):
        total += (i * i) % 7
    return len(table) + total


def rounds_per_s(seconds: float) -> float:
    rounds = 0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        _round()
        rounds += 1
    return rounds / (time.perf_counter() - started)


def measure(seconds: float, env: dict, processes: list) -> float:
    """Rounds per second of :data:`PROCESSES` loop processes run side by side."""
    argv = [sys.executable, str(Path(__file__).resolve()), str(seconds)]
    procs = []
    try:
        for _ in range(PROCESSES):
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                    env=env)
            processes.append(proc)
            procs.append(proc)
        total = 0.0
        for proc in procs:
            out, _err = proc.communicate(timeout=60 + seconds)
            if proc.returncode != 0:
                raise RuntimeError(f"host-speed loop exited with {proc.returncode}")
            total += float(out)
        return total
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            processes.remove(proc)


if __name__ == "__main__":
    print(rounds_per_s(float(sys.argv[1])), flush=True)

"""Start-method-aware worker-pool plumbing (fork fast path, spawn correct path).

Every parallel engine in the repo — the SimChar build shards
(:mod:`repro.metrics.pixel`), the streaming scan (:mod:`repro.detection.stream`),
and the serving worker pool (:mod:`repro.serving.server`) — creates its
process pool through this module instead of deciding per call site.

Policy:

* ``fork`` is the fast path — children inherit the parent's prepared state
  by page sharing, and worker arguments are not pickled;
* ``spawn`` and ``forkserver`` are *correct*, not serial — their worker
  arguments are pickled, and every worker in the repo takes *picklable
  specs* (the artifact path for an mmap re-attach, plain dicts and numpy
  arrays otherwise), so workers rebuild their state from the pickled spec
  and macOS/Windows (or an explicit ``set_start_method("spawn")``) get
  real parallelism.  CPython's spawn bootstrap turns an unguarded host
  script (no ``if __name__ == "__main__"``) into a clear ``RuntimeError``.
"""

from __future__ import annotations

import multiprocessing
import os
import time

__all__ = [
    "resolve_start_method",
    "pool_context",
    "worker_pids",
]


def resolve_start_method(start_method: str | None = None) -> str:
    """The start method a pool created now would use.

    An explicit *start_method* wins (validated against the platform's
    supported set); otherwise the host application's globally-set method is
    honoured, falling back to the platform default — all without pinning
    the global context, so a library call never forecloses the host's
    choice (``tests/test_parallel_pool.py`` asserts this stays true).
    """
    if start_method is not None:
        if start_method not in multiprocessing.get_all_start_methods():
            raise ValueError(
                f"start method {start_method!r} not supported here; "
                f"available: {multiprocessing.get_all_start_methods()}"
            )
        return start_method
    method = multiprocessing.get_start_method(allow_none=True)
    if method is None:
        method = multiprocessing.get_all_start_methods()[0]
    return method


def pool_context(start_method: str | None = None):
    """A multiprocessing context for *start_method* (resolved as above).

    Always returns a context — spawn platforms get a spawn context rather
    than ``None``.  Callers that must ship worker state decide *what* to
    ship by inspecting ``context.get_start_method()``: under fork the
    initializer arguments are inherited, under spawn they are pickled, so
    unpicklable state (an mmap-backed index) must be replaced by a
    re-attach spec.
    """
    return multiprocessing.get_context(resolve_start_method(start_method))


def _pid_probe(hold_seconds: float) -> int:
    """Report this worker's PID, holding the slot so probes spread out."""
    time.sleep(hold_seconds)
    return os.getpid()


def worker_pids(pool, samples: int, *, hold_seconds: float = 0.2) -> list[int]:
    """PIDs that served *samples* probe tasks on *pool* (one task per slot).

    Each probe sleeps *hold_seconds* so a fast worker cannot drain the whole
    probe queue before its siblings finish bootstrapping — under spawn a
    child takes ~100ms to come up.  ``len(set(...))`` of the result is the
    demonstrable-parallelism check the spawn benches and tests assert on.
    """
    return list(pool.map(_pid_probe, [hold_seconds] * samples, chunksize=1))

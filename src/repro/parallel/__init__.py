"""Process-pool plumbing shared by every parallel path in the repo."""

from .pool import pool_context, resolve_start_method, worker_pids

__all__ = ["pool_context", "resolve_start_method", "worker_pids"]

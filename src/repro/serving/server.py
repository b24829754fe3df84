"""Asyncio serving layer around :class:`~repro.detection.service.OnlineDetector`.

The CLI's original ``serve`` mode is a single-process stdin/FIFO loop —
one client, one query at a time.  This module is the network layer that
lets many clients share one warm reference index:

* **one listener, two protocols** — JSONL-over-TCP with per-connection
  request framing, plus a minimal HTTP frontend (``POST /query``, ``GET
  /stats``, ``POST /reload``), told apart by sniffing the first line
  (:mod:`.protocol`);
* **micro-batching** — requests from all connections funnel into one
  bounded queue; a batcher task coalesces them for up to
  ``batch_window`` seconds (or ``max_batch`` requests) and executes each
  batch through :meth:`OnlineDetector.query_many
  <repro.detection.service.OnlineDetector.query_many>`, so the per-query
  fixed costs are amortised exactly like the batch scan path;
* **backpressure, not buffering** — when ``max_pending`` requests are
  already queued, new ones are *rejected* with ``{"error": "overloaded",
  "retry_after": ...}`` (HTTP: ``503`` + ``Retry-After``) instead of
  growing an unbounded buffer until the process dies;
* **worker processes sharing one index** — with ``workers=N``, batches
  are executed by a :class:`WorkerPool` (parallel under any start method,
  fork *and* spawn) whose processes attach
  to the packed index artifact via ``mmap``
  (:meth:`ReferenceIndexStore.load_path
  <repro.detection.index.ReferenceIndexStore.load_path>`): one page-cache
  copy of the index, no per-worker build (``benchmarks/
  bench_serve.py`` asserts both the attach cost and the scaling);
* **hot reload** — SIGHUP or ``POST /reload`` builds/loads the new index
  *first*, then swaps: in-flight queries finish on the generation they
  pinned (every reply carries its index ``fingerprint``), the detector
  LRU is invalidated via the fingerprint check in
  :meth:`~repro.detection.service.OnlineDetector.reload_index`, and
  workers pick the new generation up from the next dispatched batch;
* **graceful drain** — :meth:`HomographServer.shutdown` stops intake,
  flushes every queued request through the batcher, waits for in-flight
  batches (and :meth:`OnlineDetector.drain
  <repro.detection.service.OnlineDetector.drain>`), then closes the pool:
  zero accepted queries dropped.
"""

from __future__ import annotations

import asyncio
import json
import signal
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

from ..detection.index import ReferenceIndex, ReferenceIndexStore
from ..detection.service import OnlineDetector
from ..detection.shamfinder import ShamFinder
from ..parallel.pool import pool_context
from .protocol import (
    MAX_HTTP_BODY_BYTES,
    MAX_LINE_BYTES,
    ProtocolError,
    encode_reply,
    error_reply,
    http_response,
    is_http_preamble,
    overload_reply,
    parse_http_headers,
    parse_http_request_line,
    parse_line,
    verdict_reply,
)

__all__ = ["ServeConfig", "HomographServer", "WorkerPool"]


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one :class:`HomographServer` (see ``docs/OPERATIONS.md``)."""

    host: str = "127.0.0.1"
    port: int = 0                    # 0: pick an ephemeral port (tests/benches)
    #: How long the batcher waits for more requests before flushing a
    #: non-full batch.  0 degenerates to one batch per request.
    batch_window: float = 0.005
    #: Hard cap on requests per executed batch.
    max_batch: int = 256
    #: Bound on queued-but-undispatched requests; beyond it, reject.
    max_pending: int = 1024
    #: Worker processes executing batches (0 = inline in this process).
    workers: int = 0
    #: Longest accepted JSONL request line.
    max_line_bytes: int = MAX_LINE_BYTES
    #: How long shutdown waits for detector-level in-flight queries.
    drain_timeout: float = 5.0


class _QueryJob:
    __slots__ = ("domain", "id", "future")

    def __init__(self, domain: str, request_id, future: asyncio.Future) -> None:
        self.domain = domain
        self.id = request_id
        self.future = future


_CLOSE = object()      # per-connection reply-writer sentinel


def _resolve(future: asyncio.Future, reply) -> None:
    """Deliver a reply unless the requester is already gone."""
    if not future.done():
        future.set_result(reply)


# -- the worker pool ----------------------------------------------------------

# Per-worker-process serving state, seeded by the pool initializer (the
# same idiom as the scan/build engines in metrics.pixel / detection.stream).
_POOL_STATE: dict = {}


def _end_reading(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    """Read nothing more from a connection: its handler sees end of input
    after the bytes already received (a partial last line included)."""
    writer.transport.pause_reading()   # no data may follow the EOF fed below
    reader.feed_eof()


def _pool_attach(index_path: str, fingerprint: str) -> OnlineDetector | None:
    """(Re)attach this worker to the artifact at *index_path* via mmap."""
    finder = _POOL_STATE["finder"]
    store = ReferenceIndexStore(Path(index_path).parent)
    index = store.load_path(index_path, finder, verify=False)
    if index is None or index.fingerprint != fingerprint:
        return None
    detector = _POOL_STATE.get("detector")
    if detector is None:
        detector = OnlineDetector(
            finder,
            index,
            cache_size=_POOL_STATE["cache_size"],
            include_revert=_POOL_STATE["include_revert"],
        )
        _POOL_STATE["detector"] = detector
    else:
        detector.reload_index(index)
    return detector


def _pool_worker_init(
    finder: ShamFinder,
    index_path: str,
    fingerprint: str,
    include_revert: bool,
    cache_size: int,
) -> None:
    _POOL_STATE.update(
        finder=finder, include_revert=include_revert, cache_size=cache_size,
    )
    try:
        _pool_attach(index_path, fingerprint)
    # lint: allow-broad-except(worker bootstrap must not kill the pool; the first batch re-attaches and surfaces the error)
    except Exception:
        # Leave the attach to the first batch; a worker that cannot warm up
        # must not kill the whole pool at fork time.
        pass


def _pool_warm(index_path: str, fingerprint: str, hold_seconds: float) -> str:
    """Force this worker to attach; *hold_seconds* keeps it busy so the
    executor spins up every worker instead of reusing one."""
    import time

    detector = _POOL_STATE.get("detector")
    if detector is None or detector.index.fingerprint != fingerprint:
        detector = _pool_attach(index_path, fingerprint)
    if detector is None:
        raise RuntimeError(f"worker could not attach reference index {index_path}")
    time.sleep(hold_seconds)
    return detector.index.fingerprint


def _pool_query(
    domains: list[str],
    ids: list,
    fingerprint: str,
    index_path: str,
) -> list[str]:
    """Execute one batch in a worker; returns pre-encoded JSONL replies.

    The batch pins the (fingerprint, path) captured at dispatch time: a
    worker lagging behind a hot reload re-attaches before serving, and a
    batch dispatched before the swap completes on the old generation —
    either way every reply in the batch carries one consistent
    fingerprint.
    """
    detector = _POOL_STATE.get("detector")
    if detector is None or detector.index.fingerprint != fingerprint:
        detector = _pool_attach(index_path, fingerprint) or detector
    if detector is None:
        raise RuntimeError(f"worker could not attach reference index {index_path}")
    index = detector.index
    verdicts = detector.query_many(domains, index=index)
    stamp = index.fingerprint
    return [
        json.dumps(verdict_reply(verdict.as_dict(), stamp, request_id), ensure_ascii=False)
        for verdict, request_id in zip(verdicts, ids)
    ]


class WorkerPool:
    """Process pool whose workers mmap-share one reference index.

    Each worker attaches to the packed ``refindex-*.idx`` artifact with
    :meth:`~repro.detection.index.ReferenceIndexStore.load_path` — an
    O(header) open against the shared page cache — instead of re-running
    ``prepare_references``, so adding workers adds query throughput, not index
    copies.  The initializer arguments were always a picklable re-attach
    spec (artifact path + expected fingerprint), so the pool runs parallel
    under every start method: fork inherits the finder, spawn pickles it
    and each child re-opens the same inode.  *start_method* forces one;
    ``None`` honours the host/platform choice.

    One live pool per process: worker state rides in module globals, the
    same idiom as the scan/build engines.
    """

    def __init__(
        self,
        finder: ShamFinder,
        index_path: str | Path,
        fingerprint: str,
        *,
        workers: int,
        include_revert: bool = False,
        cache_size: int = 4096,
        start_method: str | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        # Only --workers runs a process pool: its machinery loads here.
        from concurrent.futures import ProcessPoolExecutor

        context = pool_context(start_method)
        self.workers = workers
        self.index_path = str(index_path)
        self.fingerprint = fingerprint
        self._executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=_pool_worker_init,
            initargs=(finder, self.index_path, fingerprint, include_revert, cache_size),
        )

    def warm(self, hold_seconds: float = 0.1) -> None:
        """Spin up every worker and make each attach the index now.

        Raises if any worker cannot attach — better to fail at startup
        than on the first live query.
        """
        futures = [
            self._executor.submit(_pool_warm, self.index_path, self.fingerprint, hold_seconds)
            for _ in range(self.workers)
        ]
        for future in futures:
            future.result()

    def submit(self, domains: list[str], ids: list, fingerprint: str, index_path: str):
        """Submit one batch; returns the executor future of encoded replies."""
        return self._executor.submit(_pool_query, domains, ids, fingerprint, index_path)

    def close(self) -> None:
        self._executor.shutdown(wait=True, cancel_futures=False)


# -- the server ---------------------------------------------------------------


class HomographServer:
    """One listening socket serving many clients from one warm index.

    Construction wires the pieces; :meth:`start` binds the socket and
    launches the batcher, :meth:`run` adds signal handling and blocks
    until :meth:`shutdown` (or SIGINT/SIGTERM).  *reloader*, when given,
    is a blocking callable producing a fresh
    :class:`~repro.detection.index.ReferenceIndex` — it runs on an
    executor thread under SIGHUP / ``POST /reload`` / a JSONL ``{"op":
    "reload"}`` request, and must return a *mapped* index when a worker
    pool is attached (workers re-attach by artifact path).
    """

    def __init__(
        self,
        detector: OnlineDetector,
        config: ServeConfig | None = None,
        *,
        pool: WorkerPool | None = None,
        reloader: Callable[[], ReferenceIndex] | None = None,
    ) -> None:
        self.detector = detector
        self.config = config or ServeConfig()
        self.pool = pool
        self.reloader = reloader
        self.address: tuple[str, int] | None = None
        # Server state lives on one event loop, so reads need no lock; the
        # *writes* below happen in reload(), which off-loops the expensive
        # rebuild, and are serialized by _reload_lock so two concurrent
        # reloads cannot interleave their (fingerprint, path) swap with the
        # index-holder update.  The `# guarded-by: ... [writes]` annotations
        # make repro-lint enforce exactly that (docs/LINT.md#lock-discipline).
        self._current: tuple[str, str] | None = (  # guarded-by: _reload_lock [writes]
            (pool.fingerprint, pool.index_path) if pool is not None else None
        )
        self._held_index: ReferenceIndex | None = None   # guarded-by: _reload_lock [writes]
        self._server: asyncio.AbstractServer | None = None
        self._queue: asyncio.Queue | None = None
        self._batcher_task: asyncio.Task | None = None
        self._dispatch_tasks: set[asyncio.Task] = set()
        self._dispatch_sem: asyncio.Semaphore | None = None
        self._reload_lock: asyncio.Lock | None = None
        self._stop_event: asyncio.Event | None = None
        #: Open connections' handler tasks and streams: shutdown ends their
        #: reading, so each handler finishes on its own before the loop closes.
        self._connections: dict[asyncio.Task, tuple[asyncio.StreamReader,
                                                     asyncio.StreamWriter]] = {}
        self._draining = False
        self._counters = {
            "connections": 0, "active_connections": 0,
            "requests": 0, "replies": 0, "rejected": 0,
            "protocol_errors": 0, "batches": 0, "batched_requests": 0,
            "batch_errors": 0, "dropped_replies": 0, "reloads": 0,
        }

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind the listener and start the batcher; returns (host, port)."""
        config = self.config
        self._queue = asyncio.Queue(maxsize=config.max_pending)
        self._dispatch_sem = asyncio.Semaphore(max(1, config.workers))
        self._reload_lock = asyncio.Lock()
        self._server = await asyncio.start_server(
            self._on_connection, config.host, config.port,
            limit=max(65536, config.max_line_bytes * 2),
        )
        self._batcher_task = asyncio.create_task(self._batcher())
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self.address

    async def run(self, *, install_signals: bool = True) -> None:
        """Start, handle signals, and block until :meth:`shutdown`.

        SIGINT/SIGTERM trigger a graceful drain; SIGHUP a hot reload
        (where the platform supports signal handlers in the event loop).
        A caller that already ran :meth:`start` (e.g. to learn the bound
        port) is not re-bound.
        """
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        if install_signals:
            try:
                loop.add_signal_handler(signal.SIGINT, self._stop_event.set)
                loop.add_signal_handler(signal.SIGTERM, self._stop_event.set)
                if hasattr(signal, "SIGHUP"):
                    loop.add_signal_handler(
                        signal.SIGHUP,
                        lambda: asyncio.ensure_future(self.reload()),
                    )
            except (NotImplementedError, RuntimeError):   # e.g. Windows loops
                pass
        await self._stop_event.wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        """Graceful drain: stop intake, flush the queue, finish batches.

        Every request accepted before shutdown gets its reply; requests
        arriving during the drain are rejected with a retriable error.
        Open connections stop reading (what they already received is
        served), write their replies and close, so every connection
        handler ends on its own rather than cancelled; one whose client
        does not take its replies within ``drain_timeout`` is aborted.
        """
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        for reader, writer in list(self._connections.values()):
            _end_reading(reader, writer)
        if self._queue is not None:
            await self._queue.put(None)           # batcher stop sentinel (FIFO: after all jobs)
        if self._batcher_task is not None:
            await self._batcher_task
        if self._dispatch_tasks:
            await asyncio.gather(*list(self._dispatch_tasks), return_exceptions=True)
        if self._connections:
            _done, stuck = await asyncio.wait(list(self._connections),
                                              timeout=self.config.drain_timeout)
            for task in stuck:
                self._connections[task][1].transport.abort()
            if stuck:
                await asyncio.wait(stuck)
        if self._server is not None:
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, partial(self.detector.drain, self.config.drain_timeout),
        )
        if self.pool is not None:
            await loop.run_in_executor(None, self.pool.close)
        if self._stop_event is not None:
            self._stop_event.set()

    # -- hot reload ----------------------------------------------------------

    async def reload(self) -> dict:
        """Build/load a fresh index and swap it in without dropping queries.

        The expensive part (the reloader) runs off-loop *before* the swap;
        queries keep resolving against the old generation until the new
        one is ready, and each in-flight batch completes on whichever
        fingerprint it pinned at dispatch.
        """
        if self.reloader is None:
            return {"error": "no reload source configured"}
        assert self._reload_lock is not None
        async with self._reload_lock:
            loop = asyncio.get_running_loop()
            try:
                new_index = await loop.run_in_executor(None, self.reloader)
            except Exception as exc:
                return {"error": f"reload failed: {exc}"}
            previous = self.fingerprint
            if self.pool is not None:
                path = new_index.prepared.path
                if path is None:
                    return {
                        "error": "reload produced an unmapped index; "
                                 "worker processes re-attach by artifact path"
                    }
                self._current = (new_index.fingerprint, str(path))
            changed = self.detector.reload_index(new_index)
            self._held_index = new_index
            self._counters["reloads"] += 1
            return {
                "reloaded": True,
                "changed": changed,
                "fingerprint": new_index.fingerprint,
                "previous": previous,
            }

    @property
    def fingerprint(self) -> str:
        """The index generation newly dispatched batches will pin."""
        if self._current is not None:
            return self._current[0]
        return self.detector.index.fingerprint

    def stats(self) -> dict:
        """Server counters plus the wrapped detector's (the /stats payload)."""
        payload = dict(self._counters)
        payload["draining"] = self._draining
        payload["queue_depth"] = self._queue.qsize() if self._queue is not None else 0
        payload["workers"] = self.pool.workers if self.pool is not None else 0
        payload["fingerprint"] = self.fingerprint
        payload["batch_window"] = self.config.batch_window
        payload["max_pending"] = self.config.max_pending
        payload["detector"] = self.detector.stats()
        return payload

    # -- intake --------------------------------------------------------------

    def _retry_after(self) -> float:
        return max(self.config.batch_window * 2, 0.05)

    def _submit_query(self, domain: str, request_id) -> "asyncio.Future | dict":
        """Enqueue one query; an immediate error dict when rejected."""
        if self._draining:
            self._counters["rejected"] += 1
            return error_reply("shutting down", request_id)
        future = asyncio.get_running_loop().create_future()
        try:
            self._queue.put_nowait(_QueryJob(domain, request_id, future))
        except asyncio.QueueFull:
            self._counters["rejected"] += 1
            return overload_reply(self._retry_after(), request_id)
        self._counters["requests"] += 1
        return future

    # -- batching ------------------------------------------------------------

    async def _batcher(self) -> None:
        """Coalesce queued jobs into batches bounded by window and size."""
        assert self._queue is not None and self._dispatch_sem is not None
        loop = asyncio.get_running_loop()
        config = self.config
        stopping = False
        while not stopping:
            job = await self._queue.get()
            if job is None:
                break
            batch = [job]
            deadline = loop.time() + config.batch_window
            while len(batch) < config.max_batch:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    nxt = await asyncio.wait_for(self._queue.get(), remaining)
                except asyncio.TimeoutError:
                    break
                if nxt is None:
                    stopping = True
                    break
                batch.append(nxt)
            await self._dispatch_sem.acquire()
            task = asyncio.create_task(self._run_batch(batch))
            self._dispatch_tasks.add(task)
            task.add_done_callback(self._dispatch_done)

    def _dispatch_done(self, task: asyncio.Task) -> None:
        self._dispatch_tasks.discard(task)
        if self._dispatch_sem is not None:
            self._dispatch_sem.release()
        if not task.cancelled() and task.exception() is not None:   # pragma: no cover
            self._counters["batch_errors"] += 1

    async def _run_batch(self, batch: list[_QueryJob]) -> None:
        """Execute one batch inline or on the pool; resolve every future."""
        self._counters["batches"] += 1
        self._counters["batched_requests"] += len(batch)
        domains = [job.domain for job in batch]
        loop = asyncio.get_running_loop()
        try:
            if self.pool is not None:
                fingerprint, index_path = self._current
                ids = [job.id for job in batch]
                encoded = await asyncio.wrap_future(
                    self.pool.submit(domains, ids, fingerprint, index_path)
                )
                for job, reply in zip(batch, encoded):
                    _resolve(job.future, reply)
            else:
                index = self.detector.index
                verdicts = await loop.run_in_executor(
                    None, partial(self.detector.query_many, domains, index=index),
                )
                stamp = index.fingerprint
                for job, verdict in zip(batch, verdicts):
                    _resolve(job.future, verdict_reply(verdict.as_dict(), stamp, job.id))
        # lint: allow-broad-except(failure is surfaced to every requester as a retriable error reply below)
        except Exception as exc:
            # A dead worker / broken pool fails the batch, not the server:
            # every requester gets a retriable error reply.
            self._counters["batch_errors"] += 1
            for job in batch:
                _resolve(job.future, error_reply(f"batch execution failed: {exc}", job.id))

    # -- connections ---------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
    ) -> None:
        self._counters["connections"] += 1
        self._counters["active_connections"] += 1
        task = asyncio.current_task()
        self._connections[task] = (reader, writer)
        if self._draining:
            _end_reading(reader, writer)
        try:
            try:
                first = await reader.readline()
            except (ConnectionError, OSError, ValueError):
                return
            if not first:
                return
            if is_http_preamble(first):
                await self._handle_http(first, reader, writer)
            else:
                await self._jsonl_loop(first, reader, writer)
        finally:
            self._counters["active_connections"] -= 1
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            finally:
                del self._connections[task]

    # -- JSONL protocol ------------------------------------------------------

    async def _jsonl_loop(
        self,
        first_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Read request lines; replies are written strictly in request order.

        Reading and writing are decoupled (the reply writer task awaits
        each pending future in order) so a pipelining client fills batches
        instead of being served lock-step.
        """
        pending: asyncio.Queue = asyncio.Queue()
        writer_task = asyncio.create_task(self._reply_writer(pending, writer))
        line = first_line
        try:
            while line:
                if len(line) > self.config.max_line_bytes:
                    self._counters["protocol_errors"] += 1
                    await pending.put(error_reply("request line too long"))
                else:
                    await self._handle_jsonl_line(line, pending)
                try:
                    line = await reader.readline()
                except ValueError:
                    # Line overran the stream buffer: framing is lost, so
                    # reply once and close (unlike MAX_LINE_BYTES, which
                    # the connection survives).
                    self._counters["protocol_errors"] += 1
                    await pending.put(error_reply("request line exceeded stream limit"))
                    break
                except (ConnectionError, OSError):
                    break
        finally:
            await pending.put(_CLOSE)
            await writer_task

    async def _handle_jsonl_line(self, line: bytes, pending: asyncio.Queue) -> None:
        try:
            request = parse_line(line.decode("utf-8", errors="replace"))
        except ProtocolError as exc:
            self._counters["protocol_errors"] += 1
            await pending.put(error_reply(str(exc)))
            return
        if request is None:
            return
        if request.op is not None:
            if request.op == "ping":
                reply: dict = {"pong": True}
                if request.id is not None:
                    reply["id"] = request.id
                await pending.put(reply)
            elif request.op == "stats":
                await pending.put({"stats": self.stats()})
            else:   # reload
                await pending.put(asyncio.create_task(self._reload_reply(request.id)))
            return
        await pending.put(self._submit_query(request.domain, request.id))

    async def _reload_reply(self, request_id) -> dict:
        reply = dict(await self.reload())
        if request_id is not None:
            reply["id"] = request_id
        return reply

    async def _reply_writer(self, pending: asyncio.Queue, writer: asyncio.StreamWriter) -> None:
        """Resolve pending replies in order; survive the client vanishing.

        A disconnected client's outstanding batch results are consumed and
        discarded (counted in ``dropped_replies``) so batch execution never
        blocks on a gone peer.
        """
        gone = False
        while True:
            item = await pending.get()
            if item is _CLOSE:
                break
            reply = await item if isinstance(item, (asyncio.Future, asyncio.Task)) else item
            if gone or writer.is_closing():
                self._counters["dropped_replies"] += 1
                continue
            try:
                writer.write(encode_reply(reply))
                await writer.drain()
                self._counters["replies"] += 1
            except (ConnectionError, OSError):
                gone = True
                self._counters["dropped_replies"] += 1

    # -- HTTP protocol -------------------------------------------------------

    async def _handle_http(
        self,
        first_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            response = await self._http_response(first_line, reader)
        except ProtocolError as exc:
            response = http_response(400, {"error": str(exc)})
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            return
        try:
            writer.write(response)
            await writer.drain()
        except (ConnectionError, OSError):
            self._counters["dropped_replies"] += 1

    async def _http_response(self, first_line: bytes, reader: asyncio.StreamReader) -> bytes:
        method, path = parse_http_request_line(first_line)
        header_lines: list[bytes] = []
        while True:
            line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
            header_lines.append(line)
            if len(header_lines) > 64:
                raise ProtocolError("too many headers")
        headers = parse_http_headers(header_lines)
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError as exc:
            raise ProtocolError("bad Content-Length") from exc
        if length < 0 or length > MAX_HTTP_BODY_BYTES:
            raise ProtocolError("request body too large")
        body = await reader.readexactly(length) if length else b""

        if method == "POST" and path == "/query":
            return await self._http_query(body)
        if method == "GET" and path == "/stats":
            return http_response(200, self.stats())
        if method == "POST" and path == "/reload":
            result = await self.reload()
            return http_response(500 if "error" in result else 200, result)
        return http_response(404, {"error": f"no route for {method} {path}"})

    async def _http_query(self, body: bytes) -> bytes:
        text = body.decode("utf-8", errors="replace")
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            payload = [line.strip() for line in text.splitlines()
                       if line.strip() and not line.strip().startswith("#")]
        if not isinstance(payload, list) or not all(
            isinstance(item, str) and item for item in payload
        ):
            raise ProtocolError("body must be a JSON array of domains or one domain per line")
        if not payload:
            return http_response(200, [])
        if self._draining:
            return http_response(503, {"error": "shutting down"},
                                 extra_headers={"Retry-After": "1"})
        # All-or-nothing admission: a bulk request larger than the spare
        # queue capacity is rejected whole, so it cannot half-enqueue.
        if self._queue.qsize() + len(payload) > self.config.max_pending:
            self._counters["rejected"] += len(payload)
            return http_response(
                503,
                overload_reply(self._retry_after()),
                extra_headers={"Retry-After": f"{self._retry_after():.3f}"},
            )
        outcomes = [self._submit_query(domain, None) for domain in payload]
        replies = [
            await item if isinstance(item, asyncio.Future) else item
            for item in outcomes
        ]
        encoded = [encode_reply(reply).rstrip(b"\n") for reply in replies]
        return http_response(200, b"[" + b",".join(encoded) + b"]\n")

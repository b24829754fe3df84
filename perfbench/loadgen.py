"""Open-loop load generator for the JSONL-over-TCP server.

One thread drives one load connection with non-blocking I/O: requests are
sent on a fixed arrival schedule (constant rate), and each one is timed
from the moment it was *due*, so a stall delays every later request's
clock instead of silently lowering the offered load.  The generator
records how late it sent each request (``lag``) so a phase in which the
generator itself fell behind is marked invalid rather than blamed on the
server.

Replies on one JSONL connection come back strictly in request order, so
reply *i* answers line *i*; no ids are needed and the request lines are
bare domain names, as a CT-log or registrar feed would send them.

Admin calls (``POST /reload``, ``GET /stats``) go over a second, short-lived
HTTP connection from a helper thread, so the generator never uses more than
two connections or two threads.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass, field

import numpy as np

#: Longest the send loop sleeps between schedule checks.
TICK = 0.0005
#: How long a phase waits for its outstanding replies before counting
#: them as timeouts.
DRAIN_TIMEOUT = 10.0
#: A latency window is invalid when the generator sent its 99th-percentile
#: request later than this after its due time.
MAX_LAG_P99_MS = 5.0
#: Length of the throughput windows of a saturating phase.
RATE_WINDOW = 0.25

STATS_LINE = b'{"op":"stats"}\n'


class LoadConnection:
    """One pipelined JSONL connection with per-line timing."""

    def __init__(self, host: str, port: int) -> None:
        sock = socket.create_connection((host, port), timeout=10)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        self.sock = sock
        self.out = bytearray()
        self.partial = b""
        #: Per request line, in send order: when it was due, when it was
        #: handed to the socket, and which request it carries (-1 for a
        #: control line such as a stats probe).
        self.due: list[float] = []
        self.sent_at: list[float] = []
        self.request_of: list[int] = []
        #: Per reply line, in arrival order (= request order).
        self.replies: list[bytes] = []
        self.recv_at: list[float] = []

    @property
    def lines_sent(self) -> int:
        return len(self.due)

    @property
    def outstanding(self) -> int:
        return len(self.due) - len(self.replies)

    def close(self) -> None:
        self.sock.close()

    def enqueue(self, payload: bytes, due: list[float], requests: list[int],
                now: float) -> None:
        self.out += payload
        self.due.extend(due)
        self.sent_at.extend([now] * len(due))
        self.request_of.extend(requests)

    def pump(self, pause: float) -> None:
        """Flush what the socket accepts, sleep *pause*, then take every reply
        that has arrived.

        Sleeping a fixed tick instead of waking on each arriving segment
        bounds the generator's wake-ups (and so its CPU share of the box) at
        ``1 / pause``; a reply's receive time is late by at most one tick.
        """
        if self.out:
            try:
                sent = self.sock.send(self.out)
                del self.out[:sent]
            except BlockingIOError:
                pass
        if pause > 0:
            time.sleep(pause)
        self._read()

    def _read(self) -> None:
        while True:
            try:
                data = self.sock.recv(1 << 20)
            except BlockingIOError:
                return
            if not data:
                raise ConnectionError("server closed the load connection")
            now = time.perf_counter()
            lines = (self.partial + data).split(b"\n")
            self.partial = lines.pop()
            if lines:
                self.replies.extend(lines)
                self.recv_at.extend([now] * len(lines))
            if len(data) < (1 << 20):
                return

    def drain(self, timeout: float = DRAIN_TIMEOUT) -> int:
        """Wait for every outstanding reply; returns how many never came."""
        deadline = time.perf_counter() + timeout
        while self.outstanding and time.perf_counter() < deadline:
            self.pump(TICK)
        return self.outstanding


class RequestStream:
    """The workload's request lines, consumed in order."""

    def __init__(self, domains: list[str]) -> None:
        self.domains = domains
        self.lines = [(domain + "\n").encode("utf-8") for domain in domains]
        self.cursor = 0
        self.wrapped = False

    def take(self, count: int) -> tuple[bytes, list[int]]:
        start = self.cursor % len(self.lines)
        stop = start + count
        if stop > len(self.lines):
            self.wrapped = True
            indices = [i % len(self.lines) for i in range(start, stop)]
            payload = b"".join(self.lines[i] for i in indices)
        else:
            indices = list(range(start, stop))
            payload = b"".join(self.lines[start:stop])
        self.cursor += count
        return payload, indices


@dataclass
class Phase:
    """What one load phase sent and got back (line ranges on the connection)."""

    name: str
    rate: float | None            # offered rate; None for a saturating phase
    first: int                    # first line index of the phase
    last: int                     # one past its last line index
    started: float
    ended: float                  # when sending stopped
    cpu_s: float                  # generator CPU time spent in the phase
    capped: bool = False          # the outstanding cap held sending back
    timeouts: int = 0
    #: Saturating phase: replies/s in each :data:`RATE_WINDOW` after the ramp.
    window_rates: list = field(default_factory=list)


def run_open_loop(
    conn: LoadConnection,
    stream: RequestStream,
    name: str,
    rate: float,
    duration: float,
    *,
    cap: int,
    stats_every: float | None = None,
    admin: "AdminSchedule | None" = None,
) -> Phase:
    """Send at *rate* requests/s for *duration* seconds, then drain.

    *cap* bounds outstanding requests (kept below the server's queue bound,
    so the server never has to reject); hitting it is recorded as backlog.
    *stats_every* interleaves a ``{"op":"stats"}`` probe on that period.
    """
    total = max(1, int(rate * duration))
    cpu0 = time.process_time()
    first = conn.lines_sent
    t0 = time.perf_counter() + 0.002
    if admin is not None:
        admin.start(t0)
    sent = 0
    capped = False
    next_probe = t0 + stats_every if stats_every else float("inf")
    while sent < total:
        now = time.perf_counter()
        due_count = min(total, int((now - t0) * rate) + 1) if now >= t0 else 0
        if due_count > sent:
            room = cap - conn.outstanding
            if room <= 0:
                capped = True
            else:
                count = min(due_count - sent, room)
                payload, indices = stream.take(count)
                due = (t0 + np.arange(sent, sent + count) / rate).tolist()
                conn.enqueue(payload, due, indices, now)
                sent += count
        if now >= next_probe:
            conn.enqueue(STATS_LINE, [now], [-1], now)
            next_probe += stats_every
        conn.pump(TICK)
    ended = time.perf_counter()
    if admin is not None:
        admin.join()
    timeouts = conn.drain()
    return Phase(name=name, rate=rate, first=first, last=conn.lines_sent,
                 started=t0, ended=ended, cpu_s=time.process_time() - cpu0,
                 capped=capped, timeouts=timeouts)


def run_saturating(
    conn: LoadConnection,
    stream: RequestStream,
    name: str,
    duration: float,
    *,
    window: int,
    ramp: float = 0.2,
    stats_every: float | None = None,
) -> Phase:
    """Keep *window* requests outstanding for *duration* seconds.

    Throughput is measured per :data:`RATE_WINDOW` after the *ramp*, so a
    single stall (a host hiccup, a collector pause) moves one window, not
    the phase's median.
    """
    cpu0 = time.process_time()
    first = conn.lines_sent
    t0 = time.perf_counter()
    t_end = t0 + duration
    next_probe = t0 + stats_every if stats_every else float("inf")
    while True:
        now = time.perf_counter()
        if now >= t_end:
            break
        room = window - conn.outstanding
        if room > 0:
            payload, indices = stream.take(room)
            conn.enqueue(payload, [now] * room, indices, now)
        if now >= next_probe:
            conn.enqueue(STATS_LINE, [now], [-1], now)
            next_probe += stats_every
        conn.pump(TICK)
    ended = time.perf_counter()
    edges = np.arange(t0 + ramp, ended, RATE_WINDOW)
    counts, _ = np.histogram(np.asarray(conn.recv_at[first:]), bins=edges)
    timeouts = conn.drain()
    return Phase(name=name, rate=None, first=first, last=conn.lines_sent,
                 started=t0, ended=ended, cpu_s=time.process_time() - cpu0,
                 timeouts=timeouts, window_rates=(counts / RATE_WINDOW).tolist())


# -- admin calls --------------------------------------------------------------


def http_call(host: str, port: int, method: str, path: str,
              timeout: float = 120.0) -> tuple[int, dict, float]:
    """One HTTP/1.0 exchange: ``(status, json_body, seconds)``."""
    started = time.perf_counter()
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(f"{method} {path} HTTP/1.0\r\nContent-Length: 0\r\n\r\n".encode())
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    seconds = time.perf_counter() - started
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body), seconds


class AdminSchedule:
    """Admin actions fired at fixed offsets from a phase's start, off-thread."""

    def __init__(self, actions: list) -> None:
        self.actions = actions            # (offset seconds, zero-arg callable)
        self.results: list = []
        self.error: Exception | None = None
        self._thread: threading.Thread | None = None

    def start(self, t0: float) -> None:
        def body() -> None:
            try:
                for offset, action in self.actions:
                    delay = t0 + offset - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    self.results.append(action())
            except Exception as exc:   # re-raised by join() on the main thread
                self.error = exc

        self._thread = threading.Thread(target=body, name="perfbench-admin")
        self._thread.start()

    def join(self) -> None:
        if self._thread is not None:
            self._thread.join()
        if self.error is not None:
            raise RuntimeError(f"admin action failed: {self.error}") from self.error

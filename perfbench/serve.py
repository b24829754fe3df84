"""The serve workloads: ``shamfinder serve --listen`` under open-loop load.

The server runs in its own process with the CLI defaults (inline
execution, ``--batch-window 0.005``, ``--max-batch 256``,
``--max-pending 1024``).  One run:

1. **set-up** — launches the server :data:`SETUP_LAUNCHES` times, each
   with the warm SimChar cache and an empty index directory, timing launch
   to the ``{"listening": ...}`` line; the last launch is kept;
2. **warm-up** (untimed) — saturating load, because the first phase runs
   10-15% slower (fold-table build, allocator and cache warm-up);
3. **peak** — a saturating phase (:data:`WINDOW` requests outstanding,
   always below the server's queue bound so nothing is rejected);
4. **low / high** — open loop at the two frozen rates of :data:`RATES`;
5. **capacity** — open-loop probes searching the highest offered rate
   with p99 ≤ :data:`P99_LIMIT_MS`, no error reply, no timeout and no
   backlog growth, to a resolution of :data:`CAPACITY_FINE_STEP` of peak;
6. **reload** — ``idn-serve`` hot-reloads the reference file (append +
   ``POST /reload``) on a fixed schedule while load continues at the high
   rate, so index rebuilds run beside reads; then both workloads reload
   :data:`RELOADS` times at idle, which is what ``reload_s`` reports.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from loadgen import (
    MAX_LAG_P99_MS,
    AdminSchedule,
    LoadConnection,
    Phase,
    RequestStream,
    http_call,
    run_open_loop,
    run_saturating,
)

#: Offered rates (requests/s) of the fixed-rate latency phases, frozen from
#: the saturating ``peak_qps`` measured at the commit that introduced this
#: benchmark (2-vCPU x86-64 VM, Python 3.11): ctlog-serve ~14k, idn-serve
#: ~6k.  The low rate is ~25% of that peak.  The high rate is ~40%
#: rather than 75%: on that box the open-loop knee (p99 rising past the
#: limit, backlog growing) sits anywhere from 40% to 85% of the saturating
#: peak as host CPU contention comes and goes, and near it p99 flips
#: between 10 and 80 ms from run to run.  The rates stay fixed across
#: later commits, so latency is always compared at equal offered load.
RATES = {
    "ctlog-serve": (3500.0, 6000.0),
    "idn-serve": (1500.0, 2400.0),
}
#: The latency limit of the capacity search.  It sits above the tail
#: latency that host CPU contention alone produces on a 2-vCPU VM (window
#: p99s of 25-45 ms at light load in contended periods) and below the
#: hundreds of milliseconds a growing backlog produces, so the search finds
#: the queueing knee rather than the host's jitter.
P99_LIMIT_MS = 100.0
#: Outstanding requests held by the saturating phases.
WINDOW = 512
#: Outstanding-request cap of the open-loop phases: below the server's
#: ``max_pending`` (1024), so the server never has to reject; reaching it
#: counts as backlog.
CAP = 900
SETUP_LAUNCHES = 5
#: Capacity search: coarse steps down from :data:`CAPACITY_START` of peak
#: until a probe passes, then one fine step back up; the resolution is the
#: fine step (5% of peak).
CAPACITY_START = 0.95
CAPACITY_COARSE_STEP = 0.10
CAPACITY_FINE_STEP = 0.05
CAPACITY_FLOOR = 0.15
#: Backlog growth: median latency of a probe's last quarter exceeds that of
#: its second quarter by more than this.
BACKLOG_GROWTH_MS = 5.0
#: Hot reloads per run (``idn-serve``: spread evenly over the reload phase).
RELOADS = 5
#: The peak, low and high phases each run as this many segments, spread
#: over the run in rounds.
ROUNDS = 3
#: Share of ``--seconds`` each phase segment takes.
PHASE_SHARE = {"warmup": 0.05, "peak": 0.06, "low": 0.06, "high": 0.08, "reload": 0.12,
               "probe": 0.06}
#: Trace run: period of the in-band ``{"op":"stats"}`` probes.
STATS_PERIOD = 0.02


def cpu_split() -> tuple[set[int], set[int]] | None:
    """``(server CPUs, generator CPUs)``: the first CPU for the server, the
    rest for the load generator; None on a single-CPU box.

    On two CPUs, letting the scheduler mix the server's event-loop and
    executor threads with the generator makes each delay the other's
    wake-ups by milliseconds, which shows up as run-to-run latency noise
    and as generator lag.  Pinning gives each its own CPU.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return {cpus[0]}, set(cpus[1:])


class ServerProcess:
    """One ``serve --listen`` process started through ``launch.py``."""

    def __init__(self, argv: list[str], env: dict, cpus: set[int] | None,
                 timeout: float = 120.0) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, env=env,
            preexec_fn=partial(os.sched_setaffinity, 0, cpus) if cpus else None)
        self.stderr_head = b""
        try:
            listening = self._wait_listening(timeout)
        except BaseException:
            self.kill()
            raise
        self.ready_s = time.perf_counter() - self.started
        host, _, port = listening.rpartition(":")
        self.host, self.port = host, int(port)

    def _wait_listening(self, timeout: float) -> str:
        fd = self.proc.stderr.fileno()
        deadline = time.perf_counter() + timeout
        buffer = b""
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.05)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            data = os.read(fd, 65536)
            if not data:
                break
            buffer += data
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                self.stderr_head += line + b"\n"
                try:
                    payload = json.loads(line)
                except ValueError:
                    continue
                if isinstance(payload, dict) and "listening" in payload:
                    return payload["listening"]
        raise RuntimeError("server did not start listening: "
                           + self.stderr_head.decode(errors="replace")[-2000:])

    def stop(self) -> int:
        """SIGTERM (graceful drain); returns the VmHWM reported at exit, in kB."""
        # The server installs its signal handlers just after printing the
        # listening line; one answered request proves they are in place.
        http_call(self.host, self.port, "GET", "/stats")
        self.proc.send_signal(signal.SIGTERM)
        _out, err = self.proc.communicate(timeout=60)
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with {self.proc.returncode}: "
                               + err.decode(errors="replace")[-2000:])
        return vmhwm_from(err)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def vmhwm_from(stderr: bytes) -> int:
    """The ``perfbench_vmhwm_kb`` value ``launch.py`` printed last."""
    for line in reversed(stderr.decode(errors="replace").splitlines()):
        if "perfbench_vmhwm_kb" in line:
            return int(json.loads(line)["perfbench_vmhwm_kb"])
    raise RuntimeError("the program did not report its peak RSS")


#: Latency is summarised over consecutive windows of this many requests
#: (in send order); a window's 99th percentile then has ten samples beyond
#: it, and the phase reports the median over its valid windows.
LATENCY_WINDOW = 1000


@dataclass
class PhaseStats:
    """Latency summary of one phase (query lines only).

    ``p50_ms``/``p99_ms`` are medians over :data:`LATENCY_WINDOW`-request
    windows of each window's percentile, so one stall moves one window
    rather than the phase.  Latency counts from each request's due time, so
    a late generator shows up in it; ``valid`` is False when the generator's
    own send lag (p99) exceeded ``MAX_LAG_P99_MS`` without the outstanding
    cap holding it back, so such a phase is flagged rather than silently
    read as a server slowdown.
    """

    name: str
    rate: float | None
    requests: int
    p50_ms: float
    p99_ms: float
    lag_p99_ms: float
    errors: int
    timeouts: int
    capped: bool
    backlog_grew: bool
    valid: bool
    cpu_s: float = 0.0
    throughput: float | None = None
    #: Per-window values behind the medians, pooled across segments.
    window_p50: list = field(default_factory=list)
    window_p99: list = field(default_factory=list)
    window_rates: list = field(default_factory=list)

    @property
    def meets_limit(self) -> bool:
        return (self.p99_ms <= P99_LIMIT_MS and self.errors == 0 and self.timeouts == 0
                and not self.capped and not self.backlog_grew)


def summarise(conn: LoadConnection, phase: Phase) -> PhaseStats:
    is_query = np.asarray(conn.request_of[phase.first:phase.last]) >= 0
    answered = min(phase.last, len(conn.replies)) - phase.first
    due = np.asarray(conn.due[phase.first:phase.last])[is_query]
    sent = np.asarray(conn.sent_at[phase.first:phase.last])[is_query]
    recv = np.asarray(conn.recv_at[phase.first:phase.first + answered])
    recv = recv[is_query[:answered]]
    latency = (recv - due[:len(recv)]) * 1e3
    lag = (sent - due) * 1e3
    replies = conn.replies[phase.first:phase.first + answered]
    errors = sum(1 for reply, query in zip(replies, is_query)
                 if query and reply.startswith(b'{"error"'))

    windows = [part for part in np.array_split(latency, max(1, len(latency) // LATENCY_WINDOW))
               if len(part)]
    p50s = [float(np.percentile(part, 50)) for part in windows]
    p99s = [float(np.percentile(part, 99)) for part in windows]
    lag_p99 = float(np.percentile(lag, 99)) if len(lag) else 0.0
    quarter = len(latency) // 4
    grew = bool(quarter) and bool(np.median(latency[3 * quarter:])
                                  > np.median(latency[quarter:2 * quarter]) + BACKLOG_GROWTH_MS)
    stats = PhaseStats(
        name=phase.name, rate=phase.rate, requests=int(is_query.sum()),
        p50_ms=float(np.median(p50s)) if p50s else float("inf"),
        p99_ms=float(np.median(p99s)) if p99s else float("inf"),
        lag_p99_ms=lag_p99,
        errors=errors, timeouts=phase.timeouts, capped=phase.capped, backlog_grew=grew,
        # Lag forced by the outstanding cap is backlog, not generator lag.
        valid=phase.capped or lag_p99 <= MAX_LAG_P99_MS, cpu_s=phase.cpu_s,
        window_p50=p50s, window_p99=p99s, window_rates=phase.window_rates,
    )
    if phase.rate is None:
        stats.throughput = float(np.median(phase.window_rates))
    return stats


def pooled(name: str, segments: list[PhaseStats]) -> PhaseStats:
    """One phase's summary over segments spread across the run.

    Spreading a phase over several segments decorrelates it from host
    contention lasting a few seconds; the medians pool every window.
    """
    p50s = [v for seg in segments for v in seg.window_p50]
    p99s = [v for seg in segments for v in seg.window_p99]
    rates = [v for seg in segments for v in seg.window_rates]
    return PhaseStats(
        name=name, rate=segments[0].rate, requests=sum(seg.requests for seg in segments),
        p50_ms=float(np.median(p50s)) if p50s else float("inf"),
        p99_ms=float(np.median(p99s)) if p99s else float("inf"),
        lag_p99_ms=max(seg.lag_p99_ms for seg in segments),
        errors=sum(seg.errors for seg in segments),
        timeouts=sum(seg.timeouts for seg in segments),
        capped=any(seg.capped for seg in segments),
        backlog_grew=any(seg.backlog_grew for seg in segments),
        valid=all(seg.valid for seg in segments),
        cpu_s=sum(seg.cpu_s for seg in segments),
        throughput=float(np.median(rates)) if rates else None,
        window_p50=p50s, window_p99=p99s, window_rates=rates,
    )


@dataclass
class ServeResult:
    setup_s: list[float]
    peak_qps: float
    capacity_qps: float
    low: PhaseStats
    high: PhaseStats
    reload_s: list[float]
    #: ``idn-serve`` only: reloads timed while load continues.
    loaded_reload_s: list[float]
    server_vmhwm_kb: int
    phases: list[PhaseStats]
    generator_cpu_s: float
    #: Hot-reload generations in order: the reference list each one serves.
    generations: list[list[str]]
    conn: LoadConnection
    stream: RequestStream
    index_dir: Path
    stats_before: dict = field(default_factory=dict)
    stats_after: dict = field(default_factory=dict)
    queue_depth_max: int = 0
    untraced_peak_qps: float | None = None

    @property
    def attempted(self) -> int:
        return (sum(p.requests for p in self.phases) + len(self.reload_s)
                + len(self.loaded_reload_s))

    @property
    def failed(self) -> int:
        return sum(p.errors + p.timeouts for p in self.phases)


def run(workload, ctx, seconds: float, trace: bool) -> ServeResult:
    """One serve run against a freshly started server."""
    work: Path = ctx.run_dir
    refs_path = work / "refs.txt"
    refs_path.write_text("".join(r + "\n" for r in workload.references), encoding="utf-8")

    def argv(index_dir: Path) -> list[str]:
        return [sys.executable, str(ctx.launcher), "serve", "--listen", "127.0.0.1:0",
                "--reference-file", str(refs_path), "--cache-dir", str(ctx.cache_dir),
                "--index-dir", str(index_dir), "--build-index"]

    split = cpu_split()
    setup_s = []
    server = None
    for launch in range(SETUP_LAUNCHES):
        if server is not None:
            server.stop()
            ctx.processes.remove(server)
        server = ServerProcess(argv(work / f"index-{launch}"), ctx.env,
                               split[0] if split else None)
        ctx.processes.append(server)
        setup_s.append(server.ready_s)
    # The generator (this thread and the admin thread it starts) gets the
    # other CPUs until the server stops.
    all_cpus = os.sched_getaffinity(0)
    if split:
        os.sched_setaffinity(0, split[1])

    low_rate, high_rate = RATES[workload.name]
    generations = [list(workload.references)]

    def reload_action(batch: list[str]):
        def action() -> float:
            with open(refs_path, "a", encoding="utf-8") as handle:
                handle.write("".join(r + "\n" for r in batch))
            generations.append(generations[-1] + list(batch))
            status, body, took = http_call(server.host, server.port, "POST", "/reload")
            if status != 200 or not body.get("changed"):
                raise RuntimeError(f"reload failed: {status} {body}")
            return took
        return action

    conn = LoadConnection(server.host, server.port)
    stream = RequestStream(workload.requests)
    stats_every = STATS_PERIOD if trace else None
    phases: list[PhaseStats] = []
    raw_phases: list[Phase] = []

    def measured(phase: Phase) -> PhaseStats:
        raw_phases.append(phase)
        stats = summarise(conn, phase)
        phases.append(stats)
        print(f"phase {stats.name:<14} rate {stats.rate or 0:8.0f} p50 {stats.p50_ms:8.2f} "
              f"p99 {stats.p99_ms:8.2f} lag99 {stats.lag_p99_ms:7.2f} cpu {stats.cpu_s:5.2f} "
              f"wall {phase.ended - phase.started:5.2f} capped {stats.capped} "
              f"throughput {stats.throughput or 0:8.0f}", file=sys.stderr, flush=True)
        return stats

    def open_phase(name, rate, duration, admin=None) -> PhaseStats:
        return measured(run_open_loop(conn, stream, name, rate, duration, cap=CAP,
                                      stats_every=stats_every, admin=admin))

    run_saturating(conn, stream, "warmup", seconds * PHASE_SHARE["warmup"], window=WINDOW)
    before = http_call(server.host, server.port, "GET", "/stats")[1]
    untraced: list[PhaseStats] = []
    peaks: list[PhaseStats] = []
    lows: list[PhaseStats] = []
    highs: list[PhaseStats] = []
    for _round in range(ROUNDS):
        if trace:
            # Tracing overhead: the same saturating segment without the
            # in-band stats probes, beside each traced one.
            untraced.append(measured(run_saturating(
                conn, stream, "peak-untraced", seconds * PHASE_SHARE["peak"],
                window=WINDOW)))
        peaks.append(measured(run_saturating(conn, stream, "peak",
                                             seconds * PHASE_SHARE["peak"], window=WINDOW,
                                             stats_every=stats_every)))
        lows.append(open_phase("low", low_rate, seconds * PHASE_SHARE["low"]))
        highs.append(open_phase("high", high_rate, seconds * PHASE_SHARE["high"]))
    peak = pooled("peak", peaks)
    low = pooled("low", lows)
    high = pooled("high", highs)

    probes: list[PhaseStats] = []

    def probe(fraction: float) -> bool:
        stats = open_phase(f"probe@{fraction:.2f}", peak.throughput * fraction,
                           seconds * PHASE_SHARE["probe"])
        probes.append(stats)
        return stats.meets_limit

    fraction = CAPACITY_START
    while not probe(fraction):
        fraction -= CAPACITY_COARSE_STEP
        if fraction < CAPACITY_FLOOR:
            raise RuntimeError("no capacity probe met the latency limit: " + "; ".join(
                f"{p.name} p99 {p.p99_ms:.1f} ms capped={p.capped} grew={p.backlog_grew} "
                f"errors={p.errors + p.timeouts} valid={p.valid} lag99 {p.lag_p99_ms:.1f}"
                for p in probes))
    if fraction < CAPACITY_START and probe(fraction + CAPACITY_FINE_STEP):
        fraction += CAPACITY_FINE_STEP
    capacity = peak.throughput * fraction

    batches = iter(workload.reload_batches)
    loaded_reload_s: list[float] = []
    if workload.name == "idn-serve":
        duration = seconds * PHASE_SHARE["reload"]
        admin = AdminSchedule([((i + 0.5) / RELOADS * duration, reload_action(next(batches)))
                               for i in range(RELOADS)])
        open_phase("reload", high_rate, duration, admin=admin)
        loaded_reload_s.extend(admin.results)
    after = http_call(server.host, server.port, "GET", "/stats")[1]
    reload_s = [reload_action(next(batches))() for _ in range(RELOADS)]

    queue_depth_max = 0
    for reply in conn.replies:
        if reply.startswith(b'{"stats"'):
            queue_depth_max = max(queue_depth_max, json.loads(reply)["stats"]["queue_depth"])
    conn.close()
    vmhwm = server.stop()
    ctx.processes.remove(server)
    os.sched_setaffinity(0, all_cpus)

    return ServeResult(
        setup_s=setup_s, peak_qps=peak.throughput, capacity_qps=capacity,
        low=low, high=high, reload_s=reload_s,
        loaded_reload_s=loaded_reload_s,
        server_vmhwm_kb=vmhwm, phases=phases,
        generator_cpu_s=sum(p.cpu_s for p in raw_phases),
        generations=generations, conn=conn, stream=stream,
        index_dir=work / f"index-{SETUP_LAUNCHES - 1}",
        stats_before=before, stats_after=after, queue_depth_max=queue_depth_max,
        untraced_peak_qps=pooled("peak-untraced", untraced).throughput if trace else None,
    )


# -- the served-reply oracle --------------------------------------------------


def check_replies(result: ServeResult, finder) -> tuple[int, int, list[str]]:
    """Every served verdict must equal the in-process reference verdict.

    The reference is ``encode_reply(verdict_reply(...))`` from an
    ``OnlineDetector(cache_size=0)`` over the same index generation — each
    reply names its generation by fingerprint.  Returns ``(checked,
    mismatched, examples)``.
    """
    from repro.detection.index import build_reference_index
    from repro.detection.service import OnlineDetector
    from repro.serving.protocol import encode_reply, verdict_reply

    detectors = {}
    for references in result.generations:
        index = build_reference_index(finder, references)
        detectors[index.fingerprint] = (OnlineDetector(finder, index, cache_size=0), index)

    conn, stream = result.conn, result.stream
    by_generation: dict[str, dict[str, list[int]]] = {}
    mismatched = 0
    examples: list[str] = []
    for line, request in enumerate(conn.request_of):
        if request < 0:
            continue
        reply = conn.replies[line]
        # A verdict reply ends with its 24-hex-digit "fingerprint" value.
        fingerprint = reply[-26:-2].decode("ascii", "replace")
        if fingerprint not in detectors:
            mismatched += 1
            if len(examples) < 5:
                examples.append(f"reply {line} names no known index generation: {reply[:200]!r}")
            continue
        by_generation.setdefault(fingerprint, {}).setdefault(
            stream.domains[request], []).append(line)

    checked = 0
    for fingerprint, by_domain in by_generation.items():
        detector, index = detectors[fingerprint]
        domains = list(by_domain)
        for domain, verdict in zip(domains, detector.query_many(domains, index=index)):
            expected = encode_reply(verdict_reply(verdict.as_dict(), fingerprint))[:-1]
            for line in by_domain[domain]:
                checked += 1
                if conn.replies[line] != expected:
                    mismatched += 1
                    if len(examples) < 5:
                        examples.append(f"reply {line} for {domain!r}: {conn.replies[line][:200]!r}"
                                        f" != {expected[:200]!r}")
    return checked, mismatched, examples

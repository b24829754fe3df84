"""Repository benchmark: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``, run from the root of a checkout.

Workloads (see ``perfbench/README.md`` for why each exists):

* ``ctlog-serve`` — CT-log-shaped feed against ``serve --listen``;
* ``idn-serve``   — IDN-dense mix with repeats and hot reloads;
* ``all``         — both, untraced then traced, for a person reading tables.

Every run also runs ``scan --jobs 2`` and ``track`` over the workload's
zone snapshots, checks every output against an in-process oracle, prints
tables plus one environment/mix record, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("ctlog-serve", "idn-serve")
#: Request lines generated per second of ``--seconds``: enough that a run
#: never wraps around its stream (a wrap would add repeats to the mix).
REQUESTS_PER_SECOND = {"ctlog-serve": 20_000, "idn-serve": 12_000}
TRACE_SAMPLE = 20_000

#: Only metrics whose run-to-run spread stayed inside their bound over ten
#: seeds on a 2-vCPU VM with host CPU contention are end-to-end; serving
#: throughput, capacity, latency, reload and track figures varied by 25-60%
#: there in some hour and are reported per layer instead (see README.md).
#: The raw scan rate drifts with the host's speed over minutes, so the gated
#: scan rate is scaled to a nominal host speed (see hostspeed.py).
END_TO_END = {
    "setup_s": "s",
    "scan_domains_per_ref_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "server.peak_qps": "1/s",
    "server.capacity_qps": "1/s",
    "server.p50_ms_low": "ms",
    "server.p99_ms_low": "ms",
    "server.p50_ms_high": "ms",
    "server.p99_ms_high": "ms",
    "server.reload_s": "s",
    "server.reload_under_load_s": "s",
    "server.mean_batch": "count",
    "server.batches": "count",
    "server.queue_depth_max": "count",
    "server.rejected": "count",
    "server.batch_errors": "count",
    "server.dropped_replies": "count",
    "protocol.parse_line_us": "us",
    "protocol.reply_encode_us": "us",
    "batchfold.certain_miss_us_per_q": "us",
    "batchfold.miss_share": "ratio",
    "batchfold.kernel_for_s": "s",
    "service.query_many_us_per_q": "us",
    "service.scalar_share": "ratio",
    "service.cache_hit_share": "ratio",
    "idn.parse_us": "us",
    "algorithm.match_us": "us",
    "algorithm.confirmed_share": "ratio",
    "index.build_s": "s",
    "index.attach_ms": "ms",
    "index.artifact_mb": "MB",
    "simchar.render_s": "s",
    "simchar.pairwise_s": "s",
    "simchar.filter_s": "s",
    "simchar.pairs": "count",
    "stream.scan_domains_per_s": "1/s",
    "stream.chunk_ms": "ms",
    "stream.idn_share": "ratio",
    "stream.detections": "count",
    "zonediff.diff_s": "s",
    "zonediff.added": "count",
    "track.day_s": "s",
    "track.domains_scanned": "count",
    "track.days_per_s": "1/s",
    "loadgen.lag_ms_p99": "ms",
    "loadgen.cpu_s": "s",
    "loadgen.error_rate": "ratio",
    "loadgen.invalid_phases": "count",
    "trace.overhead_pct": "%",
    "host.rounds_per_s": "1/s",
}


@dataclass
class Context:
    """Paths, environment and live child processes of one run."""

    run_dir: Path
    cache_dir: Path
    launcher: Path
    env: dict
    processes: list = field(default_factory=list)

    def stop_all(self) -> None:
        for process in list(self.processes):
            if hasattr(process, "proc"):
                process.kill()
            elif process.poll() is None:
                process.kill()
                process.wait()
        self.processes.clear()


def _mix(result, finder, index) -> dict:
    """The measured composition of the requests actually sent."""
    from repro.detection.batchfold import kernel_for

    sent = [result.stream.domains[r] for r in result.conn.request_of if r >= 0]
    labels = [domain.split(".") for domain in sent]
    kernel = kernel_for(finder.matcher, index.prepared)
    certain = sum(int(kernel.domain_certain_miss(sent[i:i + 4096],
                                                 invisible_table=finder.invisible_table).sum())
                  for i in range(0, len(sent), 4096))
    replies = [reply for reply, r in zip(result.conn.replies, result.conn.request_of) if r >= 0]
    return {
        "mix.requests": len(sent),
        "mix.xn_share": sum(1 for parts in labels
                            if len(parts) >= 2 and parts[-2].startswith("xn--")) / len(sent),
        "mix.subdomain_share": sum(1 for parts in labels if len(parts) > 2) / len(sent),
        "mix.repeat_share": 1 - len(set(sent)) / len(sent),
        "mix.certain_miss_share": certain / len(sent),
        "mix.detect_share": sum(1 for reply in replies
                                if b'"detections": []' not in reply) / len(replies),
    }


def _stat_delta(after: dict, before: dict, key: str, nested: str | None = None) -> float:
    if nested is not None:
        after, before = after[nested], before[nested]
    return float(after[key] - before[key])


def run_workload(name: str, seed: int, seconds: float, trace: bool, ctx: Context) -> dict:
    """One workload run; returns the printed summary and the result record."""
    import inputs
    import serve
    import layers as tracing
    import zone
    from repro.detection.index import ReferenceIndexStore, build_reference_index, key_for
    from repro.detection.shamfinder import ShamFinder

    # Loading the finder here also fills the SimChar cache on a first run,
    # so the server set-up below always starts from a warm cache.
    finder = ShamFinder.with_default_databases(cache_dir=ctx.cache_dir)
    make = inputs.ctlog if name == "ctlog-serve" else inputs.idn
    workload = make(seed, int(REQUESTS_PER_SECOND[name] * seconds), 2 * serve.RELOADS)
    base_refs = inputs.write_lines(ctx.run_dir / "refs-base.txt", workload.references)

    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        served = serve.run(workload, ctx, seconds, trace)
    finally:
        gc.enable()
    zoned = zone.run(workload, ctx, base_refs, served.index_dir)

    # -- oracle ---------------------------------------------------------------
    base_index = build_reference_index(finder, workload.references)
    checked, mismatched, examples = serve.check_replies(served, finder)
    problems = examples + zone.check(zoned, workload, finder, base_index.prepared)
    correct = mismatched == 0 and not problems

    phases = served.phases
    errors = sum(p.errors for p in phases)
    timeouts = sum(p.timeouts for p in phases)
    queries = sum(p.requests for p in phases)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(),
        **_mix(served, finder, base_index),
        "stream_wrapped": served.stream.wrapped,
        "replies_checked": checked,
    }

    if not trace:
        metrics = {
            "setup_s": statistics.median(served.setup_s),
            "scan_domains_per_ref_s": zoned.scan_domains_per_ref_s,
            "peak_rss_mb": max(served.server_vmhwm_kb, zoned.scan_vmhwm_kb,
                               zoned.track_vmhwm_kb) / 1024,
        }
        units = END_TO_END
    else:
        before, after = served.stats_before, served.stats_after
        batches = _stat_delta(after, before, "batches")
        queries_seen = _stat_delta(after, before, "queries", "detector")
        open_lags = [p.lag_p99_ms for p in phases if p.rate is not None and not p.capped]
        sample = [served.stream.domains[r] for r in served.conn.request_of if r >= 0]
        metrics = {
            "server.peak_qps": served.peak_qps,
            "server.capacity_qps": served.capacity_qps,
            "server.p50_ms_low": served.low.p50_ms,
            "server.p99_ms_low": served.low.p99_ms,
            "server.p50_ms_high": served.high.p50_ms,
            "server.p99_ms_high": served.high.p99_ms,
            "server.reload_s": statistics.median(served.reload_s),
            "server.reload_under_load_s": (statistics.median(served.loaded_reload_s)
                                           if served.loaded_reload_s else 0.0),
            "server.mean_batch": _stat_delta(after, before, "batched_requests") / max(1, batches),
            "server.batches": batches,
            "server.queue_depth_max": float(served.queue_depth_max),
            "server.rejected": _stat_delta(after, before, "rejected"),
            "server.batch_errors": _stat_delta(after, before, "batch_errors"),
            "server.dropped_replies": _stat_delta(after, before, "dropped_replies"),
        }
        metrics.update(tracing.serving_layers(
            finder, ReferenceIndexStore(served.index_dir).load_path(
                ReferenceIndexStore(served.index_dir).path_for(
                    key_for(finder, workload.references)), finder),
            sample[:TRACE_SAMPLE], metrics["server.mean_batch"], workload.references))
        metrics["service.cache_hit_share"] = (
            _stat_delta(after, before, "cache_hits", "detector") / max(1.0, queries_seen))
        metrics.update(tracing.index_layer(
            finder, workload.references,
            ReferenceIndexStore(served.index_dir).path_for(key_for(finder, workload.references))))
        metrics.update(tracing.simchar_layer())
        metrics.update(tracing.zone_layers(
            finder, workload.references, base_index.prepared, workload.day_sets()[0],
            zoned.snapshots, ctx.run_dir / "trace-track-state"))
        metrics["track.days_per_s"] = zoned.track_days_per_s
        metrics["stream.scan_domains_per_s"] = zoned.scan_domains_per_s
        metrics["host.rounds_per_s"] = zoned.host_rounds_per_s
        untraced = served.untraced_peak_qps
        metrics.update({
            "loadgen.lag_ms_p99": max(open_lags) if open_lags else 0.0,
            "loadgen.cpu_s": served.generator_cpu_s,
            "loadgen.error_rate": (errors + timeouts) / max(1, queries),
            "loadgen.invalid_phases": float(sum(not p.valid for p in phases)),
            "trace.overhead_pct": (served.peak_qps - untraced) / untraced * 100,
        })
        units = PER_LAYER

    _print_tables(name, served, zoned, metrics, units, record)
    if problems or mismatched:
        print(f"ORACLE MISMATCH ({mismatched} replies): " + "; ".join(problems), flush=True)
    return {
        "correct": correct,
        "attempted": served.attempted + 2,
        "failed": served.failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }


def _print_tables(name, served, zoned, metrics, units, record) -> None:
    print(f"== {name}: phases (open loop unless rate is '-'; latency from due time) ==")
    print(f"  {'phase':<16} {'rate/s':>9} {'requests':>9} {'p50 ms':>8} {'p99 ms':>8} "
          f"{'lag99 ms':>9} {'cpu s':>6} {'err':>4} {'ok':>3} {'valid':>5}")
    for p in served.phases:
        rate = f"{p.rate:.0f}" if p.rate is not None else "-"
        print(f"  {p.name:<16} {rate:>9} {p.requests:>9} {p.p50_ms:>8.2f} {p.p99_ms:>8.2f} "
              f"{p.lag_p99_ms:>9.3f} {p.cpu_s:>6.2f} {p.errors + p.timeouts:>4} "
              f"{'y' if p.meets_limit else 'n':>3} {'y' if p.valid else 'n':>5}")
    print(f"  set-up launches: {', '.join(f'{s:.3f} s' for s in served.setup_s)}; "
          f"reloads: {', '.join(f'{s:.3f} s' for s in served.reload_s)}")
    print(f"  scan: {zoned.scan_stats.get('domains_seen')} domains, "
          f"{zoned.scan_stats.get('detection_count')} detections, "
          f"{zoned.scan_domains_per_s:.0f} domains/s at {zoned.host_rounds_per_s:.0f} "
          f"host rounds/s; track: "
          f"{zoned.track_stats.get('days_done')} days, "
          f"{zoned.track_stats.get('domains_scanned')} IDNs scanned")
    kind = "per-layer (traced run)" if units is PER_LAYER else "end-to-end"
    print(f"== {name}: {kind} metrics ==")
    for key, unit in units.items():
        print(f"  {key:<34} {metrics[key]:>16.6g} {unit}")
    print("record " + json.dumps(record, sort_keys=True), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "cli.py").is_file():
        print("perfbench: src/repro not found; run from the root of a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here))

    env = dict(os.environ)
    env.pop("SHAMFINDER_CACHE_DIR", None)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    work = root / ".perfbench-work"
    run_dir = work / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    if args.workload == "all":
        plan = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]
    results = []
    started = time.perf_counter()
    try:
        for name, trace in plan:
            leg_dir = run_dir / f"{name}-{'trace' if trace else 'plain'}"
            leg_dir.mkdir()
            ctx = Context(run_dir=leg_dir, cache_dir=work / "simchar-cache",
                          launcher=here / "launch.py", env=env)
            try:
                results.append((name, trace, run_workload(name, args.seed, args.seconds,
                                                          trace, ctx)))
            finally:
                ctx.stop_all()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if len(results) == 1:
        final = results[0][2]
    else:
        final = {
            "correct": all(r["correct"] for _, _, r in results),
            "attempted": sum(r["attempted"] for _, _, r in results),
            "failed": sum(r["failed"] for _, _, r in results),
            "metrics": {f"{name}/{key}": value for name, _trace, r in results
                        for key, value in r["metrics"].items()},
        }
    print(f"wall {time.perf_counter() - started:.1f} s", file=sys.stderr)
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""The paper's zone path: ``scan --jobs 2`` and ``track`` as subprocesses.

``scan`` reads the workload's first daily zones (one registrable domain per
line) and ``track`` follows all the daily snapshots.  Both print one progress line
per chunk / day on stderr; the benchmark timestamps those lines as they
arrive, so the rates below are steady-state rates that exclude process
start-up (imports, database load, pool start) and, for ``track``, the
day-1 full scan:

* ``scan_domains_per_s`` — domains between the chunk line that completes
  the first daily zone and the last chunk line, over the time between
  them (the first zone carries each worker's first-chunk warm-up); the
  scan runs :data:`SCAN_REPEATS` times (the sink is rewritten each time)
  and the median is kept;
* ``host_rounds_per_s`` — the median of :func:`hostspeed.measure` taken
  before the first scan and after every scan;
* ``scan_domains_per_ref_s`` — ``scan_domains_per_s`` scaled to the
  nominal host speed (see ``hostspeed.py``);
* ``track_days_per_s`` — one over the median interval between consecutive
  day lines, days 2..K (the incremental days).

Medians keep one stalled scan or day from moving the rate.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import hostspeed
from inputs import write_lines, write_snapshots
from serve import vmhwm_from

SCAN_CHUNK = 2000
SCAN_JOBS = 2
SCAN_REPEATS = 5
#: Chunks per progress line: a CT-log chunk takes under 2 ms, and waking
#: this process for every one of them competes with the scan for the CPUs.
SCAN_PROGRESS_EVERY = 10
#: Daily zones per scan input: enough that the timed part of one scan (all
#: zones but the first) runs for one to two seconds (the CT-log zone is
#: 0.7% IDNs, so its scan is mostly the Step II filter).
SCAN_DAYS = {"ctlog-serve": 16, "idn-serve": 8}
#: Length of one host-speed measurement, in seconds.
HOST_SPEED_S = 0.75
_CHUNK_LINE = re.compile(r"^chunk (\d+): ([\d,]+) domains")
_DAY_LINE = re.compile(r"^(\d{4}-\d{2}-\d{2}): ")


@dataclass
class ZoneResult:
    scan_domains_per_s: float
    host_rounds_per_s: float
    scan_domains_per_ref_s: float
    track_days_per_s: float
    scan_vmhwm_kb: int
    track_vmhwm_kb: int
    sink: Path
    state_dir: Path
    snapshots: list[tuple[str, Path]]
    scan_stats: dict
    track_stats: dict


def _timestamped(argv: list[str], ctx, pattern: re.Pattern, out_path: Path):
    """Run *argv*; returns ``(stdout, stderr, [(arrival time, match), ...])``.

    stdout goes to *out_path* so the stderr progress lines can be read live
    without either pipe filling up.
    """
    env, processes = ctx.env, ctx.processes
    with open(out_path, "wb") as out_file:
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out_file,
                                stderr=subprocess.PIPE, env=env)
        processes.append(proc)
        marks = []
        err_lines = []
        try:
            for raw in proc.stderr:
                now = time.perf_counter()
                line = raw.decode(errors="replace")
                err_lines.append(line)
                match = pattern.match(line)
                if match:
                    marks.append((now, match))
            proc.wait()
        finally:
            proc.stderr.close()
            processes.remove(proc)
    stderr = "".join(err_lines).encode()
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[2]} exited with {proc.returncode}: {stderr[-2000:]!r}")
    return out_path.read_bytes(), stderr, marks


def scan_domains(workload) -> list[str]:
    """The scan input: the workload's first :data:`SCAN_DAYS` daily snapshots, one
    after the other, as an analyst scanning a few days of zone files in one
    job would feed them."""
    return [d for day in workload.day_sets()[:SCAN_DAYS[workload.name]] for d in day]


def run(workload, ctx, refs_path: Path, index_dir: Path) -> ZoneResult:
    work: Path = ctx.run_dir
    zone_dir = work / "zones"
    zone_dir.mkdir()
    snapshots = write_snapshots(zone_dir, workload, workload.seed)
    scan_input = write_lines(work / "scan-input.txt", scan_domains(workload))
    sink = work / "scan.jsonl"
    common = ["--reference-file", str(refs_path), "--cache-dir", str(ctx.cache_dir),
              "--index-dir", str(index_dir)]

    first_zone = len(workload.day_sets()[0])
    scan_rates, scan_vmhwm = [], 0
    host_speeds = [hostspeed.measure(HOST_SPEED_S, ctx.env, ctx.processes)]
    for _repeat in range(SCAN_REPEATS):
        out, err, marks = _timestamped(
            [sys.executable, str(ctx.launcher), "scan", "-i", str(scan_input), "-o", str(sink),
             "--jobs", str(SCAN_JOBS), "--chunk-size", str(SCAN_CHUNK),
             "--progress-every", str(SCAN_PROGRESS_EVERY), *common],
            ctx, _CHUNK_LINE, work / "scan.stdout")
        seen = [(t, int(m.group(2).replace(",", ""))) for t, m in marks]
        start = next((s for s in seen if s[1] >= first_zone), None)
        if start is None or seen[-1][1] - start[1] < first_zone:
            raise RuntimeError(f"scan printed {len(seen)} progress lines; "
                               "need at least one daily zone after the first")
        (t_first, first), (t_last, last) = start, seen[-1]
        scan_rates.append((last - first) / (t_last - t_first))
        scan_vmhwm = max(scan_vmhwm, vmhwm_from(err))
        host_speeds.append(hostspeed.measure(HOST_SPEED_S, ctx.env, ctx.processes))
    scan_stats = json.loads(out)
    scan_rate = statistics.median(scan_rates)
    host_speed = statistics.median(host_speeds)

    state_dir = work / "track-state"
    snapshot_args = []
    for date, path in snapshots:
        snapshot_args += ["-s", f"{date}={path}"]
    out, err, marks = _timestamped(
        [sys.executable, str(ctx.launcher), "track", *snapshot_args,
         "--state-dir", str(state_dir), "--json", *common],
        ctx, _DAY_LINE, work / "track.stdout")
    track_stats = json.loads(out)["stats"]
    if len(marks) != len(snapshots):
        raise RuntimeError(f"track reported {len(marks)} of {len(snapshots)} days")
    track_rate = 1 / statistics.median(
        later - earlier for (earlier, _), (later, _) in zip(marks, marks[1:]))

    return ZoneResult(
        scan_domains_per_s=scan_rate, host_rounds_per_s=host_speed,
        scan_domains_per_ref_s=scan_rate * hostspeed.NOMINAL_ROUNDS_PER_S / host_speed,
        track_days_per_s=track_rate,
        scan_vmhwm_kb=scan_vmhwm, track_vmhwm_kb=vmhwm_from(err),
        sink=sink, state_dir=state_dir, snapshots=snapshots,
        scan_stats=scan_stats, track_stats=track_stats,
    )


# -- the scan / track oracle ----------------------------------------------------


def _canonical(payloads) -> list[str]:
    return sorted(json.dumps(p, ensure_ascii=False, sort_keys=True) for p in payloads)


def check(result: ZoneResult, workload, finder, prepared) -> list[str]:
    """The sink must equal ``detect_prepared`` on the scan input, and
    every tracked day must equal a full rescan of that day's snapshot.

    Detection is a pure function of each domain, so the full rescans are
    computed once over the union of all days' IDN candidates and then
    assembled per day.  Returns a list of mismatch descriptions.
    """
    from repro.detection.stream import is_idn_candidate
    from repro.measurement.longitudinal import read_timeline

    problems: list[str] = []
    days = workload.day_sets()
    candidates = [d for d in scan_domains(workload) if is_idn_candidate(d)]
    detections, _idns, _skipped = finder.detect_prepared(candidates, prepared)
    expected = [json.dumps(d.as_dict(), ensure_ascii=False) + "\n" for d in detections]
    with open(result.sink, encoding="utf-8") as handle:
        actual = handle.readlines()
    if actual != expected:
        problems.append(f"scan sink differs from detect_prepared: {len(actual)} lines "
                        f"vs {len(expected)} expected")

    union = sorted({d for day in days for d in day if is_idn_candidate(d)})
    by_idn: dict[str, list[dict]] = {}
    for detection in finder.detect_prepared(union, prepared)[0]:
        by_idn.setdefault(detection.idn, []).append(detection.as_dict())
    timeline = read_timeline(result.state_dir / "timeline.jsonl")
    for (date, _path), domains in zip(result.snapshots, days):
        rescan = [p for d in domains if d in by_idn for p in by_idn[d]]
        if _canonical(timeline.detections_on(date)) != _canonical(rescan):
            problems.append(f"track day {date} differs from a full rescan")
    return problems

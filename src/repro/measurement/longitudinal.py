"""Longitudinal homograph tracking over daily zone snapshots.

The paper's Section 5 measurement is longitudinal: the ``.com`` zone file
is scanned daily for about two months (Tables 6-7) and IDN homographs are
tracked as they appear and disappear; Section 6.4 then reverts each
homograph to the original domain it imitates.  This module maintains that
timeline incrementally:

* **zone diffing** (:mod:`repro.dns.zonediff`) — each day's snapshot is
  reduced to its sorted IDN delegation stream and merged against the
  previous day's, so only the *newly added* IDNs are scanned with the
  streaming scanner (:class:`~repro.detection.stream.StreamingScanner`) —
  at ~1% daily churn that's two orders of magnitude less work than a full
  rescan, with byte-identical detections;
* **timeline store** — an append-only JSONL event log
  (``<state-dir>/timeline.jsonl``): ``appear`` events carry the detections
  and the Section 6.4 revert target of a new homograph, ``retire`` events
  mark homographs whose delegation vanished, a ``day`` event summarises
  each processed snapshot (the Table 6/7-style per-day row), and a
  ``rescan`` event records a reference-list change.  Replaying the log
  rebuilds the full :class:`HomographTimeline` (``first_seen`` /
  ``last_seen`` / ``retired_on`` / revert target per homograph);
* **checkpoint/resume** — after every day the sink is flushed and a small
  checkpoint (``<state-dir>/state.json``) is atomically replaced, recording
  the durable event count, the last processed date with its snapshot
  fingerprint, the reference-list fingerprint, and the day's IDN
  delegations (the diff base).  A killed run restarts with ``resume=True``:
  trailing damage and uncheckpointed events are dropped, processed dates
  are skipped, and the resumed store is byte-identical to an uninterrupted
  one — the same discipline as the PR-2 scan and PR-3 enrichment sinks;
* **reference fingerprinting** — when the reference list changes, the
  incremental invariant no longer holds, so the next processed day is
  forced through a full rescan that retires stale homographs and re-detects
  against the new references.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from ..detection.report import HomographDetection
from ..detection.shamfinder import ShamFinder
from ..detection.stream import (
    ScanResumeError,
    StreamingScanner,
    file_fingerprint,
    is_idn_candidate,
)
from ..dns.zonediff import ZoneDelta, diff_delegations, read_delegations
from ..durable import Checkpoint, CheckpointedLog, json_record

__all__ = [
    "TRACK_VERSION",
    "TrackResumeError",
    "TimelineError",
    "TimelineEntry",
    "HomographTimeline",
    "DayReport",
    "TrackCheckpoint",
    "TrackStats",
    "TrackResult",
    "LongitudinalTracker",
    "reference_fingerprint",
    "read_timeline",
]

#: Bump when the event or checkpoint layout changes; old state then refuses to resume.
TRACK_VERSION = 1

_DATE_PATTERN = re.compile(r"^\d{4}-\d{2}-\d{2}$")


class TrackResumeError(ScanResumeError):
    """Resuming a tracking run is unsafe (state damaged or input changed)."""


class TimelineError(ValueError):
    """A timeline store contains lines that do not parse as events."""


def reference_fingerprint(reference: Iterable[str]) -> str:
    """Stable identity of a reference list (order-insensitive)."""
    hasher = hashlib.sha256()
    for domain in sorted(str(item) for item in reference):
        hasher.update(domain.encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()[:16]


# ---------------------------------------------------------------------------
# timeline model
# ---------------------------------------------------------------------------


@dataclass
class TimelineEntry:
    """Lifecycle of one tracked homograph."""

    idn: str                    # A-label form (e.g. xn--ggle-55da.com)
    unicode: str                # the same domain in Unicode form
    revert: str | None          # Section 6.4 revert target (full domain), if any
    detections: list[dict]      # HomographDetection payloads, sorted by reference
    first_seen: str             # date the homograph (re)appeared in the zone
    last_seen: str              # last processed date it was still delegated
    retired_on: str | None = None   # date its delegation vanished, if it did

    @property
    def active(self) -> bool:
        """True while the homograph is still delegated."""
        return self.retired_on is None

    @property
    def references(self) -> list[str]:
        """Reference domains this homograph imitates."""
        return [payload["reference"] for payload in self.detections]

    def as_dict(self) -> dict:
        """JSON-friendly representation (reports, CLI output)."""
        return asdict(self)


@dataclass
class DayReport:
    """Per-day tracking summary — one Table 6/7-style row per snapshot."""

    date: str
    domains: int                # delegated domains in the snapshot
    idns: int                   # delegated IDNs in the snapshot (Table 6 column)
    added: int                  # IDN delegations not present the previous day
    removed: int                # IDN delegations that vanished since the previous day
    ns_changed: int             # IDN delegations whose nameserver set changed
    scanned: int                # IDNs actually run through Step III that day
    skipped: int                # unparsable candidates among them
    new_homographs: int         # appear events emitted
    retired_homographs: int     # retire events emitted
    active_homographs: int      # tracked active homographs at end of day
    full_rescan: bool           # True when the whole IDN set was scanned

    def as_dict(self) -> dict:
        """JSON-friendly representation (printed by the ``track`` CLI)."""
        return asdict(self)

    @classmethod
    def from_event(cls, event: dict) -> "DayReport":
        """Rebuild a report from its ``day`` event in the timeline store."""
        return cls(
            date=event["date"],
            domains=event["domains"],
            idns=event["idns"],
            added=event["added"],
            removed=event["removed"],
            ns_changed=event["ns_changed"],
            scanned=event["scanned"],
            skipped=event["skipped"],
            new_homographs=event["new"],
            retired_homographs=event["retired"],
            active_homographs=event["active"],
            full_rescan=event["full"],
        )


class HomographTimeline:
    """In-memory view of the timeline store, rebuilt by replaying events."""

    def __init__(self) -> None:
        self.entries: dict[str, TimelineEntry] = {}
        self.events: list[dict] = []
        self.day_reports: list[DayReport] = []
        self.reference_fingerprint: str | None = None

    def apply(self, event: dict) -> None:
        """Apply one event (the only way the timeline ever changes)."""
        kind = event.get("event")
        date = event.get("date")
        if kind == "appear":
            entry = self.entries.get(event["idn"])
            if entry is not None and entry.active:
                entry.unicode = event["unicode"]
                entry.revert = event["revert"]
                entry.detections = list(event["detections"])
                entry.last_seen = date
            else:
                # Fresh appearance (or reappearance after retirement): the
                # prior lifecycle stays in the log, the entry starts over.
                self.entries[event["idn"]] = TimelineEntry(
                    idn=event["idn"],
                    unicode=event["unicode"],
                    revert=event["revert"],
                    detections=list(event["detections"]),
                    first_seen=date,
                    last_seen=date,
                )
        elif kind == "retire":
            entry = self.entries.get(event["idn"])
            if entry is not None:
                entry.retired_on = date
        elif kind == "day":
            for entry in self.entries.values():
                if entry.active:
                    entry.last_seen = date
            self.day_reports.append(DayReport.from_event(event))
        elif kind == "rescan":
            self.reference_fingerprint = event["fingerprint"]
        else:
            raise TimelineError(f"unknown timeline event type: {kind!r}")
        self.events.append(event)

    @classmethod
    def from_events(cls, events: Iterable[dict]) -> "HomographTimeline":
        """Replay a complete event sequence."""
        timeline = cls()
        for event in events:
            timeline.apply(event)
        return timeline

    # -- views ----------------------------------------------------------------

    def active_entries(self) -> list[TimelineEntry]:
        """Homographs still delegated, sorted by IDN."""
        return sorted(
            (entry for entry in self.entries.values() if entry.active),
            key=lambda entry: entry.idn,
        )

    def retired_entries(self) -> list[TimelineEntry]:
        """Homographs whose delegation vanished, sorted by IDN."""
        return sorted(
            (entry for entry in self.entries.values() if not entry.active),
            key=lambda entry: entry.idn,
        )

    def detections_on(self, date: str) -> list[dict]:
        """Detection payloads of the homographs active on *date*.

        Replays the event prefix up to and including *date*; the result is
        sorted by ``(idn, reference)`` and must equal a full rescan of that
        day's snapshot — the invariant ``benchmarks/bench_track.py`` and the
        test suite assert.
        """
        prefix = HomographTimeline()
        for event in self.events:
            if event["date"] > date:
                break
            prefix.apply(event)
        detections: list[dict] = []
        for entry in prefix.active_entries():
            detections.extend(entry.detections)
        detections.sort(key=lambda payload: (payload["idn"], payload["reference"]))
        return detections


def _is_valid_event_line(line: bytes) -> bool:
    record = json_record(line)
    return record is not None and "event" in record and "date" in record


def read_timeline(path: str | os.PathLike) -> HomographTimeline:
    """Load a timeline store, replaying every event.

    Raises :class:`TimelineError` naming the first offending line when the
    store contains truncated or corrupt entries — damage means the tracking
    run needs a resume pass first.
    """
    timeline = HomographTimeline()
    with open(path, "rb") as handle:
        for number, line in enumerate(handle, start=1):
            if not _is_valid_event_line(line):
                raise TimelineError(f"{path}: corrupt or truncated event line {number}")
            timeline.apply(json.loads(line))
    return timeline


# ---------------------------------------------------------------------------
# checkpoint
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrackCheckpoint(Checkpoint):
    """Durable progress marker written after every completed day."""

    JSON_SEPARATORS = (",", ":")

    events_written: int                     # durable lines in timeline.jsonl
    days_done: int
    last_date: str                          # most recent processed snapshot date
    last_snapshot_fingerprint: str          # identity of that snapshot file
    reference_fingerprint: str              # identity of the reference list
    idn_delegations: dict[str, list[str]]   # IDN delegation map at last_date (diff base)
    version: int = TRACK_VERSION


# ---------------------------------------------------------------------------
# tracker
# ---------------------------------------------------------------------------


@dataclass
class TrackStats:
    """Progress counters of one tracking run."""

    days_done: int = 0             # snapshots processed by this run
    days_resumed: int = 0          # snapshots skipped because a checkpoint covered them
    full_rescans: int = 0          # days where the whole IDN set was scanned
    domains_scanned: int = 0       # IDNs run through Step III across all days
    detections: int = 0            # appear events emitted by this run
    retirements: int = 0           # retire events emitted by this run
    events_written: int = 0        # durable timeline events (including resumed ones)
    recovered_drop: int = 0        # event lines dropped during sink recovery
    elapsed_seconds: float = 0.0

    def as_dict(self) -> dict:
        """JSON-friendly representation (printed by the ``track`` CLI)."""
        return asdict(self)


@dataclass
class TrackResult:
    """Outcome of a tracking run: the timeline plus run statistics."""

    timeline: HomographTimeline
    stats: TrackStats

    @property
    def day_reports(self) -> list[DayReport]:
        """Per-day summaries, including days replayed from the store."""
        return self.timeline.day_reports

    def detections_on(self, date: str) -> list[dict]:
        """Detections of the homographs active on *date* (sorted, canonical)."""
        return self.timeline.detections_on(date)


def _parse_snapshots(
    snapshots: Sequence[tuple[str, str | os.PathLike]],
) -> list[tuple[str, Path]]:
    """Validate and order the ``(date, path)`` snapshot sequence.

    Every path must exist up front: a typo'd path discovered mid-run would
    leave earlier days committed (or, on a fresh run, the store already
    truncated) before the failure surfaces.
    """
    parsed: list[tuple[str, Path]] = []
    for date, path in snapshots:
        if not _DATE_PATTERN.match(date):
            raise ValueError(f"snapshot date {date!r} is not of the form YYYY-MM-DD")
        parsed.append((date, Path(path)))
    parsed.sort(key=lambda item: item[0])
    for (first, _), (second, _) in zip(parsed, parsed[1:]):
        if first == second:
            raise ValueError(f"duplicate snapshot date {first!r}")
    for date, path in parsed:
        if not path.is_file():
            raise ValueError(f"snapshot file for {date} not found: {path}")
    return parsed


class LongitudinalTracker:
    """Maintains the homograph timeline across daily zone snapshots.

    The paper's Section 6 longitudinal study as a subsystem: each call to
    :meth:`track` diffs consecutive dated zone snapshots
    (:mod:`repro.dns.zonediff`), scans only the newly-added IDNs with a
    :class:`~repro.detection.stream.StreamingScanner`, and appends
    appear/retire/day events to an append-only ``timeline.jsonl`` replayed
    into a :class:`HomographTimeline` (first/last seen, retirements,
    ``detections_on(date)`` — Tables 6-7).  An atomic per-day
    :class:`TrackCheckpoint` (``state.json``) makes interrupted runs
    resumable with the same refuse-on-prefix-damage contract as the
    scanner; a changed reference list is detected by fingerprint and
    forces a full rescan.  State-dir layout and recovery semantics are in
    ``docs/OPERATIONS.md``.
    """

    def __init__(
        self,
        finder: ShamFinder,
        reference: Sequence[str],
        state_dir: str | os.PathLike,
        *,
        chunk_size: int = 2000,
        jobs: int = 1,
        prepared=None,
    ) -> None:
        self.finder = finder
        self.reference = list(reference)
        self.reference_fingerprint = reference_fingerprint(self.reference)
        self.state_dir = Path(state_dir)
        # *prepared* (an attached index, e.g. from a stored ReferenceIndex
        # artifact) skips the per-run reference warm-up; the reference
        # fingerprint above still guards resume correctness.
        self.scanner = StreamingScanner(
            finder, self.reference, chunk_size=chunk_size, jobs=jobs, idn_only=True,
            prepared=prepared,
        )

    @property
    def timeline_path(self) -> Path:
        """The JSONL timeline store."""
        return self.state_dir / "timeline.jsonl"

    @property
    def checkpoint_path(self) -> Path:
        """The atomic per-day checkpoint."""
        return self.state_dir / "state.json"

    # -- the tracking loop ----------------------------------------------------

    def track(
        self,
        snapshots: Sequence[tuple[str, str | os.PathLike]],
        *,
        resume: bool = False,
        progress: Callable[[DayReport], None] | None = None,
    ) -> TrackResult:
        """Process dated zone snapshots, appending to the timeline store.

        *snapshots* is a sequence of ``(date, path)`` pairs (``YYYY-MM-DD``,
        presentation-format zone file); dates are processed in ascending
        order.  With ``resume=True`` and a usable checkpoint, dates already
        covered are skipped (the last one is fingerprint-checked) and the
        store is validated and extended; otherwise the store starts fresh.
        *progress* is called with each day's :class:`DayReport` after its
        events and checkpoint are durable.
        """
        ordered = _parse_snapshots(snapshots)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        stats = TrackStats()
        started = time.perf_counter()

        timeline = HomographTimeline()
        previous: dict[str, tuple[str, ...]] = {}
        reference_changed = False
        with CheckpointedLog(
            self.timeline_path, self.checkpoint_path, TrackCheckpoint,
            count_field="events_written", error=TrackResumeError,
            line_validator=_is_valid_event_line,
        ) as sink:
            checkpoint = sink.load(resume=resume)
            stats.recovered_drop = sink.open(checkpoint)
            if checkpoint is not None:
                timeline = read_timeline(self.timeline_path)
                previous = {
                    domain: tuple(nameservers)
                    for domain, nameservers in checkpoint.idn_delegations.items()
                }
                stats.events_written = checkpoint.events_written
                reference_changed = (
                    checkpoint.reference_fingerprint != self.reference_fingerprint
                )

            last_date = checkpoint.last_date if checkpoint is not None else None
            days_done = checkpoint.days_done if checkpoint is not None else 0
            processed_dates = {report.date for report in timeline.day_reports}
            for date, path in ordered:
                if last_date is not None and date <= last_date:
                    if date not in processed_dates:
                        # A never-processed date inside the covered range
                        # cannot be inserted retroactively: the days after it
                        # were diffed without it.
                        raise TrackResumeError(
                            f"snapshot for {date} predates the checkpoint at "
                            f"{last_date} but was never processed; re-run "
                            "without --resume to rebuild the timeline"
                        )
                    if (
                        date == last_date
                        and checkpoint is not None
                        and file_fingerprint(path) != checkpoint.last_snapshot_fingerprint
                    ):
                        raise TrackResumeError(
                            f"snapshot for {date} changed since the checkpoint was "
                            "written; re-run without --resume to start over"
                        )
                    stats.days_resumed += 1
                    continue
                report = self._process_day(
                    date, path, timeline, previous, sink, stats,
                    full=(days_done == 0 or reference_changed),
                    reference_changed=reference_changed,
                )
                days_done += 1
                reference_changed = False
                last_date = date
                if progress is not None:
                    progress(report)
                stats.elapsed_seconds = time.perf_counter() - started
            if reference_changed:
                # The reference list changed but no new snapshot arrived to
                # rescan against it — reporting the stored timeline as-is
                # would silently present stale old-reference results.
                raise TrackResumeError(
                    "the reference list changed since the checkpoint but no new "
                    "snapshot was supplied; add a snapshot to trigger the full "
                    "rescan or re-run without --resume"
                )
        stats.elapsed_seconds = time.perf_counter() - started
        return TrackResult(timeline=timeline, stats=stats)

    # -- one snapshot ----------------------------------------------------------

    def _process_day(
        self,
        date: str,
        path: Path,
        timeline: HomographTimeline,
        previous: dict[str, tuple[str, ...]],
        sink,
        stats: TrackStats,
        *,
        full: bool,
        reference_changed: bool,
    ) -> DayReport:
        """Diff, scan, and persist one snapshot; returns its day report."""
        counts: dict[str, int] = {}
        current_pairs = read_delegations(
            path, domain_filter=is_idn_candidate, counts=counts,
        )
        current = dict(current_pairs)

        delta: ZoneDelta | None = None
        if previous or not full:
            delta = diff_delegations(sorted(previous.items()), current_pairs)
        if full:
            scan_domains = sorted(current)
        else:
            scan_domains = delta.added_domains

        report, scan_stats = self.scanner.scan_to_report(scan_domains)
        by_idn: dict[str, list[HomographDetection]] = {}
        for detection in report:
            by_idn.setdefault(detection.idn, []).append(detection)

        events: list[dict] = []
        if reference_changed:
            events.append({
                "date": date,
                "event": "rescan",
                "fingerprint": self.reference_fingerprint,
            })

        retired: list[str] = []
        if full:
            # The active set after a full scan is exactly the detected set:
            # anything tracked but not re-detected either lost its delegation
            # or its reference under the new list.
            for entry in timeline.active_entries():
                if entry.idn not in by_idn:
                    reason = "expired" if entry.idn not in current else "reference-change"
                    retired.append(entry.idn)
                    events.append({
                        "date": date, "event": "retire",
                        "idn": entry.idn, "reason": reason,
                    })
        else:
            for domain in delta.removed_domains:
                entry = timeline.entries.get(domain)
                if entry is not None and entry.active:
                    retired.append(domain)
                    events.append({
                        "date": date, "event": "retire",
                        "idn": domain, "reason": "expired",
                    })

        appeared: list[str] = []
        for idn in sorted(by_idn):
            detections = sorted(
                (d.as_dict() for d in by_idn[idn]),
                key=lambda payload: payload["reference"],
            )
            entry = timeline.entries.get(idn)
            if entry is not None and entry.active and entry.detections == detections:
                continue               # full-rescan re-detection, nothing changed
            appeared.append(idn)
            events.append({
                "date": date,
                "event": "appear",
                "idn": idn,
                "unicode": detections[0]["unicode"],
                "revert": self.finder.revert_to_original(idn),
                "detections": detections,
            })

        active_after = {
            entry.idn for entry in timeline.active_entries()
        } - set(retired) | set(appeared)
        day_event = {
            "date": date,
            "event": "day",
            "domains": counts["domains"],
            "idns": len(current),
            "added": len(delta.added) if delta is not None else len(current),
            "removed": len(delta.removed) if delta is not None else 0,
            "ns_changed": len(delta.ns_changed) if delta is not None else 0,
            "scanned": len(scan_domains),
            "skipped": scan_stats.skipped_count,
            "new": len(appeared),
            "retired": len(retired),
            "active": len(active_after),
            "full": full,
        }
        events.append(day_event)

        stats.events_written += len(events)
        sink.commit(
            [json.dumps(event, ensure_ascii=False, sort_keys=True) + "\n" for event in events],
            TrackCheckpoint(
                events_written=stats.events_written,
                days_done=len(timeline.day_reports) + 1,
                last_date=date,
                last_snapshot_fingerprint=file_fingerprint(path),
                reference_fingerprint=self.reference_fingerprint,
                idn_delegations={
                    domain: list(nameservers) for domain, nameservers in current_pairs
                },
            ),
        )

        for event in events:
            timeline.apply(event)
        previous.clear()
        previous.update(current)
        stats.days_done += 1
        stats.full_rescans += int(full)
        stats.domains_scanned += len(scan_domains)
        stats.detections += len(appeared)
        stats.retirements += len(retired)
        return timeline.day_reports[-1]

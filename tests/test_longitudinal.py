"""Tests for the longitudinal tracking subsystem (measurement/longitudinal.py).

Covers the guarantees the daily-tracking pipeline advertises: incremental
day-over-day scans byte-identical to full rescans, timeline lifecycle
(appear / retire / reappear, Section 6.4 revert targets), forced full
rescans on reference-list changes, and a killed-then-resumed run producing
the same timeline store bytes as an uninterrupted one.
"""

from __future__ import annotations

import json

import pytest

from repro.detection.shamfinder import ShamFinder
from repro.detection.stream import is_idn_candidate
from repro.dns.zonediff import read_delegations
from repro.homoglyph.database import SOURCE_UC, HomoglyphDatabase
from repro.idn.domain import DomainName
from repro.measurement.longitudinal import (
    DayReport,
    LongitudinalTracker,
    TimelineError,
    TrackCheckpoint,
    TrackResumeError,
    read_timeline,
    reference_fingerprint,
)
from repro.measurement.reporting import render_tracking_report

REFERENCES = ["google.com", "amazon.com", "apple.com"]

GOOGLE = DomainName("gоogle.com").ascii      # Cyrillic о
AMAZON = DomainName("аmаzon.com").ascii      # Cyrillic а
PLAIN_IDN = "xn--fiqs8s.com"                 # 中国 — an IDN, not a homograph


@pytest.fixture(scope="module")
def track_finder():
    db = HomoglyphDatabase()
    db.add_pair("o", "о", source=SOURCE_UC)
    db.add_pair("a", "а", source=SOURCE_UC)
    return ShamFinder(db)


def _write_snapshot(tmp_path, date: str, delegations: dict[str, list[str]]):
    path = tmp_path / f"{date}.zone"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"; .com snapshot {date}\n")
        for domain, nameservers in delegations.items():
            for ns in nameservers:
                handle.write(f"{domain}.\t172800\tIN\tNS\t{ns}.\n")
    return (date, path)


@pytest.fixture()
def snapshots(tmp_path):
    """Four days: appear day 2, NS change day 3, retire day 4."""
    base = {"plain.com": ["ns1.host.net"], PLAIN_IDN: ["ns1.cn.example"]}
    return [
        _write_snapshot(tmp_path, "2019-05-01", {**base, GOOGLE: ["ns1.a.net"]}),
        _write_snapshot(tmp_path, "2019-05-02",
                        {**base, GOOGLE: ["ns1.a.net"], AMAZON: ["ns1.b.net"]}),
        _write_snapshot(tmp_path, "2019-05-03",
                        {**base, GOOGLE: ["ns2.a.net"], AMAZON: ["ns1.b.net"]}),
        _write_snapshot(tmp_path, "2019-05-04", {**base, AMAZON: ["ns1.b.net"]}),
    ]


def _tracker(track_finder, tmp_path, name="state", **kwargs):
    return LongitudinalTracker(
        track_finder, REFERENCES, tmp_path / name, chunk_size=4, **kwargs)


# -- timeline lifecycle --------------------------------------------------------


def test_lifecycle_appear_retire(track_finder, tmp_path, snapshots):
    tracker = _tracker(track_finder, tmp_path)
    result = tracker.track(snapshots)

    assert [e.idn for e in result.timeline.active_entries()] == [AMAZON]
    amazon = result.timeline.entries[AMAZON]
    assert amazon.first_seen == "2019-05-02"
    assert amazon.last_seen == "2019-05-04"
    assert amazon.revert == "amazon.com"
    assert amazon.references == ["amazon.com"]

    google = result.timeline.entries[GOOGLE]
    assert not google.active
    assert google.first_seen == "2019-05-01"
    assert google.last_seen == "2019-05-03"     # NS change does not retire it
    assert google.retired_on == "2019-05-04"
    assert google.revert == "google.com"

    # Only day 1 is a full scan; later days scan just the added IDNs.
    assert [r.full_rescan for r in result.day_reports] == [True, False, False, False]
    assert [r.scanned for r in result.day_reports] == [2, 1, 0, 0]
    assert [r.ns_changed for r in result.day_reports] == [0, 0, 1, 0]
    assert result.stats.full_rescans == 1
    assert result.stats.domains_scanned == 3


def test_incremental_matches_full_rescan_each_day(track_finder, tmp_path, snapshots):
    tracker = _tracker(track_finder, tmp_path)
    result = tracker.track(snapshots)

    for date, path in snapshots:
        idns = sorted(d for d, _ in read_delegations(path) if is_idn_candidate(d))
        full_report, _ = tracker.scanner.scan_to_report(idns)
        full = sorted(
            (d.as_dict() for d in full_report),
            key=lambda payload: (payload["idn"], payload["reference"]),
        )
        assert result.detections_on(date) == full


def test_reappearance_starts_a_new_lifecycle(track_finder, tmp_path):
    base = {PLAIN_IDN: ["ns1.cn.example"]}
    days = [
        _write_snapshot(tmp_path, "2019-05-01", {**base, GOOGLE: ["ns1.a.net"]}),
        _write_snapshot(tmp_path, "2019-05-02", base),
        _write_snapshot(tmp_path, "2019-05-03", {**base, GOOGLE: ["ns1.a.net"]}),
    ]
    result = _tracker(track_finder, tmp_path).track(days)
    google = result.timeline.entries[GOOGLE]
    assert google.active
    assert google.first_seen == "2019-05-03"    # restarted, old lifecycle in the log
    retire_events = [e for e in result.timeline.events if e["event"] == "retire"]
    assert [e["date"] for e in retire_events] == ["2019-05-02"]


# -- resume ---------------------------------------------------------------------


def test_resume_skips_processed_days_and_extends(track_finder, tmp_path, snapshots):
    tracker = _tracker(track_finder, tmp_path)
    tracker.track(snapshots[:2])
    resumed = tracker.track(snapshots, resume=True)
    assert resumed.stats.days_resumed == 2
    assert resumed.stats.days_done == 2

    reference = _tracker(track_finder, tmp_path, "reference-state").track(snapshots)
    assert (tmp_path / "state" / "timeline.jsonl").read_bytes() == \
        (tmp_path / "reference-state" / "timeline.jsonl").read_bytes()
    assert [e.as_dict() for e in resumed.timeline.active_entries()] == \
        [e.as_dict() for e in reference.timeline.active_entries()]


def test_killed_run_resumes_to_identical_store_bytes(track_finder, tmp_path, snapshots):
    class _Killed(Exception):
        pass

    def bomb(report: DayReport) -> None:
        if report.date == "2019-05-02":
            raise _Killed

    tracker = _tracker(track_finder, tmp_path)
    with pytest.raises(_Killed):
        tracker.track(snapshots, progress=bomb)
    resumed = tracker.track(snapshots, resume=True)
    assert resumed.stats.days_resumed == 2

    reference = _tracker(track_finder, tmp_path, "reference-state").track(snapshots)
    assert (tmp_path / "state" / "timeline.jsonl").read_bytes() == \
        (tmp_path / "reference-state" / "timeline.jsonl").read_bytes()


def test_uncheckpointed_tail_is_dropped_on_resume(track_finder, tmp_path, snapshots):
    tracker = _tracker(track_finder, tmp_path)
    tracker.track(snapshots[:3])
    store = tmp_path / "state" / "timeline.jsonl"
    with open(store, "a", encoding="utf-8") as handle:
        # A flushed-but-never-checkpointed event plus a torn partial write.
        handle.write(json.dumps({"date": "2019-05-04", "event": "retire",
                                 "idn": GOOGLE, "reason": "expired"}) + "\n")
        handle.write('{"date": "2019-05-04", "ev')
    resumed = tracker.track(snapshots, resume=True)
    assert resumed.stats.recovered_drop == 2

    reference = _tracker(track_finder, tmp_path, "reference-state").track(snapshots)
    assert store.read_bytes() == \
        (tmp_path / "reference-state" / "timeline.jsonl").read_bytes()


def test_resume_refuses_damage_inside_checkpointed_prefix(
        track_finder, tmp_path, snapshots):
    tracker = _tracker(track_finder, tmp_path)
    tracker.track(snapshots[:2])
    store = tmp_path / "state" / "timeline.jsonl"
    lines = store.read_bytes().splitlines(keepends=True)
    store.write_bytes(b"".join(lines[:-1]) + b'{"torn\n')
    before = store.read_bytes()
    with pytest.raises(TrackResumeError, match="damaged inside the checkpointed"):
        tracker.track(snapshots, resume=True)
    assert store.read_bytes() == before        # refused read-only, file untouched


def test_resume_refuses_unprocessed_date_inside_covered_range(
        track_finder, tmp_path, snapshots):
    tracker = _tracker(track_finder, tmp_path)
    # Process days 1 and 3 only; day 2 was never part of the timeline.
    tracker.track([snapshots[0], snapshots[2]])
    with pytest.raises(TrackResumeError, match="never processed"):
        tracker.track(snapshots, resume=True)


def test_missing_snapshot_rejected_before_state_is_touched(
        track_finder, tmp_path, snapshots):
    tracker = _tracker(track_finder, tmp_path)
    with pytest.raises(ValueError, match="not found"):
        tracker.track([("2019-05-01", tmp_path / "missing.zone")])
    assert not tracker.timeline_path.exists()      # fresh store was never truncated

    tracker.track(snapshots[:2])
    before = tracker.timeline_path.read_bytes()
    with pytest.raises(ValueError, match="not found"):
        tracker.track(snapshots[:2] + [("2019-05-09", tmp_path / "typo.zone")],
                      resume=True)
    assert tracker.timeline_path.read_bytes() == before


def test_reference_change_with_no_new_snapshot_refuses(
        track_finder, tmp_path, snapshots):
    tracker = _tracker(track_finder, tmp_path)
    tracker.track(snapshots[:2])
    narrowed = LongitudinalTracker(
        track_finder, ["amazon.com"], tmp_path / "state", chunk_size=4)
    # Resuming over only already-processed dates cannot rescan against the
    # new reference list, so reporting the stored timeline would be stale.
    with pytest.raises(TrackResumeError, match="no new snapshot"):
        narrowed.track(snapshots[:2], resume=True)


def test_resume_refuses_changed_last_snapshot(track_finder, tmp_path, snapshots):
    tracker = _tracker(track_finder, tmp_path)
    tracker.track(snapshots[:2])
    date, path = snapshots[1]
    path.write_text(path.read_text(encoding="utf-8") +
                    "extra.com.\t172800\tIN\tNS\tns1.new.net.\n", encoding="utf-8")
    with pytest.raises(TrackResumeError, match="changed since the checkpoint"):
        tracker.track(snapshots, resume=True)


def test_resume_without_checkpoint_refuses_to_clobber(track_finder, tmp_path, snapshots):
    tracker = _tracker(track_finder, tmp_path)
    tracker.track(snapshots[:2])
    tracker.checkpoint_path.unlink()
    with pytest.raises(TrackResumeError, match="no usable checkpoint"):
        tracker.track(snapshots, resume=True)


def test_resume_with_no_prior_state_starts_fresh(track_finder, tmp_path, snapshots):
    tracker = _tracker(track_finder, tmp_path)
    result = tracker.track(snapshots[:1], resume=True)
    assert result.stats.days_done == 1


def test_corrupt_checkpoint_reads_as_missing(tmp_path):
    path = tmp_path / "state.json"
    path.write_text("{not json", encoding="utf-8")
    assert TrackCheckpoint.load(path) is None
    path.write_text(json.dumps({"version": 999}), encoding="utf-8")
    assert TrackCheckpoint.load(path) is None


def test_checkpoint_with_a_wrong_typed_field_reads_as_missing(tmp_path):
    path = tmp_path / "state.json"
    TrackCheckpoint(events_written=3, days_done=1, last_date="2019-05-01",
                    last_snapshot_fingerprint="aa", reference_fingerprint="bb",
                    idn_delegations={GOOGLE: ["ns1.a.net"]}).save(path)
    assert TrackCheckpoint.load(path) is not None
    for field, value in (("events_written", "3"),
                         ("events_written", True),
                         ("idn_delegations", [[GOOGLE, ["ns1.a.net"]]]),
                         ("idn_delegations", {GOOGLE: "ns1.a.net"}),
                         ("idn_delegations", {GOOGLE: ["ns1.a.net", 3]}),
                         ("idn_delegations", {GOOGLE: [["ns1.a.net"]]}),
                         ("last_date", 20190501)):
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload[field] = value
        damaged = tmp_path / "damaged.json"
        damaged.write_text(json.dumps(payload), encoding="utf-8")
        assert TrackCheckpoint.load(damaged) is None, (field, value)


# -- reference-list changes -----------------------------------------------------


def test_reference_change_forces_full_rescan(track_finder, tmp_path, snapshots):
    tracker = _tracker(track_finder, tmp_path)
    tracker.track(snapshots[:2])

    # Same state dir, narrower reference list: google is no longer a target
    # although its delegation is still in the day-3 zone.
    narrowed = LongitudinalTracker(
        track_finder, ["amazon.com"], tmp_path / "state", chunk_size=4)
    assert narrowed.reference_fingerprint != tracker.reference_fingerprint
    result = narrowed.track(snapshots[:3], resume=True)

    assert result.day_reports[-1].full_rescan
    assert result.stats.full_rescans == 1
    google = result.timeline.entries[GOOGLE]
    assert google.retired_on == "2019-05-03"
    rescans = [e for e in result.timeline.events if e["event"] == "rescan"]
    assert len(rescans) == 1
    assert rescans[0]["fingerprint"] == reference_fingerprint(["amazon.com"])
    assert result.timeline.reference_fingerprint == rescans[0]["fingerprint"]
    retire = [e for e in result.timeline.events
              if e["event"] == "retire" and e["idn"] == GOOGLE]
    assert retire[0]["reason"] == "reference-change"
    assert [e.idn for e in result.timeline.active_entries()] == [AMAZON]


# -- store and reporting ---------------------------------------------------------


def test_read_timeline_rejects_corrupt_store(tmp_path):
    path = tmp_path / "timeline.jsonl"
    path.write_text('{"date": "2019-05-01", "event": "day"', encoding="utf-8")
    with pytest.raises(TimelineError, match="line 1"):
        read_timeline(path)


def test_snapshot_argument_validation(track_finder, tmp_path):
    tracker = _tracker(track_finder, tmp_path)
    with pytest.raises(ValueError, match="YYYY-MM-DD"):
        tracker.track([("May 1st", tmp_path / "x.zone")])
    with pytest.raises(ValueError, match="duplicate snapshot date"):
        tracker.track([("2019-05-01", tmp_path / "a.zone"),
                       ("2019-05-01", tmp_path / "b.zone")])


def test_tracking_report_renders_tables(track_finder, tmp_path, snapshots):
    result = _tracker(track_finder, tmp_path).track(snapshots)
    report = render_tracking_report(result)
    assert "Per-day zone churn" in report
    assert "2019-05-04" in report
    assert "gоogle.com" in report               # retired section
    assert "amazon.com" in report               # revert target column
    assert report.count("| 2019-05-0") >= 4

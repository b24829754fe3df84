"""Golden regression test for the full detection pipeline.

``tests/data/golden_detection.json`` pins a corpus of reference/candidate
domains, a hand-written homoglyph database, and the exact
:class:`DetectionReport` output (every detection with its substitutions and
sources, the summary, and the skip/IDN counters).  Any change to the
matcher, the skeleton index, case folding, or the report layer that alters
results — ordering aside — fails this test instead of silently shifting
the measurement numbers.

To regenerate after an *intentional* change::

    GOLDEN_REGEN=1 PYTHONPATH=src python -m pytest tests/test_golden_detection.py

then review the fixture diff like any other code change.
"""

import json
import os
from pathlib import Path

from repro.detection.shamfinder import ShamFinder
from repro.homoglyph.database import HomoglyphDatabase, HomoglyphPair

FIXTURE = Path(__file__).parent / "data" / "golden_detection.json"


def _finder(payload) -> ShamFinder:
    database = HomoglyphDatabase.from_pairs(
        (HomoglyphPair.from_dict(entry) for entry in payload["pairs"]),
        name="golden",
    )
    return ShamFinder(database)


def _detection_key(entry: dict) -> tuple:
    return (
        entry["idn"],
        entry["reference"],
        tuple((s["position"], s["candidate"]) for s in entry["substitutions"]),
    )


def _actual(payload) -> dict:
    finder = _finder(payload)
    report, timing = finder.detect_with_timing(payload["candidates"], payload["references"])
    # json round-trip normalises tuples to lists so the comparison is
    # structural, not type-sensitive.
    return json.loads(json.dumps({
        "detections": sorted(report.as_dicts(), key=_detection_key),
        "summary": report.summary(),
        "counters": {
            "reference_count": timing.reference_count,
            "idn_count": timing.idn_count,
            "skipped_count": timing.skipped_count,
        },
    }, ensure_ascii=False, sort_keys=True))


def test_golden_detection_report():
    payload = json.loads(FIXTURE.read_text(encoding="utf-8"))
    actual = _actual(payload)

    if os.environ.get("GOLDEN_REGEN"):
        payload["expected"] = actual
        FIXTURE.write_text(
            json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))["expected"]
    assert actual["counters"] == expected["counters"]
    assert actual["summary"] == expected["summary"]
    assert actual["detections"] == expected["detections"]


def test_golden_corpus_exercises_the_interesting_cases():
    """Guard the fixture itself: the corpus must keep covering the edge
    cases the golden diff is supposed to pin down."""
    payload = json.loads(FIXTURE.read_text(encoding="utf-8"))
    expected = payload["expected"]
    detections = expected["detections"]

    assert expected["counters"]["skipped_count"] >= 1          # unparsable junk
    assert any(len(d["substitutions"]) >= 2 for d in detections)
    idns = [d["idn"] for d in detections]
    assert len(idns) > len(set(idns))                          # one IDN, several references
    sources = {s for d in detections for s in d["sources"]}
    assert {"UC", "SimChar"} <= sources                        # both databases attributed
    # The chained class (o~о~ӧ) must NOT let ӧ match plain "google.com":
    # (o, ӧ) is not a database pair even though both share a skeleton class,
    # so the exact re-check has to reject the bucket hit.  (It legitimately
    # matches the IDN reference gооgle.com, where ӧ lines up against о.)
    assert not any(
        d["idn"].startswith("xn--gogle-isf") and d["reference"] == "google.com"
        for d in detections
    )
    assert any(
        d["idn"].startswith("xn--gogle-isf") and d["reference"] != "google.com"
        for d in detections
    )


def test_golden_detections_identical_through_batch_front_end(detect_per_item):
    """The golden corpus (9 candidates, at least ``MIN_KERNEL_BATCH``, so
    both kernel passes run) must produce byte-identical detections as one
    batch and one candidate at a time, both matching the pinned fixture."""
    payload = json.loads(FIXTURE.read_text(encoding="utf-8"))
    finder = _finder(payload)
    prepared = finder.prepare_references(payload["references"])
    batch, batch_count, batch_skipped = finder.detect_prepared(
        payload["candidates"], prepared)
    scalar, scalar_count, scalar_skipped = detect_per_item(
        finder, payload["candidates"], prepared)
    assert (batch_count, batch_skipped) == (scalar_count, scalar_skipped)
    assert [d.as_dict() for d in batch] == [d.as_dict() for d in scalar]

    expected = payload["expected"]["detections"]
    actual = json.loads(json.dumps(
        sorted((d.as_dict() for d in batch), key=_detection_key),
        ensure_ascii=False, sort_keys=True))
    assert actual == expected

"""Golden regression test for invisible-character detection.

``tests/data/golden_invisible.json`` pins a corpus of attack candidates
carrying zero-width joiners, bidi overrides, zero-width spaces, and
combining-mark stacks (as raw ``xn--`` registrations — several of these
characters are IDNA-DISALLOWED and can only reach a resolver pre-encoded),
plus the exact detection output with per-source attribution when the
``invisible`` database source is enabled.

The companion fixture ``golden_detection.json`` (which runs *without* the
invisible table) is deliberately untouched by this feature: together the
two fixtures enforce that the default SimChar∪UC selection stays
byte-identical while the invisible selection catches the new attack class.

To regenerate after an *intentional* change::

    GOLDEN_REGEN=1 PYTHONPATH=src python -m pytest tests/test_golden_invisible.py

then review the fixture diff like any other code change.
"""

import json
import os
from pathlib import Path

from repro.detection.shamfinder import ShamFinder
from repro.homoglyph.database import HomoglyphDatabase, HomoglyphPair
from repro.homoglyph.invisible import default_invisible_table

FIXTURE = Path(__file__).parent / "data" / "golden_invisible.json"


def _finder(payload) -> ShamFinder:
    database = HomoglyphDatabase.from_pairs(
        (HomoglyphPair.from_dict(entry) for entry in payload["pairs"]),
        name="golden-invisible",
    )
    return ShamFinder(
        database,
        invisible_table=default_invisible_table(),
        source_config="golden,invisible.v1",
    )


def _detection_key(entry: dict) -> tuple:
    return (
        entry["idn"],
        entry["reference"],
        tuple((s["position"], s["candidate"]) for s in entry["substitutions"]),
    )


def _actual(payload) -> dict:
    finder = _finder(payload)
    report, timing = finder.detect_with_timing(payload["candidates"], payload["references"])
    return json.loads(json.dumps({
        "detections": sorted(report.as_dicts(), key=_detection_key),
        "summary": report.summary(),
        "counters": {
            "reference_count": timing.reference_count,
            "idn_count": timing.idn_count,
            "skipped_count": timing.skipped_count,
        },
    }, ensure_ascii=False, sort_keys=True))


def test_golden_invisible_report():
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


def test_golden_invisible_corpus_covers_the_attack_classes():
    """Guard the fixture itself: the corpus must keep exercising every
    invisible attack class the golden diff is supposed to pin down."""
    payload = json.loads(FIXTURE.read_text(encoding="utf-8"))
    detections = payload["expected"]["detections"]

    # Every verdict names at least one contributing source.
    assert all(d["sources"] for d in detections)

    # Pure-payload attack: identical after stripping, Invisible-only.
    assert any(d["sources"] == ["Invisible"] and not d["substitutions"]
               for d in detections)
    # Combined attack: homoglyph substitution + invisible payload.
    assert any("Invisible" in d["sources"] and "UC" in d["sources"]
               and d["substitutions"] for d in detections)

    categories = {f["category"] for d in detections
                  for f in d.get("invisibles", ())}
    assert {"zero-width", "bidi-control", "combining-stack"} <= categories

    # The clean look-alike (classic equal-length substitution) must still be
    # detected without any invisible finding riding on it.
    assert any("invisibles" not in d and d["substitutions"] for d in detections)


def test_invisible_detections_disappear_without_the_source():
    """The same corpus run WITHOUT the invisible table must only produce
    the classic detections — the new attack class needs opting in."""
    payload = json.loads(FIXTURE.read_text(encoding="utf-8"))
    database = HomoglyphDatabase.from_pairs(
        (HomoglyphPair.from_dict(entry) for entry in payload["pairs"]),
        name="golden-invisible",
    )
    finder = ShamFinder(database)
    report = finder.detect(payload["candidates"], payload["references"])
    dicts = report.as_dicts()
    assert all("invisibles" not in d for d in dicts)
    expected_classic = [d for d in payload["expected"]["detections"]
                        if "invisibles" not in d]
    assert sorted(dicts, key=_detection_key) == expected_classic


def test_golden_invisible_identical_through_batch_front_end(detect_per_item):
    """The invisible corpus must survive the batch kernel unchanged: the
    kernel's invisible-risk mask routes every risky label to the scalar
    path, so detections match the fixture as one batch and one candidate
    at a time."""
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

"""Bucket-hit rows against the object path they replaced.

``ShamFinder.join_label`` returns plain rows, the scan renders its sink
lines straight from them (``stream._sink_lines``), and detection objects
are made only where a caller wants them.  ``tests/oracles/hit_rows.py`` is
the old path: match objects, ``detections_for`` and ``json.dumps`` of each
detection.  The inputs mix buckets where only some members pass, reference
labels under several TLDs, non-BMP and fold-unsafe code points, invisible
characters and A-labels that do not decode.
"""

import dataclasses
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import hit_rows as oracle
from repro.detection import batchfold, stream
from repro.detection.batchfold import MIN_KERNEL_BATCH
from repro.detection.service import OnlineDetector
from repro.detection.shamfinder import ShamFinder
from repro.detection.stream import StreamingScanner
from repro.homoglyph.database import SOURCE_SIMCHAR, SOURCE_UC, HomoglyphDatabase
from repro.homoglyph.invisible import default_invisible_table
from repro.idn.punycode import encode
from repro.serving.protocol import encode_reply, verdict_reply

#: Latin o, Cyrillic о and Greek ο share one skeleton class, but only o~о
#: and о~ο are pairs: a Greek label joined against a Latin reference in
#: its bucket fails.  U+1042C is a non-BMP stand-in for o.
_PAIRS = [("o", "о", {SOURCE_UC, SOURCE_SIMCHAR}), ("о", "ο", {SOURCE_SIMCHAR}),
          ("o", "\U0001042c", {SOURCE_SIMCHAR}), ("a", "а", {SOURCE_UC}),
          ("l", "ӏ", {SOURCE_UC}), ("e", "é", {SOURCE_SIMCHAR}), ("g", "ɡ", {SOURCE_UC})]

REFERENCES = ["gogle.com", "gogle.net", "gogle.de", "gοgle.org", "gоgle.net",
              "amazon.com", "paypal.com", "paypal.org", "ebay.de", "apple.com"]

#: Reference letters, their twins (including the non-BMP one), İ (whose
#: lowercase expands, so folding keeps it), an upper-case letter, invisible
#: characters and a stack of combining marks.
_ALPHABET = st.sampled_from(list("gogleamzonpyb" "оοаӏéɡ" "\U0001042c" "İG")
                            + ["\u200b", "\u200d", "\u0301"])
#: Per character, what may stand in for it: pairs, characters only in
#: its skeleton class (no pair), and an invisible character before it.
_STAND_INS = {"o": ["о", "ο", "\U0001042c", "\u200bo"], "a": ["а", "\u200da"],
              "l": ["ӏ", "L"], "e": ["é", "e\u0301\u0301"], "g": ["ɡ", "İ"]}
_REFERENCE_LABELS = sorted({domain.rpartition(".")[0] for domain in REFERENCES})


@st.composite
def _near_references(draw) -> str:
    """A reference label with some characters swapped for stand-ins."""
    label = draw(st.sampled_from(_REFERENCE_LABELS))
    swaps = draw(st.lists(st.booleans(), min_size=len(label), max_size=len(label)))
    return "".join(draw(st.sampled_from(_STAND_INS[char])) if swap and char in _STAND_INS
                   else char for char, swap in zip(label, swaps))


_LABELS = st.one_of(_near_references(), st.text(_ALPHABET, min_size=1, max_size=8))
_TLDS = st.sampled_from(["com", "net", "org", "de"])


def _finder(invisible: bool) -> ShamFinder:
    database = HomoglyphDatabase(name="hit-rows-test")
    for first, second, sources in _PAIRS:
        for source in sorted(sources):
            database.add_pair(first, second, source=source)
    if invisible:
        return ShamFinder(database, invisible_table=default_invisible_table(),
                          source_config="hit-rows,invisible")
    return ShamFinder(database)


FINDERS = {invisible: _finder(invisible) for invisible in (False, True)}
PREPARED = {invisible: finder.prepare_references(REFERENCES)
            for invisible, finder in FINDERS.items()}


@contextmanager
def _decoding_every_idn():
    """Run the batch Punycode decoder however few IDN rows a batch has."""
    with mock.patch.object(batchfold, "MIN_IDN_DECODE_BATCH", 1):
        yield


def _oracle_rows(matches, tld=None):
    """The oracle's ``(match, refs)`` pairs as rows, kept to *tld*."""
    rows = []
    for match, refs in matches:
        if tld is not None:
            refs = tuple(ref for ref in refs if ref.rpartition(".")[2] == tld)
            if not refs:
                continue
        rows.append((match.reference, refs,
                     tuple((s.position, s.candidate_char, s.reference_char)
                           for s in match.substitutions),
                     oracle._sources(match), match.invisibles))
    return tuple(rows)


def _domain(label: str, tld: str) -> str:
    """*label* under *tld*, spelled as an A-label when it is not ASCII (the
    raw Punycode, so invisible and upper-case labels get through too)."""
    return f"{label if label.isascii() else 'xn--' + encode(label)}.{tld}"


@settings(max_examples=300, deadline=None)
@given(_LABELS, st.booleans(), st.one_of(st.none(), _TLDS))
@example("gοgle", False, None)            # Greek: passes Cyrillic, fails Latin
@example("gоgle", False, "net")           # Cyrillic: .net members only
@example("g\U0001042cgle", False, "com")  # non-BMP substitution
@example("İgle", False, None)             # fold-unsafe code point
@example("g\u200bоgle", True, "com")      # invisible-bearing label
@example("ɡoglé", False, "com")            # two substitutions, two sources
@example("gogle", True, "de")             # a reference itself: no detection
def test_join_label_rows_equal_the_match_objects(label, invisible, tld):
    finder, prepared = FINDERS[invisible], PREPARED[invisible]
    expected = _oracle_rows(oracle.join_label(finder, label, prepared), tld)
    assert finder.join_label(label, prepared, tld) == expected


_BATCH = st.lists(
    st.one_of(
        st.builds(_domain, _LABELS, _TLDS),
        st.sampled_from(REFERENCES),
        st.sampled_from(["xn--99999999.com", "xn--ab_c.com", "xn--.net", "..", "xn--w.org"]),
        st.builds(lambda label, tld: f"www.{_domain(label, tld)}", _LABELS, _TLDS),
    ),
    max_size=24,
)


@settings(max_examples=150, deadline=None)
@given(_BATCH, st.booleans(), st.booleans())
@example(["xn--" + encode("gοgle") + ".com", "xn--" + encode("gоgle") + ".de",
          "xn--99999999.com"], False, True)
def test_scan_lines_equal_the_object_path(batch, invisible, kernel):
    """Sink lines rendered from hit rows, and the detection objects, are
    the old path's; with *kernel* the batch is padded past the kernel
    threshold so decoded bucket hits take the no-parse path."""
    finder, prepared = FINDERS[invisible], PREPARED[invisible]
    if kernel:
        batch = batch + [f"site{i}.com" for i in range(MIN_KERNEL_BATCH)]
    with _decoding_every_idn():
        expected, idn_count, skipped = oracle.detect_prepared(finder, batch, prepared)
        hits, hit_idns, hit_skipped = finder.hit_rows(batch, prepared)
        detections, det_idns, det_skipped = finder.detect_prepared(batch, prepared)
        chunk = stream._process_chunk(finder, prepared, ("\n".join(batch), len(batch)),
                                      False, {})
    text = oracle.sink_text(expected)
    assert "".join(stream._sink_lines(hits)) == text
    assert (hit_idns, len(hit_skipped)) == (det_idns, det_skipped) == (idn_count, skipped)
    assert detections == expected
    assert [d.as_json() + "\n" for d in detections] == text.splitlines(keepends=True)
    assert chunk[0] == text and chunk[1] == len(expected)
    assert chunk[4:] == (idn_count, skipped)


@settings(max_examples=60, deadline=None)
@given(_BATCH, st.booleans())
def test_served_verdict_bytes_equal_the_object_path(batch, invisible):
    """A served verdict's reply line carries the old path's detections,
    whether its label's rows come from the join or the per-label cache."""
    finder, prepared = FINDERS[invisible], PREPARED[invisible]
    detector = OnlineDetector.from_references(finder, REFERENCES, include_revert=True)
    fingerprint = detector.index.fingerprint
    batch = batch + [f"site{i}.com" for i in range(MIN_KERNEL_BATCH)]
    with _decoding_every_idn():
        for verdicts in (detector.query_many(batch), detector.query_many(batch)):
            for text, verdict in zip(batch, verdicts):
                expected = dataclasses.replace(verdict, detections=tuple(
                    oracle.detect_prepared(finder, [text], prepared)[0]))
                assert (encode_reply(verdict_reply(verdict.as_dict(), fingerprint))
                        == encode_reply(verdict_reply(expected.as_dict(), fingerprint)))


def _zone(path) -> str:
    """A zone of bucket hits under several TLDs, misses, junk and names
    that need a parse, with its expected sink text."""
    labels = ["gοgle", "gоgle", "g\U0001042cgle", "аmazon", "pаypаl", "ebаy", "аpple",
              "goοgle", "bénin"]
    lines = []
    for i in range(600):
        label = labels[i % len(labels)]
        tld = ("com", "net", "org", "de")[i % 4]
        lines.append(_domain(label, tld) if i % 3 else f"site{i}.{tld}")
        if i % 50 == 0:
            lines += ["xn--99999999.com", "WWW.XN--GGLE-55DA.COM", "#comment", ""]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    finder, prepared = FINDERS[False], PREPARED[False]
    domains = [line for line in lines if line and not line.startswith("#")]
    return oracle.sink_text(oracle.detect_prepared(finder, domains, prepared)[0])


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_scan_jobs_2_sink_bytes_equal_jobs_1(tmp_path, method):
    expected = _zone(tmp_path / "zone.txt")
    assert expected
    sinks = []
    for jobs in (1, 2):
        scanner = StreamingScanner(FINDERS[False], REFERENCES, chunk_size=64, jobs=jobs,
                                   idn_only=False, start_method=method)
        out = tmp_path / f"jobs{jobs}.jsonl"
        scanner.scan_file(tmp_path / "zone.txt", out)
        sinks.append(out.read_bytes())
    assert sinks[0] == sinks[1] == expected.encode("utf-8")

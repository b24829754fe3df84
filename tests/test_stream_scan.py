"""Tests for the streaming scan subsystem (detection/stream.py).

Covers the resilience guarantees the zone-scale pipeline advertises:
checkpoint/resume after a killed run, detection and reporting of
truncated/corrupt JSONL sink lines, and ``skipped_count`` propagating
through the streaming path exactly as through the in-memory one.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.shamfinder import ShamFinder
from repro.detection.stream import (
    ScanCheckpoint,
    ScanResumeError,
    ScanStats,
    SinkError,
    StreamingScanner,
    file_fingerprint,
    is_idn_candidate,
    read_sink,
    recover_sink,
)
from repro.homoglyph.database import SOURCE_UC, HomoglyphDatabase
from repro.idn import punycode
from repro.idn.domain import DomainName
from repro.idn.idna_codec import IDNAError

REFERENCES = ["google.com", "amazon.com", "apple.com"]

#: Unparsable junk a zone dump may contain (bad Punycode in the A-label).
JUNK = "xn--zzzz-!!!.com"


@pytest.fixture(scope="module")
def stream_finder():
    db = HomoglyphDatabase()
    db.add_pair("o", "о", source=SOURCE_UC)
    db.add_pair("a", "а", source=SOURCE_UC)
    return ShamFinder(db)


@pytest.fixture(scope="module")
def corpus():
    """A small synthetic zone dump: homographs, plain names, junk, comments."""
    homographs = [
        DomainName("gоogle.com").ascii,
        DomainName("аmаzon.com").ascii,
        DomainName("аpple.com").ascii,
    ]
    lines = []
    for i in range(30):
        lines.append(homographs[i % len(homographs)])
        lines.append(f"plain{i}.com")
        if i % 10 == 0:
            lines.append(JUNK)
        if i % 7 == 0:
            lines.append("")
            lines.append("# comment line")
    return lines


@pytest.fixture()
def corpus_file(tmp_path, corpus):
    path = tmp_path / "domains.txt"
    path.write_text("\n".join(corpus) + "\n", encoding="utf-8")
    return path


def _scan(finder, corpus_file, out, **kwargs):
    scanner = StreamingScanner(finder, REFERENCES, chunk_size=8, **kwargs)
    return scanner, scanner.scan_file(corpus_file, out)


# -- equivalence with the in-memory path -------------------------------------


def test_scan_file_matches_in_memory_detect(stream_finder, corpus, corpus_file, tmp_path):
    out = tmp_path / "results.jsonl"
    _, stats = _scan(stream_finder, corpus_file, out)

    idns = [line for line in corpus if "xn--" in line]
    report, timing = stream_finder.detect_with_timing(idns, REFERENCES)

    assert read_sink(out).as_dicts() == report.as_dicts()
    assert stats.detection_count == len(report)
    assert stats.skipped_count == timing.skipped_count
    assert stats.idn_count == timing.idn_count


def test_parallel_scan_is_byte_identical(stream_finder, corpus_file, tmp_path):
    serial_out = tmp_path / "serial.jsonl"
    parallel_out = tmp_path / "parallel.jsonl"
    _, serial_stats = _scan(stream_finder, corpus_file, serial_out, jobs=1)
    _, parallel_stats = _scan(stream_finder, corpus_file, parallel_out, jobs=3)
    assert serial_out.read_bytes() == parallel_out.read_bytes()
    # A pool may commit several chunks at once, so only the commit count differs.
    varying = {"elapsed_seconds", "commits"}
    serial_counts = {k: v for k, v in serial_stats.as_dict().items() if k not in varying}
    parallel_counts = {k: v for k, v in parallel_stats.as_dict().items() if k not in varying}
    assert serial_counts == parallel_counts
    assert serial_stats.commits == serial_stats.chunks_done
    assert 1 <= parallel_stats.commits <= parallel_stats.chunks_done


def test_scan_to_report_matches_sink(stream_finder, corpus, corpus_file, tmp_path):
    out = tmp_path / "results.jsonl"
    scanner, _ = _scan(stream_finder, corpus_file, out)
    report, stats = scanner.scan_to_report(corpus)
    assert report.as_dicts() == read_sink(out).as_dicts()
    assert stats.detection_count == len(report)
    assert stats.lines_done == len(corpus)


# -- skipped_count propagation ------------------------------------------------


def test_skipped_count_propagates_through_streaming(stream_finder, corpus, corpus_file, tmp_path):
    junk_lines = sum(1 for line in corpus if line == JUNK)
    assert junk_lines >= 3
    _, stats = _scan(stream_finder, corpus_file, tmp_path / "r.jsonl")
    assert stats.skipped_count == junk_lines
    # Blank/comment lines are input noise, not skipped candidates.
    assert stats.domains_seen == sum(
        1 for line in corpus if line.strip() and not line.startswith("#")
    )


# -- checkpoint/resume --------------------------------------------------------


class _Killed(Exception):
    pass


def _kill_after(chunks: int):
    def bomb(stats: ScanStats) -> None:
        if stats.chunks_done >= chunks:
            raise _Killed
    return bomb


def test_resume_after_killed_run_is_identical(stream_finder, corpus_file, tmp_path):
    full_out = tmp_path / "full.jsonl"
    _, full_stats = _scan(stream_finder, corpus_file, full_out)

    out = tmp_path / "resumable.jsonl"
    scanner = StreamingScanner(stream_finder, REFERENCES, chunk_size=8)
    with pytest.raises(_Killed):
        scanner.scan_file(corpus_file, out, progress=_kill_after(3))

    checkpoint = ScanCheckpoint.load(str(out) + ".checkpoint")
    assert checkpoint is not None
    assert checkpoint.chunks_done == 3

    stats = scanner.scan_file(corpus_file, out, resume=True)
    assert out.read_bytes() == full_out.read_bytes()
    assert stats.resumed_lines == checkpoint.lines_done
    assert stats.lines_done == full_stats.lines_done
    assert stats.detection_count == full_stats.detection_count
    assert stats.skipped_count == full_stats.skipped_count
    assert stats.domains_seen == full_stats.domains_seen


def test_resume_with_lost_checkpoint_refuses_to_clobber_sink(
    stream_finder, corpus_file, tmp_path
):
    out = tmp_path / "r.jsonl"
    _scan(stream_finder, corpus_file, out)
    before = out.read_bytes()
    (tmp_path / "r.jsonl.checkpoint").unlink()
    scanner = StreamingScanner(stream_finder, REFERENCES, chunk_size=8)
    # The checkpoint is gone but durable results exist: a fresh start would
    # silently destroy them, so --resume must refuse and leave them intact.
    with pytest.raises(ScanResumeError):
        scanner.scan_file(corpus_file, out, resume=True)
    assert out.read_bytes() == before


def test_resume_with_no_prior_run_starts_fresh(stream_finder, corpus_file, tmp_path):
    out = tmp_path / "r.jsonl"
    scanner = StreamingScanner(stream_finder, REFERENCES, chunk_size=8)
    stats = scanner.scan_file(corpus_file, out, resume=True)
    assert stats.resumed_lines == 0
    assert stats.detection_count == len(read_sink(out))


def test_corrupt_checkpoint_reads_as_missing(tmp_path):
    path = tmp_path / "cp.json"
    path.write_text("{not json", encoding="utf-8")
    assert ScanCheckpoint.load(path) is None
    path.write_text(json.dumps({"version": 999, "lines_done": 1}), encoding="utf-8")
    assert ScanCheckpoint.load(path) is None
    # Valid JSON that is not an object is corruption too, not a crash.
    path.write_text("[]", encoding="utf-8")
    assert ScanCheckpoint.load(path) is None
    path.write_text('"checkpoint"', encoding="utf-8")
    assert ScanCheckpoint.load(path) is None


def test_checkpoint_with_a_wrong_typed_field_reads_as_missing(tmp_path):
    path = tmp_path / "cp.json"
    ScanCheckpoint(lines_done=4, chunks_done=1, detections_written=2, domains_seen=4,
                   idn_count=2, skipped_count=0).save(path)
    assert ScanCheckpoint.load(path) is not None
    for field, value in (("detections_written", "2"), ("lines_done", 4.0),
                         ("chunks_done", True), ("input_fingerprint", 7)):
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload[field] = value
        damaged = tmp_path / f"{field}.json"
        damaged.write_text(json.dumps(payload), encoding="utf-8")
        assert ScanCheckpoint.load(damaged) is None, field


def test_resume_refuses_changed_input(stream_finder, corpus_file, tmp_path):
    out = tmp_path / "r.jsonl"
    scanner = StreamingScanner(stream_finder, REFERENCES, chunk_size=8)
    with pytest.raises(_Killed):
        scanner.scan_file(corpus_file, out, progress=_kill_after(1))
    with open(corpus_file, "a", encoding="utf-8") as handle:
        handle.write("freshly-registered.com\n")
    with pytest.raises(ScanResumeError):
        scanner.scan_file(corpus_file, out, resume=True)


# -- sink corruption ----------------------------------------------------------


def test_resume_recovers_corrupt_and_uncheckpointed_sink_lines(
    stream_finder, corpus_file, tmp_path
):
    full_out = tmp_path / "full.jsonl"
    _scan(stream_finder, corpus_file, full_out)

    out = tmp_path / "r.jsonl"
    scanner = StreamingScanner(stream_finder, REFERENCES, chunk_size=8)
    with pytest.raises(_Killed):
        scanner.scan_file(corpus_file, out, progress=_kill_after(2))

    with open(out, "a", encoding="utf-8") as handle:
        # A valid line flushed after the last checkpoint (its chunk will be
        # re-run by the resume) and a write cut off mid-line by the kill.
        handle.write(json.dumps({
            "idn": "xn--x.com", "unicode": "x.com", "reference": "google.com",
            "substitutions": [], "sources": [],
        }) + "\n")
        handle.write('{"idn": "xn--trunc')

    stats = scanner.scan_file(corpus_file, out, resume=True)
    assert stats.recovered_drop == 2
    assert out.read_bytes() == full_out.read_bytes()


def test_resume_refuses_sink_damaged_before_checkpoint(stream_finder, corpus_file, tmp_path):
    out = tmp_path / "r.jsonl"
    scanner = StreamingScanner(stream_finder, REFERENCES, chunk_size=8)
    with pytest.raises(_Killed):
        scanner.scan_file(corpus_file, out, progress=_kill_after(3))
    lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(lines) >= 2
    # Corrupt a line *inside* the checkpointed prefix: the durable results
    # no longer match the checkpoint, so resuming must refuse — without
    # truncating away the still-salvageable lines after the damage.
    lines[0] = '{"corrupted\n'
    out.write_text("".join(lines), encoding="utf-8")
    damaged = out.read_bytes()
    with pytest.raises(ScanResumeError):
        scanner.scan_file(corpus_file, out, resume=True)
    assert out.read_bytes() == damaged


def test_recover_sink_dry_run_inspects_without_modifying(tmp_path):
    path = tmp_path / "sink.jsonl"
    good = json.dumps({"idn": "a", "reference": "b"})
    content = good + "\n" + '{"idn": "half'
    path.write_text(content, encoding="utf-8")
    recovery = recover_sink(path, dry_run=True)
    assert recovery.valid_count == 1
    assert recovery.dropped_corrupt == 1
    assert path.read_text(encoding="utf-8") == content


def test_recover_sink_reports_truncated_tail(tmp_path):
    path = tmp_path / "sink.jsonl"
    good = json.dumps({"idn": "a", "reference": "b"})
    path.write_text(good + "\n" + good + "\n" + '{"idn": "half', encoding="utf-8")
    recovery = recover_sink(path)
    assert recovery.valid_count == 2
    assert recovery.dropped_corrupt == 1
    assert recovery.dropped_uncheckpointed == 0
    assert path.read_text(encoding="utf-8") == good + "\n" + good + "\n"


def test_recover_sink_caps_at_checkpointed_count(tmp_path):
    path = tmp_path / "sink.jsonl"
    good = json.dumps({"idn": "a", "reference": "b"})
    path.write_text((good + "\n") * 5, encoding="utf-8")
    recovery = recover_sink(path, expected_lines=3)
    assert recovery.valid_count == 3
    assert recovery.dropped_uncheckpointed == 2
    assert path.read_text(encoding="utf-8") == (good + "\n") * 3


def test_read_sink_raises_naming_the_bad_line(tmp_path):
    path = tmp_path / "sink.jsonl"
    good = json.dumps({
        "idn": "xn--a.com", "unicode": "a.com", "reference": "b.com",
        "substitutions": [], "sources": [],
    })
    path.write_text(good + "\n" + "garbage\n" + good + "\n", encoding="utf-8")
    with pytest.raises(SinkError, match="line 2"):
        read_sink(path)
    # Well-formed JSON that is not a detection payload is also named.
    path.write_text(good + "\n" + '{"idn": "x.com", "reference": "y.com"}\n',
                    encoding="utf-8")
    with pytest.raises(SinkError, match="line 2"):
        read_sink(path)


# -- misc ---------------------------------------------------------------------


def test_file_fingerprint_tracks_content(tmp_path):
    path = tmp_path / "input.txt"
    path.write_text("one.com\n", encoding="utf-8")
    first = file_fingerprint(path)
    assert file_fingerprint(path) == first
    path.write_text("two.com\n", encoding="utf-8")
    assert file_fingerprint(path) != first


def test_scanner_validates_arguments(stream_finder):
    with pytest.raises(ValueError):
        StreamingScanner(stream_finder, REFERENCES, chunk_size=0)
    with pytest.raises(ValueError):
        StreamingScanner(stream_finder, REFERENCES, jobs=0)


def test_step_ii_filter_keys_on_the_registrable_label(stream_finder, tmp_path):
    # Matching happens on the registrable label, so an ASCII name under an
    # IDN TLD is not a candidate, while a subdomain-carrying IDN is.
    from repro.detection.stream import is_idn_candidate
    assert not is_idn_candidate("example.xn--p1ai")
    assert not is_idn_candidate("plain.com")
    assert is_idn_candidate("xn--gogle-jye.com")
    assert is_idn_candidate("mail.xn--gogle-jye.com")
    assert is_idn_candidate("XN--GOGLE-JYE.com.")

    inp = tmp_path / "d.txt"
    inp.write_text("example.xn--p1ai\nmail.xn--gogle-jye.com\n", encoding="utf-8")
    scanner = StreamingScanner(stream_finder, REFERENCES, idn_only=True)
    stats = scanner.scan_file(inp, tmp_path / "r.jsonl")
    assert stats.domains_seen == 2
    assert stats.idn_count == 1
    assert stats.detection_count == 1          # gоogle label still matches


def test_step_ii_filter_splits_on_ideographic_and_fullwidth_dots(stream_finder, tmp_path):
    # DomainName splits on U+3002, U+FF0E and U+FF61 as well as "."; the
    # Step II filter used not to, and dropped IDNs that detect would match.
    for text in ("foo.xn--ggle-0nda。com", "xn--ggle-0nda．com", "foo｡xn--ggle-0nda｡com"):
        assert DomainName(text).has_idn_registrable_label
        assert is_idn_candidate(text)
    assert not is_idn_candidate("xn--ggle-0nda.foo。com")

    inp = tmp_path / "d.txt"
    inp.write_text("mail.xn--gogle-jye。com\n", encoding="utf-8")
    scanner = StreamingScanner(stream_finder, REFERENCES, idn_only=True)
    stats = scanner.scan_file(inp, tmp_path / "r.jsonl")
    assert stats.idn_count == 1
    assert stats.detection_count == 1


def test_step_ii_filter_takes_unicode_spelled_idns(stream_finder, tmp_path):
    # A Unicode-spelled registrable label is an IDN to DomainName, so Step II
    # keeps it; a name that does not parse is a candidate exactly when its
    # registrable label is spelled as an A-label (the matcher skips it).
    for text in ("bücher.de", "www.bücher.de", "bücher.xn--p1ai", "gоogle.com"):
        assert DomainName(text).has_idn_registrable_label
        assert is_idn_candidate(text)
    assert is_idn_candidate("ü.xn--zzzz-!!!.com")
    assert not is_idn_candidate("bü cher!.de")

    inp = tmp_path / "d.txt"
    inp.write_text("gоogle.com\nbü cher!.de\nü.xn--zzzz-!!!.com\n", encoding="utf-8")
    scanner = StreamingScanner(stream_finder, REFERENCES, idn_only=True)
    stats = scanner.scan_file(inp, tmp_path / "r.jsonl")
    assert (stats.idn_count, stats.skipped_count, stats.detection_count) == (1, 1, 1)


_PAD = st.sampled_from(["", " ", "\t"])
_ACE_LABELS = st.builds(
    lambda text, upper: ("XN--" if upper else "xn--") + punycode.encode(text),
    st.text(alphabet="abc019-äöéоаеοα阿里", min_size=1, max_size=6), st.booleans())
_ASCII_LABELS = st.one_of(
    st.text(alphabet="abcdefxyzABXN0129-_", min_size=1, max_size=8), _ACE_LABELS)
_ANY_LABELS = st.one_of(_ASCII_LABELS,
                        st.text(alphabet="abcäöоαx-n阿ａßẞİ", min_size=1, max_size=6))


def _padded(labels):
    return st.builds(lambda before, label, after: before + label + after, _PAD, labels, _PAD)


@st.composite
def _domains(draw):
    """Domains whose labels are spelled in ASCII (LDH or A-label), as zone
    files and CT logs spell them, or in Unicode, as users type them."""
    labels = [draw(_padded(_ANY_LABELS))]
    if draw(st.booleans()):     # subdomains + registrable + TLD, else a single label
        labels = draw(st.lists(_padded(_ANY_LABELS), max_size=2)) + labels + [draw(_padded(_ANY_LABELS))]
    dots = draw(st.lists(st.sampled_from([".", "。", "．", "｡"]), min_size=len(labels), max_size=len(labels)))
    text = "".join(label + dot for label, dot in zip(labels, dots))
    return (text if draw(st.booleans()) else text[:-1]).strip()


@settings(max_examples=400, deadline=None)
@given(_domains())
def test_step_ii_filter_agrees_with_domain_name(text):
    try:
        name = DomainName(text)
    except (IDNAError, ValueError):
        return
    assert is_idn_candidate(text) == name.has_idn_registrable_label


def test_all_domains_mode_matches_non_idn_candidates(stream_finder, tmp_path):
    # In idn_only mode an ASCII-only lookalike is filtered by Step II; with
    # --all-domains it reaches the matcher (and still only matches when the
    # database says so).
    inp = tmp_path / "d.txt"
    inp.write_text("google.com\n", encoding="utf-8")
    idn_scanner = StreamingScanner(stream_finder, REFERENCES, idn_only=True)
    all_scanner = StreamingScanner(stream_finder, REFERENCES, idn_only=False)
    idn_stats = idn_scanner.scan_file(inp, tmp_path / "a.jsonl")
    all_stats = all_scanner.scan_file(inp, tmp_path / "b.jsonl")
    assert idn_stats.idn_count == 0
    assert all_stats.idn_count == 1
    assert all_stats.detection_count == 0      # identical label is not a homograph


# -- measurement-study integration -------------------------------------------


def test_study_streaming_detection_equals_direct(study):
    direct, _timing = study.detect_homographs()
    streamed, timing, stats = study.detect_homographs_streaming(chunk_size=500, jobs=2)
    assert sorted(d.idn for d in streamed) == sorted(d.idn for d in direct)
    assert {json.dumps(d, sort_keys=True) for d in streamed.as_dicts()} == {
        json.dumps(d, sort_keys=True) for d in direct.as_dicts()
    }
    assert timing.skipped_count == stats.skipped_count
    assert stats.chunks_done >= 1


def test_study_run_streaming_populates_scan_stats(study):
    results = study.run(streaming=True, chunk_size=500, jobs=1)
    assert results.scan_stats is not None
    assert results.scan_stats.detection_count == len(results.detection_report)
    assert results.detection_counts == results.detection_report.count_by_database()

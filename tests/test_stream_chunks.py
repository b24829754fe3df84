"""Differential tests: text-slice scan chunks against the list-of-lines oracle.

``repro.detection.stream`` ships each chunk as one ``(text, raw_lines)``
pair and runs Step II over the whole text; ``oracles.stream_chunks`` is
the list-of-lines pipeline it replaced.  Both must yield the same
candidates and counts per chunk and the same sink bytes and stats per
scan, for every line shape a zone dump or CT log can hold.
"""

from __future__ import annotations

import json
from functools import partial
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles.stream_chunks import chunked, process_chunk, step_ii

from repro.detection.report import DetectionReport
from repro.detection.shamfinder import ShamFinder
from repro.detection import stream
from repro.detection.stream import (
    ScanCheckpoint,
    StreamingScanner,
    _FileLines,
    _plain_line_count,
    _step_ii,
)
from repro.homoglyph.database import SOURCE_UC, HomoglyphDatabase
from repro.idn.domain import DomainName

REFERENCES = ["google.com", "amazon.com", "apple.com"]
GOOGLE = DomainName("gоogle.com").ascii
AMAZON = DomainName("аmаzon.com").ascii

#: Line bodies: A-labels in every casing, Unicode-spelled IDNs, plain
#: names, junk, and characters whose ``lower()`` changes the length (İ)
#: or not (ẞ).
_NAMES = [
    GOOGLE, GOOGLE.upper(), "Xn--" + GOOGLE[4:], "mail." + AMAZON, "XN--" + AMAZON[4:],
    "plain.com", "example.xn--p1ai", "xn--zzzz-!!!.com", "gоogle.com", "www.bücher.de",
    "bücher.xn--p1ai", "İ.xn--gogle-jye.com", "xn--gogle-jye.İ", "ẞ.com", "İxn--.com",
    GOOGLE.replace("xn--", "xn-", 1), "#" + GOOGLE, "# comment", GOOGLE[:6] + "#" + GOOGLE[6:],
    "plain#.com", "",
]
#: Whitespace that ``str.strip`` removes but that never ends a text-mode line.
_SPACE = st.text(alphabet="\x0b\x0c\x1c\x85\xa0 　 \t", max_size=2)
_LINES = st.lists(
    st.builds(lambda before, name, after: before + name + after,
              _SPACE, st.sampled_from(_NAMES), _SPACE),
    max_size=12,
)
#: Line ends of a file: LF, CRLF or a lone CR (universal newlines).
_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@pytest.fixture(scope="module")
def finder():
    db = HomoglyphDatabase()
    db.add_pair("o", "о", source=SOURCE_UC)
    db.add_pair("a", "а", source=SOURCE_UC)
    return ShamFinder(db)


@pytest.fixture(scope="module")
def prepared(finder):
    return finder.prepare_references(REFERENCES)


@st.composite
def _files(draw):
    """``(lines, file text)``: the lines with drawn line ends, the final
    one optional."""
    lines = draw(_LINES)
    ends = draw(st.lists(_ENDS, min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and not draw(st.booleans()):
        text = text[:-len(ends[-1])]
    return lines, text


def _file_chunks(path, chunk_size):
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        return list(iter(partial(_FileLines(handle).take, chunk_size), ("", 0)))


def _oracle_scan(finder, prepared, lines, chunk_size, idn_only=True):
    """Sink lines and stats counters of the list-of-lines pipeline."""
    report = DetectionReport()
    counts = dict(chunks_done=0, lines_done=0, domains_seen=0, idn_count=0,
                  skipped_count=0, detection_count=0)
    for chunk in chunked(lines, chunk_size):
        detections, raw_lines, seen, idn_count, skipped = process_chunk(
            finder, prepared, chunk, idn_only)
        report.extend(detections)
        counts["chunks_done"] += 1
        counts["lines_done"] += raw_lines
        counts["domains_seen"] += seen
        counts["idn_count"] += idn_count
        counts["skipped_count"] += skipped
        counts["detection_count"] += len(detections)
    return report, counts


def _counts(stats):
    return {key: getattr(stats, key) for key in (
        "chunks_done", "lines_done", "domains_seen", "idn_count", "skipped_count",
        "detection_count")}


@pytest.mark.parametrize("chunk_size", [1, 3, 2000])
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=_files(), idn_only=st.booleans(), read_chars=st.sampled_from([1, 2, 5, 1 << 18]))
def test_file_chunks_match_the_oracle(tmp_path_factory, chunk_size, data, idn_only,
                                      read_chars):
    # read_chars cuts blocks mid-line and mid-CRLF.
    lines, text = data
    path = tmp_path_factory.mktemp("chunks") / "in.txt"
    path.write_bytes(text.encode("utf-8"))
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        expected = [step_ii(chunk, idn_only) for chunk in chunked(handle, chunk_size)]
    with mock.patch("repro.detection.stream._READ_CHARS", read_chars):
        with open(path, "r", encoding="utf-8", errors="replace") as handle:
            chunks = iter(partial(_FileLines(handle).take, chunk_size), ("", 0))
            actual = [(*_step_ii(chunk_text, idn_only), raw_lines)
                      for chunk_text, raw_lines in chunks]
    assert actual == expected


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("chunk_size", [1, 3, 2000])
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=_files())
def test_scan_sink_and_stats_match_the_oracle(finder, prepared, tmp_path_factory, jobs,
                                              chunk_size, data):
    _lines, text = data
    work = tmp_path_factory.mktemp("scan")
    path = work / "in.txt"
    path.write_bytes(text.encode("utf-8"))
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        file_lines = list(handle)
    report, counts = _oracle_scan(finder, prepared, file_lines, chunk_size)
    expected_sink = "".join(
        json.dumps(d.as_dict(), ensure_ascii=False) + "\n" for d in report)

    scanner = StreamingScanner(finder, REFERENCES, chunk_size=chunk_size, jobs=jobs,
                               prepared=prepared)
    out = work / "out.jsonl"
    stats = scanner.scan_file(path, out)
    assert out.read_bytes() == expected_sink.encode("utf-8")
    assert _counts(stats) == counts
    if counts["chunks_done"]:
        checkpoint = ScanCheckpoint.load(str(out) + ".checkpoint")
        assert (checkpoint.lines_done, checkpoint.chunks_done) == (
            counts["lines_done"], counts["chunks_done"])

    # The in-memory path over the same lines, each element keeping its line end.
    memory_report, memory_stats = scanner.scan_to_report(file_lines)
    assert memory_report.as_dicts() == report.as_dicts()
    assert _counts(memory_stats) == counts


def test_interior_line_break_scans_as_separate_lines_of_one_input_line(finder):
    # The documented rule: an in-memory element holding a line break is
    # scanned as the lines it holds but consumes one input line.
    scanner = StreamingScanner(finder, REFERENCES, chunk_size=2)
    report, stats = scanner.scan_to_report([f"{GOOGLE}\n{AMAZON}", "plain.com\n", ""])
    assert [d.idn for d in report] == [GOOGLE, AMAZON]
    assert stats.lines_done == 3
    assert stats.chunks_done == 2
    assert stats.domains_seen == 3
    assert stats.idn_count == 2


def test_file_lines_cut_exact_chunks_across_blocks(tmp_path):
    path = tmp_path / "in.txt"
    path.write_bytes(b"a\r\nb\rc\n\nd")
    with mock.patch("repro.detection.stream._READ_CHARS", 2):
        assert _file_chunks(path, 2) == [("a\nb", 2), ("c\n", 2), ("d", 1)]
    path.write_bytes(b"a\nb\n")
    assert _file_chunks(path, 2) == [("a\nb", 2)]
    path.write_bytes(b"a\n\n")
    assert _file_chunks(path, 3) == [("a\n", 2)]
    path.write_bytes(b"\n")
    assert _file_chunks(path, 3) == [("", 1)]
    path.write_bytes(b"")
    assert _file_chunks(path, 2) == []



# -- Step II: the counted branch ----------------------------------------------

#: Line bodies a chunk of bare domains is made of: no padding, no ``#``.
_PLAIN_NAMES = [name for name in _NAMES
                if name and name.isascii() and "#" not in name and name.strip() == name]
_PLAIN_LINES = st.lists(st.sampled_from(_PLAIN_NAMES), min_size=1, max_size=12)
#: Bare ASCII names that place ``xn--`` at the edges of the registrable
#: label: trailing and leading dots, empty labels, single labels, ``xn--``
#: outside the registrable label or inside a label, upper case.
_EDGE_NAMES = [
    "xn--a.com.", "foo.xn--a.", ".xn--a.com", "a..xn--b", "xn--a..com", "xn--", "xn--abc",
    "xn--a.b.com", "fooxn--bar.com", "example.xn--p1ai", "XN--A.COM", "www.xn--a.com",
]


def _dense_share(lines):
    """Whether at least one line per ``_DENSE_LINES_PER_HIT`` holds ``xn--``."""
    hits = sum("xn--" in line.lower() for line in lines)
    return hits * stream._DENSE_LINES_PER_HIT >= len(lines)


#: Chunks of bare domains dense in ``xn--`` lines.
_DENSE_LINES = st.lists(
    st.sampled_from(_PLAIN_NAMES + _EDGE_NAMES), min_size=1, max_size=24,
).filter(_dense_share)


def _step_ii_branch(text, idn_only=True):
    """``(_step_ii result, whether the dense pick answered)``."""
    picked = []

    def pick(*args):
        picked.append(dense_pick(*args))
        return picked[-1]

    dense_pick = stream._dense_pick
    with mock.patch.object(stream, "_dense_pick", pick):
        result = _step_ii(text, idn_only)
    return result, bool(picked) and picked[0] is not None


@settings(max_examples=300, deadline=None)
@given(lines=st.one_of(_PLAIN_LINES, _LINES, _DENSE_LINES), idn_only=st.booleans())
def test_step_ii_matches_the_oracle(lines, idn_only):
    # About a third of the draws are bare ASCII domains, which the counted
    # branch takes; another third are bare domains dense in ``xn--``, which
    # the dense pick answers unless a line ends in "."; the rest hold
    # blank, padded, comment or non-ASCII lines.
    text = "\n".join(lines)
    plain = bool(lines) and all(line in _PLAIN_NAMES or line in _EDGE_NAMES for line in lines)
    if plain:
        assert _plain_line_count(text) == len(lines)
    result, dense = _step_ii_branch(text, idn_only)
    assert result == step_ii(text.split("\n"), idn_only)[:2]
    assert dense == (idn_only and plain and _dense_share(lines)
                     and not any(line.endswith(".") for line in lines))


@pytest.mark.parametrize("name", _EDGE_NAMES)
@pytest.mark.parametrize("filler", [0, 3])
def test_dense_pick_registrable_label_edges(name, filler):
    # Alone or among plain names, each edge name is picked exactly as the
    # oracle picks it; a trailing dot sends the chunk back to the hit loop.
    lines = ["plain.com"] * filler + [name] + ["a.b.example"] * filler
    text = "\n".join(lines)
    result, dense = _step_ii_branch(text)
    assert result == step_ii(lines, True)[:2]
    assert dense == (not name.endswith("."))


@pytest.mark.parametrize("hits", [1, 3])
@pytest.mark.parametrize("offset, dense", [(-1, True), (0, True), (1, False)])
def test_dense_pick_threshold(hits, offset, dense):
    # One line below the dense share, at it, and one line above it.
    count = hits * stream._DENSE_LINES_PER_HIT + offset
    lines = [GOOGLE] * hits + ["plain.com"] * (count - hits)
    text = "\n".join(lines)
    result, took_dense = _step_ii_branch(text)
    assert result == step_ii(lines, True)[:2]
    assert took_dense == dense


@pytest.mark.parametrize("text", [
    f"\n{GOOGLE}\nplain.com",            # leading blank line
    f"{GOOGLE}\nplain.com\n",            # trailing blank line
    f"{GOOGLE}\n\nplain.com",            # blank line inside
    "\n",
    "",
    f"{GOOGLE}\n\x1c\n{AMAZON}",         # a line of one ASCII separator
    f"{GOOGLE}\n\x85\n{AMAZON}",         # a line of NEL (non-ASCII whitespace)
    f"{GOOGLE}\n\r\n{AMAZON}",           # a line of one carriage return
    f"{GOOGLE}\r\nplain.com",            # a CR left at a line end
    f"\x1f{GOOGLE}\nplain.com",          # a padded first line
    f"{GOOGLE}\nplain.com\x0b",          # a padded last line
    f"plain.com\n#{GOOGLE}",             # a comment line
    f"{GOOGLE}\nplain.com",              # bare domains: the counted branch
])
def test_step_ii_counts_only_bare_domains(text):
    lines = text.split("\n")
    assert _step_ii(text, True) == step_ii(lines, True)[:2]
    if text.isascii():
        plain = all(line and line == line.strip() and not line.startswith("#")
                    for line in lines)
        assert (_plain_line_count(text) is not None) == plain


# -- chunk cut: the guessed end ------------------------------------------------

def _expected_chunks(path, chunk_size):
    """``(text, raw_lines)`` chunks of the file's lines, as line iteration sees them."""
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        chunks = []
        for chunk in chunked(handle, chunk_size):
            text = "".join(chunk)
            chunks.append((text[:-1] if text.endswith("\n") else text, len(chunk)))
        return chunks


#: Runs of lines whose length changes up to 40x (1 to 200 characters)
#: from one run to the next.
_RUNS = st.lists(st.tuples(st.sampled_from([1, 5, 40, 200]), st.integers(0, 60)),
                 min_size=1, max_size=6)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(runs=_RUNS, chunk_size=st.sampled_from([1, 3, 7, 50]),
       read_chars=st.sampled_from([7, 64, 1 << 18]), final_newline=st.booleans())
def test_file_cut_follows_changing_line_lengths(tmp_path_factory, runs, chunk_size,
                                                read_chars, final_newline):
    # read_chars 7 and 64 put lines longer than a block in the input.
    lines = [str(number % 10) * width
             for number, (width, count) in enumerate(runs) for _ in range(count)]
    text = "\n".join(lines) + ("\n" if final_newline else "")
    path = tmp_path_factory.mktemp("cut") / "in.txt"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch("repro.detection.stream._READ_CHARS", read_chars):
        assert _file_chunks(path, chunk_size) == _expected_chunks(path, chunk_size)


@pytest.mark.parametrize("chunk_size", [1, 2000])
def test_file_cut_across_a_40x_change_of_line_length(tmp_path, chunk_size):
    # Chunks of short lines, then chunks of lines 40x longer, then short
    # again: every guess from the previous chunk is 40x off.
    short, long = "a.com", "b" * 196 + ".com"
    lines = [short] * 5000 + [long] * 5000 + [short] * 5000
    path = tmp_path / "in.txt"
    path.write_text("\n".join(lines), encoding="utf-8")   # no final newline
    chunks = _file_chunks(path, chunk_size)
    assert chunks == _expected_chunks(path, chunk_size)
    assert sum(raw_lines for _text, raw_lines in chunks) == len(lines)

"""Multi-day scans against the memo-free oracle.

Each process that renders scan chunks remembers the outcome of every
candidate it has matched (``repro.detection.stream._process_chunk``), so a
name repeated across the days of a zone input goes through Step III once.
``tests/oracles/scan_memo.py`` is the scan without the memo: every chunk's
candidates through ``ShamFinder.hit_rows`` and ``stream._sink_lines``.  Both
must give the same sink bytes and counters for inputs that repeat names
across chunks and within one, hold undecodable A-labels and
Unicode-spelled lines, send Step III fresh batches on both sides of the
kernel and decode thresholds, fill the memo mid-scan, and are interrupted
and resumed; under one process, fork and spawn.
"""

from __future__ import annotations

import multiprocessing
import random
from contextlib import ExitStack
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from oracles import scan_memo as oracle

from repro.detection import batchfold, stream
from repro.detection.batchfold import MIN_IDN_DECODE_BATCH, MIN_KERNEL_BATCH
from repro.detection.shamfinder import ShamFinder
from repro.detection.stream import StreamingScanner, is_idn_candidate
from repro.homoglyph.database import SOURCE_SIMCHAR, SOURCE_UC, HomoglyphDatabase
from repro.idn.domain import DomainName
from repro.idn.punycode import encode

REFERENCES = ["google.com", "google.net", "amazon.com", "apple.com"]
METHODS = [m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()]

#: Homograph twins (one under a TLD without its reference), an upper-case
#: spelling, a twin below a subdomain, undecodable A-labels, names spelled
#: in Unicode, an ASCII name under an IDN TLD, plain names and lines Step II
#: drops.
_NAMES = [
    DomainName("gоogle.com").ascii, DomainName("gооgle.net").ascii,
    DomainName("gоogle.de").ascii, DomainName("аmаzon.com").ascii,
    DomainName("аpplé.com").ascii, DomainName("gоogle.com").ascii.upper(),
    "mail." + DomainName("аmazon.com").ascii,
    "xn--99999999.com", "xn--abc-.com", "xn--zzzz-!!!.com",
    "gоogle.com", "www.bücher.de", "аpple.com",
    "example.xn--p1ai", "plain.com", "www.site.net", "#" + DomainName("gоogle.com").ascii,
    "# comment", "",
]


def _database() -> HomoglyphDatabase:
    db = HomoglyphDatabase(name="scan-memo-test")
    db.add_pair("o", "о", source=SOURCE_UC)
    db.add_pair("a", "а", source=SOURCE_UC)
    db.add_pair("e", "é", source=SOURCE_SIMCHAR)
    return db


FINDER = ShamFinder(_database())
PREPARED = FINDER.prepare_references(REFERENCES)


class _Recording(ShamFinder):
    """Keeps every batch that reaches Step III (in this process)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.batches: list[list[str]] = []

    def hit_rows(self, candidates, prepared):
        self.batches.append(list(candidates))
        return super().hit_rows(candidates, prepared)


def _counts(stats) -> dict:
    counts = stats.as_dict()
    for field in ("commits", "elapsed_seconds", "resumed_lines", "recovered_drop"):
        del counts[field]
    return counts


def _scan(finder, path, out, chunk_size, **options):
    scanner = StreamingScanner(finder, REFERENCES, chunk_size=chunk_size,
                               prepared=PREPARED, **options)
    return scanner.scan_file(path, out)


def _write(path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _candidates(lines: list[str]) -> list[str]:
    stripped = [line.strip() for line in lines]
    return [name for name in stripped
            if name and not name.startswith("#") and is_idn_candidate(name)]


@st.composite
def _days(draw) -> list[str]:
    """Daily snapshots one after another: a first day drawn from the pool,
    each later day the one before with some lines replaced."""
    day = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=16))
    lines = list(day)
    for _ in range(draw(st.integers(0, 3))):
        day = [draw(st.sampled_from(_NAMES)) if churn else line
               for line, churn in zip(day, draw(st.lists(
                   st.booleans(), min_size=len(day), max_size=len(day))))]
        lines += day
    return lines


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_days(), st.integers(1, 12), st.booleans(), st.one_of(st.none(), st.integers(1, 6)))
@example(_NAMES * 3, 7, True, None)
@example(_NAMES * 3, 5, False, 2)
def test_one_process_scan_equals_the_memo_free_scan(tmp_path, lines, chunk_size, decode_all,
                                                    bound):
    """Sink bytes and counters equal the oracle's, with the batch decoder
    forced on or left at its threshold, and the memo bound at its value or
    small enough that the memo fills mid-scan."""
    path, out = tmp_path / "days.txt", tmp_path / "out.jsonl"
    _write(path, lines)
    expected, counts = oracle.scan(FINDER, PREPARED, lines, chunk_size)
    with ExitStack() as patches:
        if decode_all:
            patches.enter_context(mock.patch.object(batchfold, "MIN_IDN_DECODE_BATCH", 1))
        if bound is not None:
            patches.enter_context(mock.patch.object(stream, "_MEMO_NAMES", bound))
        stats = _scan(FINDER, path, out, chunk_size)
    assert out.read_text(encoding="utf-8") == expected
    assert _counts(stats) == counts


def _population(count: int, rng: random.Random) -> list[str]:
    """*count* distinct A-label names that match nothing."""
    names: set[str] = set()
    while len(names) < count:
        label = "".join(rng.choice("bcdkmnrstuüéñßбвгджк日本語") for _ in range(rng.randint(4, 10)))
        if not label.isascii():
            names.add(f"xn--{encode(label)}.{rng.choice(('com', 'net'))}")
    return sorted(names)


def _zone_days() -> list[str]:
    """Three days of one zone.  Day 1's first chunk (600 lines) holds 320
    distinct A-labels, past the decode threshold; day 2 repeats day 1 with
    four new names, under the kernel threshold; day 3 adds twenty, between
    the two.  Twins, junk and Unicode-spelled lines recur every day."""
    rng = random.Random(20191017)
    population = _population(344, rng)
    day1 = [line for i, name in enumerate(population[:320])
            for line in (name, _NAMES[i % len(_NAMES)] if i % 3 else f"plain{i}.com")]
    day1 += population[320:340]
    day2 = day1[:-4] + population[340:344]
    day3 = day2[:-20] + [f"xn--{encode('日本語' + str(i))}.com" for i in range(20)]
    return day1 + day2 + day3


def test_fresh_batches_fall_on_both_sides_of_the_thresholds(tmp_path):
    """Each distinct candidate reaches Step III once per scan, in batches
    under ``MIN_KERNEL_BATCH``, between it and ``MIN_IDN_DECODE_BATCH``,
    and past both, and the sink is the oracle's."""
    lines = _zone_days()
    path, out = tmp_path / "days.txt", tmp_path / "out.jsonl"
    _write(path, lines)
    expected, counts = oracle.scan(FINDER, PREPARED, lines, 600)
    finder = _Recording(_database())
    stats = _scan(finder, path, out, 600)
    assert out.read_text(encoding="utf-8") == expected and expected
    assert _counts(stats) == counts
    assert counts["skipped_count"] > 0
    sizes = [len(batch) for batch in finder.batches]
    assert any(size >= MIN_IDN_DECODE_BATCH for size in sizes)
    assert any(MIN_KERNEL_BATCH <= size < MIN_IDN_DECODE_BATCH for size in sizes)
    assert any(0 < size < MIN_KERNEL_BATCH for size in sizes)
    sent = [name for batch in finder.batches for name in batch]
    assert sorted(sent) == sorted(set(_candidates(lines)))


def test_a_full_memo_keeps_its_names_and_sends_the_rest_again(tmp_path):
    """With the bound at the first chunk's candidates, below one day's,
    those names fill the memo and never reach Step III again; the names
    that found it full do, every day, and the sink does not change."""
    lines = _zone_days()
    path, out = tmp_path / "days.txt", tmp_path / "out.jsonl"
    _write(path, lines)
    expected, counts = oracle.scan(FINDER, PREPARED, lines, 200)
    finder = _Recording(_database())
    first = set(_candidates(lines[:200]))
    assert len(first) < len(set(_candidates(lines[:400])))
    with mock.patch.object(stream, "_MEMO_NAMES", len(first)):
        stats = _scan(finder, path, out, 200)
    assert out.read_text(encoding="utf-8") == expected
    assert _counts(stats) == counts
    sent = [name for batch in finder.batches for name in batch]
    assert sorted(finder.batches[0]) == sorted(first)
    assert first.isdisjoint(name for batch in finder.batches[1:] for name in batch)
    assert len(sent) > len(set(sent)) == len(set(_candidates(lines)))


@pytest.mark.parametrize("method, bound", [(m, None) for m in METHODS]
                         + [("fork", 150)] * ("fork" in METHODS))
def test_worker_scans_equal_the_memo_free_scan(tmp_path, method, bound):
    """Two workers, each with its own memo, give the oracle's sink and
    counters.  A patched bound reaches fork children only (spawn children
    import the module afresh), so the small bound runs under fork."""
    lines = _zone_days()
    path, out = tmp_path / "days.txt", tmp_path / "out.jsonl"
    _write(path, lines)
    expected, counts = oracle.scan(FINDER, PREPARED, lines, 100)
    with ExitStack() as patches:
        if bound is not None:
            patches.enter_context(mock.patch.object(stream, "_MEMO_NAMES", bound))
        stats = _scan(FINDER, path, out, 100, jobs=2, start_method=method)
    assert out.read_text(encoding="utf-8") == expected
    assert _counts(stats) == counts


class _Interrupted(Exception):
    pass


def _interrupt_after(chunks: int):
    def progress(stats) -> None:
        if stats.chunks_done >= chunks:
            raise _Interrupted
    return progress


@pytest.mark.parametrize("jobs, method", [(1, None)] + [(2, m) for m in METHODS])
def test_an_interrupted_scan_resumes_to_the_memo_free_sink(tmp_path, jobs, method):
    """A resumed scan starts with an empty memo and ends byte-identical."""
    lines = _zone_days()
    path, out = tmp_path / "days.txt", tmp_path / "out.jsonl"
    _write(path, lines)
    expected, counts = oracle.scan(FINDER, PREPARED, lines, 100)
    scanner = StreamingScanner(FINDER, REFERENCES, chunk_size=100, prepared=PREPARED,
                               jobs=jobs, start_method=method)
    with pytest.raises(_Interrupted):
        scanner.scan_file(path, out, progress=_interrupt_after(7))
    stats = scanner.scan_file(path, out, resume=True)
    assert stats.resumed_lines > 0
    assert out.read_text(encoding="utf-8") == expected
    assert _counts(stats) == counts

"""Crash consistency of every durable artifact kind (repro/durable.py).

A crash can stop a writer at any byte.  For each artifact kind this suite
cuts the file at every byte offset (and, where a checksum covers the
body, flips every byte) and asserts that the reader's outcome is one of:

* a **miss** — the store returns ``None`` and the caller rebuilds;
* a **refusal** — resume raises the kind's resume error and leaves the
  file untouched;
* a **resume** that ends byte-identical to an uninterrupted run.

Never different data.  The checkpoint literals below are the exact bytes
the pre-``durable`` code wrote, pinning the on-disk formats.
"""

from __future__ import annotations

import os
from collections import deque
from unittest import mock

import numpy as np
import pytest

from repro.detection import stream
from repro.detection.batchfold import FoldTable
from repro.detection.index import (
    ReferenceIndexStore,
    build_reference_index,
    cached_reference_index,
    key_for,
)
from repro.detection.shamfinder import ShamFinder
from repro.detection.stream import ScanCheckpoint, ScanResumeError, StreamingScanner
from repro.durable import atomic_write
from repro.homoglyph.cache import SimCharCache, cached_build, key_for_builder
from repro.homoglyph.database import SOURCE_UC, HomoglyphDatabase
from repro.homoglyph.simchar import SimCharBuilder
from repro.idn.domain import DomainName
from repro.measurement.longitudinal import LongitudinalTracker, TrackCheckpoint, TrackResumeError
from repro.measurement.pipeline import (
    DetectionSummary,
    PipelineRunner,
    StageCheckpoint,
    StageResumeError,
)
from repro.measurement.results import StudyResults

REFERENCES = ["google.com", "amazon.com", "apple.com"]
GOOGLE = DomainName("gоogle.com").ascii
AMAZON = DomainName("аmаzon.com").ascii


@pytest.fixture(scope="module")
def finder():
    db = HomoglyphDatabase()
    db.add_pair("o", "о", source=SOURCE_UC)
    db.add_pair("a", "а", source=SOURCE_UC)
    return ShamFinder(db)


class _Killed(Exception):
    pass


# -- atomic_write -------------------------------------------------------------


def test_atomic_write_replaces_with_bytes_or_chunks(tmp_path):
    path = tmp_path / "artifact.bin"
    atomic_write(path, b"first")
    assert path.read_bytes() == b"first"
    atomic_write(path, [b"sec", b"ond"])
    assert path.read_bytes() == b"second"
    assert os.listdir(tmp_path) == ["artifact.bin"]


def test_exception_mid_write_keeps_old_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "artifact.bin"
    path.write_bytes(b"old")

    def chunks():
        yield b"new-half"
        raise _Killed

    with pytest.raises(_Killed):
        atomic_write(path, chunks())
    assert path.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["artifact.bin"]


def test_failed_rename_leaves_no_temp(tmp_path):
    target = tmp_path / "occupied"
    target.mkdir()
    (target / "child").write_bytes(b"")
    with pytest.raises(OSError):
        atomic_write(target, b"data")
    assert sorted(os.listdir(tmp_path)) == ["occupied"]


# -- checkpoint formats ---------------------------------------------------------


PARENT_FORMAT_CHECKPOINTS = [
    (
        ScanCheckpoint(lines_done=12, chunks_done=3, detections_written=5, domains_seen=11,
                       idn_count=6, skipped_count=1, input_fingerprint="0123456789abcdef"),
        '{"chunks_done": 3, "detections_written": 5, "domains_seen": 11, "idn_count": 6, '
        '"input_fingerprint": "0123456789abcdef", "lines_done": 12, "skipped_count": 1, '
        '"version": 1}',
    ),
    (
        StageCheckpoint(stage="dns", batches_done=2, batch_count=3, records_written=8,
                        input_fingerprint="fedcba9876543210", complete=False),
        '{"batch_count": 3, "batches_done": 2, "complete": false, "input_fingerprint": '
        '"fedcba9876543210", "records_written": 8, "stage": "dns", "version": 1}',
    ),
    (
        TrackCheckpoint(events_written=4, days_done=2, last_date="2019-05-02",
                        last_snapshot_fingerprint="00112233aabbccdd",
                        reference_fingerprint="8899aabbccddeeff",
                        idn_delegations={"xn--ggle-55da.com": ["ns1.a.net"],
                                         "xn--fiqs8s.com": ["ns1.cn.example", "ns2.cn.example"]}),
        '{"days_done":2,"events_written":4,"idn_delegations":{"xn--fiqs8s.com":'
        '["ns1.cn.example","ns2.cn.example"],"xn--ggle-55da.com":["ns1.a.net"]},'
        '"last_date":"2019-05-02","last_snapshot_fingerprint":"00112233aabbccdd",'
        '"reference_fingerprint":"8899aabbccddeeff","version":1}',
    ),
]


@pytest.mark.parametrize("checkpoint,text", PARENT_FORMAT_CHECKPOINTS,
                         ids=["scan", "stage", "track"])
def test_checkpoint_bytes_match_the_established_format(tmp_path, checkpoint, text):
    path = tmp_path / "cp"
    path.write_text(text, encoding="utf-8")
    assert type(checkpoint).load(path) == checkpoint
    checkpoint.save(path)
    assert path.read_text(encoding="utf-8") == text


@pytest.mark.parametrize("checkpoint,text", PARENT_FORMAT_CHECKPOINTS,
                         ids=["scan", "stage", "track"])
def test_truncated_checkpoint_reads_as_missing(tmp_path, checkpoint, text):
    path = tmp_path / "cp"
    for cut in range(len(text)):
        path.write_text(text[:cut], encoding="utf-8")
        assert type(checkpoint).load(path) is None, cut


# -- checkpointed logs -----------------------------------------------------------


def _crash_points(run, checkpoint_path):
    """Run to completion, capturing the checkpoint after every commit.

    Returns the run's result and every checkpoint the run left on disk,
    ``None`` first: a crash before the first commit.
    """
    checkpoints: list[bytes | None] = [None]

    def capture(*_progress) -> None:
        checkpoints.append(checkpoint_path.read_bytes())

    return run(capture), checkpoints


def _assert_every_cut_resumes_or_refuses(log_path, checkpoint_path, checkpoints, resume,
                                         error):
    """Cut the log at every offset under every checkpoint, then resume.

    *resume* must raise *error* with the log untouched, or finish with
    the log and checkpoint byte-identical to the uninterrupted run's.
    """
    full = log_path.read_bytes()
    final_checkpoint = checkpoint_path.read_bytes()
    refused = resumed = 0
    for checkpoint in checkpoints:
        for cut in range(len(full) + 1):
            log_path.write_bytes(full[:cut])
            if checkpoint is None:
                checkpoint_path.unlink(missing_ok=True)
            else:
                checkpoint_path.write_bytes(checkpoint)
            try:
                resume()
            except error:
                assert log_path.read_bytes() == full[:cut], "a refusal modified the log"
                refused += 1
                continue
            assert log_path.read_bytes() == full, (checkpoint, cut)
            assert checkpoint_path.read_bytes() == final_checkpoint, (checkpoint, cut)
            resumed += 1
    assert refused and resumed           # both outcomes were exercised


def test_scan_sink_cut_at_every_offset(finder, tmp_path):
    lines = [GOOGLE, "plain0.com", AMAZON, "xn--zzzz-!!!.com", "plain1.com",
             GOOGLE, "plain2.com", AMAZON]
    corpus = tmp_path / "domains.txt"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    checkpoint_path = tmp_path / "out.jsonl.checkpoint"
    scanner = StreamingScanner(finder, REFERENCES, chunk_size=3)
    full_stats, checkpoints = _crash_points(
        lambda capture: scanner.scan_file(corpus, out, progress=capture), checkpoint_path)
    assert full_stats.detection_count == 4

    def resume():
        stats = scanner.scan_file(corpus, out, resume=True)
        assert stats.detection_count == full_stats.detection_count
        assert stats.lines_done == full_stats.lines_done

    _assert_every_cut_resumes_or_refuses(out, checkpoint_path, checkpoints, resume,
                                         ScanResumeError)


class _FallBehind:
    """A scan's worker results, held back until :meth:`catch_up`.

    Before ``catch_up`` only iteration (a blocking wait for the next
    result) returns a result; ``drain()`` finds nothing ready.
    ``catch_up`` waits for every remaining result, so from then on all of
    them are ready at once: the parent has fallen behind its workers,
    whatever the host's timing.  ``returned`` records every result handed
    to the scan, in order.
    """

    def __init__(self, workers):
        self._workers = workers
        self._ready: deque = deque()
        self._caught_up = False
        self.returned: list = []

    def __iter__(self):
        return self

    def __next__(self):
        if self._ready:
            result = self._ready.popleft()
        elif self._caught_up:
            raise StopIteration
        else:
            result = next(self._workers)
        self.returned.append(result)
        return result

    def drain(self):
        ready, self._ready = list(self._ready), deque()
        self.returned.extend(ready)
        return ready

    def close(self):
        self._workers.close()

    def catch_up(self) -> None:
        self._ready.extend(self._workers)


def test_coalesced_scan_commits_are_crash_safe(finder, tmp_path):
    # A pool scan whose parent falls behind its workers (its first progress
    # call waits for every chunk result) commits every ready chunk at once:
    # fewer commits than chunks, the same final sink and checkpoint as one
    # worker, and every checkpoint it left resumes or refuses cleanly.
    lines = [GOOGLE, "plain0.com", AMAZON, "xn--zzzz-!!!.com", "plain1.com",
             GOOGLE, "plain2.com", AMAZON, "# comment", "", GOOGLE]
    corpus = tmp_path / "domains.txt"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    serial_out = tmp_path / "serial.jsonl"
    serial = StreamingScanner(finder, REFERENCES, chunk_size=2)
    serial_stats = serial.scan_file(corpus, serial_out)
    out = tmp_path / "out.jsonl"
    checkpoint_path = tmp_path / "out.jsonl.checkpoint"
    pooled = StreamingScanner(finder, REFERENCES, chunk_size=2, jobs=2)
    held: list[_FallBehind] = []
    start_workers = stream._ScanWorkers

    def held_workers(*args, **kwargs):
        held.append(_FallBehind(start_workers(*args, **kwargs)))
        return held[-1]

    def run(capture):
        def fall_behind(stats):
            if stats.commits == 1:
                held[-1].catch_up()
            capture()
        with mock.patch.object(stream, "_ScanWorkers", held_workers):
            return pooled.scan_file(corpus, out, progress=fall_behind)

    stats, checkpoints = _crash_points(run, checkpoint_path)
    assert stats.chunks_done == serial_stats.chunks_done == 6
    # One commit for the first chunk, one for the five that were ready.
    assert stats.commits == 2
    assert serial_stats.commits == serial_stats.chunks_done
    assert out.read_bytes() == serial_out.read_bytes()
    assert checkpoint_path.read_bytes() == (tmp_path / "serial.jsonl.checkpoint").read_bytes()
    assert len(checkpoints) == stats.commits + 1
    # Each worker result carries its chunk's sink lines as text, which the
    # parent writes as they are; its detection count is that text's lines.
    returned = held[-1].returned
    assert len(returned) == stats.chunks_done
    assert all(isinstance(result[0], str) for result in returned)
    assert "".join(result[0] for result in returned).encode("utf-8") == out.read_bytes()
    assert [result[1] for result in returned] == [result[0].count("\n") for result in returned]

    def resume():
        assert serial.scan_file(corpus, out, resume=True).lines_done == len(lines)

    _assert_every_cut_resumes_or_refuses(out, checkpoint_path, checkpoints, resume,
                                         ScanResumeError)


class _AddOneStage:
    dependencies = ()
    batchable = True

    def __init__(self):
        self.name = "a"
        self.records = None

    def prepare(self, context):
        return list(range(10))

    def enrich(self, batch):
        return [{"value": value + 1} for value in batch]

    def finalize(self, context, records):
        self.records = records


def test_stage_sink_cut_at_every_offset(tmp_path):
    def run(*, resume=False, progress=None):
        stage = _AddOneStage()
        PipelineRunner([stage], batch_size=3, output_dir=tmp_path, resume=resume).run(
            DetectionSummary(), StudyResults(), progress=progress)
        return stage.records

    expected, checkpoints = _crash_points(
        lambda capture: run(progress=capture), tmp_path / "stage_a.jsonl.checkpoint")
    assert expected == [{"value": value + 1} for value in range(10)]

    def resume():
        assert run(resume=True) == expected

    _assert_every_cut_resumes_or_refuses(
        tmp_path / "stage_a.jsonl", tmp_path / "stage_a.jsonl.checkpoint", checkpoints,
        resume, StageResumeError)


def _snapshot(tmp_path, date, domains):
    path = tmp_path / f"{date}.zone"
    path.write_text("".join(f"{domain}.\t172800\tIN\tNS\tns1.host.net.\n"
                            for domain in domains), encoding="utf-8")
    return date, path


def test_timeline_cut_at_every_offset(finder, tmp_path):
    snapshots = [
        _snapshot(tmp_path, "2019-05-01", ["plain.com", GOOGLE]),
        _snapshot(tmp_path, "2019-05-02", ["plain.com", GOOGLE, AMAZON]),
        _snapshot(tmp_path, "2019-05-03", ["plain.com", AMAZON]),
    ]
    tracker = LongitudinalTracker(finder, REFERENCES, tmp_path / "state", chunk_size=2)
    full, checkpoints = _crash_points(
        lambda capture: tracker.track(snapshots, progress=capture), tracker.checkpoint_path)

    def resume():
        result = tracker.track(snapshots, resume=True)
        assert result.timeline.events == full.timeline.events

    _assert_every_cut_resumes_or_refuses(
        tracker.timeline_path, tracker.checkpoint_path, checkpoints, resume,
        TrackResumeError)


# -- whole-file stores ----------------------------------------------------------


def _cuts_and_flips(raw: bytes):
    """Every truncation of *raw*, then *raw* with each byte flipped."""
    for cut in range(len(raw)):
        yield raw[:cut]
    for position in range(len(raw)):
        yield raw[:position] + bytes([raw[position] ^ 0x01]) + raw[position + 1:]


def test_simchar_cache_cut_at_every_offset(font, tmp_path):
    builder = SimCharBuilder(font, repertoire=[ord(ch) for ch in "aoe"] + [0x0430, 0x043E],
                             jobs=1)
    cache = SimCharCache(tmp_path)
    built, hit = cached_build(builder, cache)
    assert not hit and built.database.pair_count
    key = key_for_builder(builder)
    path = cache.path_for(key)
    full = path.read_bytes()
    for damaged in _cuts_and_flips(full):
        path.write_bytes(damaged)
        loaded = cache.load(key)
        assert loaded is None or loaded.database.to_json() == built.database.to_json()

    path.write_bytes(full[: len(full) // 2])
    rebuilt, hit = cached_build(builder, cache)
    assert not hit and rebuilt.database.to_json() == built.database.to_json()
    assert path.read_bytes() == full


def test_simchar_memos_cut_or_flipped_at_every_offset(font, tmp_path):
    builder = SimCharBuilder(font, repertoire=[ord(ch) for ch in "aoe"] + [0x0430, 0x043E],
                             jobs=1)
    finder = ShamFinder.with_default_databases(simchar_builder=builder, cache_dir=tmp_path)
    digest = finder.database.content_digest()
    cache = SimCharCache(tmp_path)
    key_memo_path, = tmp_path.glob("simchar-key-*.json")
    union_memo_path, = tmp_path.glob("simchar-union-*.json")
    key_memo = key_memo_path.stem.removeprefix("simchar-key-")
    union_memo = union_memo_path.stem.removeprefix("simchar-union-")
    memos = [(key_memo_path, lambda: cache.load_key_memo(key_memo), key_for_builder(builder)),
             (union_memo_path, lambda: cache.load_union_memo(union_memo), digest)]
    intact = {path: path.read_bytes() for path, _read, _expected in memos}
    for path, read, expected in memos:
        for damaged in _cuts_and_flips(intact[path]):
            path.write_bytes(damaged)
            assert read() in (None, expected)
        path.write_bytes(intact[path][: len(intact[path]) // 2])

    rebuilt = ShamFinder.with_default_databases(simchar_builder=builder, cache_dir=tmp_path)
    assert rebuilt.database.content_digest() == digest
    assert all(path.read_bytes() == full for path, full in intact.items())   # rewritten


def _index_content(prepared):
    # What verdicts read, plus the reported domain_count: the checksum
    # covers every header field, not only the body.
    labels = {label: prepared.labels.get(label) for label in prepared.labels}
    return labels, sorted(prepared.index.buckets()), prepared.domain_count


def test_reference_index_cut_or_flipped_at_every_offset(finder, tmp_path):
    store = ReferenceIndexStore(tmp_path)
    built = build_reference_index(finder, REFERENCES)
    path = store.store(built)
    expected = _index_content(built.prepared)
    full = path.read_bytes()
    for damaged in _cuts_and_flips(full):
        path.write_bytes(damaged)
        mapped = store.load_mmap(built.key, finder, verify=True)
        if mapped is not None:
            assert _index_content(mapped.prepared) == expected
            mapped.prepared.close()

    path.write_bytes(full[: len(full) // 2])
    rebuilt, hit = cached_reference_index(finder, REFERENCES, store)
    assert not hit and rebuilt.mapped and _index_content(rebuilt.prepared) == expected
    rebuilt.prepared.close()
    assert path.read_bytes() == full
    assert key_for(finder, REFERENCES) == built.key


def test_fold_table_cut_or_flipped_at_every_offset(finder, tmp_path):
    digest = finder.database.content_digest()
    built = FoldTable.build(finder.matcher.classes, database_digest=digest)
    arrays = ("keys", "values", "fold_keys", "fold_values", "unsafe")
    # A few real rows of each array keep the every-byte loop fast; the
    # format does not depend on the row count.
    table = FoldTable(*(getattr(built, name)[:4] for name in arrays), digest)
    path = table.save(tmp_path / "foldtable.bin")
    for damaged in _cuts_and_flips(path.read_bytes()):
        path.write_bytes(damaged)
        loaded = FoldTable.load(path, database_digest=digest)
        if loaded is not None:
            for name in arrays:
                assert np.array_equal(getattr(loaded, name), getattr(table, name)), name

"""Scan worker processes under every start method and every failure.

``StreamingScanner`` with ``jobs > 1`` drives its worker processes from the
calling thread (``repro.detection.stream._ScanWorkers``).  Each test names
the outcome it pins:

* every start method: the ``jobs=2`` sink and counters equal ``jobs=1``'s,
  also with an mmap-attached index (spawn and forkserver re-attach it),
  and on IDN-dense chunks whose sink lines the workers render; an index
  held in memory (pickled with its bytes) and a stored one (pickled as
  its path) give the same sink under one process, fork and spawn;
  ``scan_to_report`` still returns detection objects;
* the fold table: a scan builds it once, in the parent, under every
  start method;
* an exception inside a worker's chunk: re-raised with its own type, also
  from a chunk that follows ones the worker answered from its memo;
* a worker that cannot attach the index: its own ``RuntimeError`` text;
* a worker killed mid-scan: ``scan`` exits non-zero with one stderr line
  naming the exit status and ``--resume``, and the resumed scan ends with
  the uninterrupted sink;
* the parent killed mid-scan: every worker exits.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest

from repro.cli import main
from repro.detection.batchfold import FoldTable
from repro.detection.index import ReferenceIndexStore, cached_reference_index
from repro.detection.report import HomographDetection
from repro.detection.shamfinder import ShamFinder
from repro.detection.stream import StreamingScanner, is_idn_candidate, read_sink
from repro.homoglyph.database import SOURCE_UC, HomoglyphDatabase
from repro.idn.domain import DomainName
from repro.idn.punycode import encode

REFERENCES = ["google.com", "amazon.com"]
GOOGLE = DomainName("gоogle.com").ascii
AMAZON = DomainName("аmаzon.com").ascii
METHODS = multiprocessing.get_all_start_methods()
#: Seconds a scan gets to end after one of its processes is killed.
EXIT_BOUND_S = 20.0

needs_proc = pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                                reason="reads process trees from /proc")


def _database() -> HomoglyphDatabase:
    db = HomoglyphDatabase()
    db.add_pair("o", "о", source=SOURCE_UC)
    db.add_pair("a", "а", source=SOURCE_UC)
    return db


@pytest.fixture(scope="module")
def finder():
    return ShamFinder(_database())


def _write_zone(path: Path, count: int) -> Path:
    lines = [GOOGLE if i % 9 == 0 else AMAZON if i % 9 == 4 else f"plain{i}.com"
             for i in range(count)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _attached_index(finder, directory: Path):
    store = ReferenceIndexStore(directory)
    built, _hit = cached_reference_index(finder, REFERENCES, store)
    index = store.load_path(store.path_for(built.key), finder)
    assert index is not None and index.prepared.path is not None
    return index


def _counts(stats) -> dict:
    counts = stats.as_dict()
    del counts["commits"], counts["elapsed_seconds"]
    return counts


class _ChunkFailure(ValueError):
    pass


class _FailingFinder(ShamFinder):
    """Raises inside Step III of the first chunk holding a candidate."""

    def hit_rows(self, candidates, prepared):
        if candidates:
            raise _ChunkFailure(f"cannot match {candidates[0]}")
        return super().hit_rows(candidates, prepared)


LATE = DomainName("lаte.com").ascii


class _RepeatedName(AssertionError):
    pass


class _LateFailingFinder(ShamFinder):
    """Raises inside Step III of the chunk holding :data:`LATE`, and on any
    name this process already sent to Step III (the worker's memo answers
    those)."""

    def hit_rows(self, candidates, prepared):
        seen = self.__dict__.setdefault("seen", set())
        repeated = seen.intersection(candidates)
        if repeated:
            raise _RepeatedName(f"{sorted(repeated)} reached Step III twice")
        seen.update(candidates)
        if LATE in candidates:
            raise _ChunkFailure(f"cannot match {LATE}")
        return super().hit_rows(candidates, prepared)


# -- every start method -------------------------------------------------------

@pytest.mark.parametrize("method", METHODS)
def test_workers_equal_one_process_under_every_start_method(finder, tmp_path, method):
    index = _attached_index(finder, tmp_path / "index")
    corpus = _write_zone(tmp_path / "zone.txt", 400)
    serial = StreamingScanner(finder, REFERENCES, chunk_size=25, prepared=index.prepared)
    serial_stats = serial.scan_file(corpus, tmp_path / "one.jsonl")
    workers = StreamingScanner(finder, REFERENCES, chunk_size=25, jobs=2,
                               prepared=index.prepared, start_method=method)
    stats = workers.scan_file(corpus, tmp_path / "two.jsonl")
    assert (tmp_path / "two.jsonl").read_bytes() == (tmp_path / "one.jsonl").read_bytes()
    assert _counts(stats) == _counts(serial_stats)
    assert stats.detection_count > 0


def test_in_memory_and_stored_indexes_give_one_sink_under_fork_and_spawn(finder, tmp_path):
    in_memory = cached_reference_index(finder, REFERENCES, None)[0].prepared
    stored = _attached_index(finder, tmp_path / "index").prepared
    assert in_memory.path is None and stored.path is not None
    corpus = _write_zone(tmp_path / "zone.txt", 400)
    runs = [(1, None)] + [(2, method) for method in ("fork", "spawn") if method in METHODS]
    sinks = {}
    for name, prepared in (("in-memory", in_memory), ("stored", stored)):
        for jobs, method in runs:
            out = tmp_path / f"{name}-{jobs}-{method}.jsonl"
            StreamingScanner(finder, REFERENCES, chunk_size=25, jobs=jobs, prepared=prepared,
                             start_method=method).scan_file(corpus, out)
            sinks[out.name] = out.read_bytes()
    assert sinks["stored-1-None.jsonl"].count(b"\n") > 0   # detections were written
    assert len(sinks) == 2 * len(runs) and len(set(sinks.values())) == 1


def _write_idn_zone(path: Path, count: int) -> Path:
    """A zone dense enough in IDNs that every chunk of 600 lines runs the
    batch kernel and its A-label decoder: bucket hits among decoded misses,
    an undecodable payload and plain names."""
    lines = []
    for i in range(count):
        if i % 2:
            lines.append(f"plain{i}.com")
        elif i % 14 == 0:
            lines.append(GOOGLE if i % 28 else "www." + AMAZON)
        elif i % 50 == 0:
            lines.append("xn--99999999.com")
        else:
            lines.append(f"xn--{encode(f'bénin{i}')}.com")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("attached", [False, True], ids=["in-memory", "mmap"])
@pytest.mark.parametrize("method", METHODS)
def test_worker_rendered_sink_is_byte_identical(finder, tmp_path, method, attached):
    # Workers hand back each chunk's sink lines as text; the sink, its line
    # count and every counter must be those of one process rendering them.
    prepared = _attached_index(finder, tmp_path / "index").prepared if attached else None
    corpus = _write_idn_zone(tmp_path / "zone.txt", 2400)
    serial = StreamingScanner(finder, REFERENCES, chunk_size=600, prepared=prepared)
    serial_stats = serial.scan_file(corpus, tmp_path / "one.jsonl")
    workers = StreamingScanner(finder, REFERENCES, chunk_size=600, jobs=2,
                               prepared=prepared, start_method=method)
    stats = workers.scan_file(corpus, tmp_path / "two.jsonl")
    sink = (tmp_path / "two.jsonl").read_bytes()
    assert sink == (tmp_path / "one.jsonl").read_bytes()
    assert _counts(stats) == _counts(serial_stats)
    assert stats.detection_count == sink.count(b"\n") == len(read_sink(tmp_path / "two.jsonl"))
    assert stats.detection_count > 0 and stats.skipped_count > 0


@pytest.mark.parametrize("method", METHODS)
def test_scan_to_report_returns_the_detections_of_detect_prepared(finder, tmp_path, method):
    corpus = _write_idn_zone(tmp_path / "zone.txt", 1200)
    domains = corpus.read_text(encoding="utf-8").splitlines()
    expected, idn_count, skipped = finder.detect_prepared(
        list(filter(is_idn_candidate, domains)), finder.prepare_references(REFERENCES))
    scanner = StreamingScanner(finder, REFERENCES, chunk_size=600, jobs=2, start_method=method)
    report, stats = scanner.scan_to_report(domains)
    assert all(isinstance(detection, HomographDetection) for detection in report)
    assert report.detections == expected
    assert (stats.detection_count, stats.idn_count, stats.skipped_count) == (
        len(expected), idn_count, skipped)


def _counting_build(calls: Path) -> classmethod:
    """``FoldTable.build`` that also appends its process id to *calls*."""
    build = FoldTable.build.__func__

    def counting_build(cls, *args, **kwargs):
        with open(calls, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return build(cls, *args, **kwargs)
    return classmethod(counting_build)


class _BuildCountingFinder(ShamFinder):
    """A finder whose unpickled copies (spawn and forkserver workers)
    count their process's ``FoldTable.build`` calls into ``calls``."""

    def __init__(self, database, calls: Path) -> None:
        super().__init__(database)
        self.calls = calls

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        FoldTable.build = _counting_build(self.calls)


@pytest.mark.parametrize("attached", [False, True], ids=["in-memory", "mmap"])
@pytest.mark.parametrize("method", METHODS)
def test_a_scan_builds_the_fold_table_once(tmp_path, method, attached):
    # The parent builds the batch kernel before its workers start; they
    # inherit it or receive its table, instead of each re-running the
    # full-code-space scan.
    calls = tmp_path / "builds"
    finder = _BuildCountingFinder(_database(), calls)    # no table memoized yet
    prepared = _attached_index(finder, tmp_path / "index").prepared if attached else None
    corpus = _write_idn_zone(tmp_path / "zone.txt", 2400)
    scanner = StreamingScanner(finder, REFERENCES, chunk_size=600, jobs=2,
                               prepared=prepared, start_method=method)
    with mock.patch.object(FoldTable, "build", _counting_build(calls)):
        stats = scanner.scan_file(corpus, tmp_path / "out.jsonl")
    assert stats.chunks_done == 4 and stats.detection_count > 0
    assert calls.read_text().split() == [str(os.getpid())]
    if attached:
        # The table's sidecar now sits next to the index for later runs.
        assert list((tmp_path / "index").glob("foldtable-*.bin"))


# -- failures inside a worker ---------------------------------------------------

@pytest.mark.parametrize("method", METHODS)
def test_worker_exception_is_reraised_with_its_type(tmp_path, method):
    corpus = _write_zone(tmp_path / "zone.txt", 100)
    scanner = StreamingScanner(_FailingFinder(_database()), REFERENCES, chunk_size=10,
                               jobs=2, start_method=method)
    with pytest.raises(_ChunkFailure, match="cannot match"):
        scanner.scan_file(corpus, tmp_path / "out.jsonl")


@pytest.mark.parametrize("method", METHODS)
def test_worker_exception_after_its_memo_filled_is_reraised(tmp_path, method):
    # Every chunk of the zone holds the same two twins, so after its first
    # chunk a worker answers them from its memo; the last chunk's fresh
    # name then fails inside Step III.
    corpus = _write_zone(tmp_path / "zone.txt", 100)
    with open(corpus, "a", encoding="utf-8") as handle:
        handle.write(LATE + "\n")
    scanner = StreamingScanner(_LateFailingFinder(_database()), REFERENCES, chunk_size=10,
                               jobs=2, start_method=method)
    with pytest.raises(_ChunkFailure, match=f"cannot match {LATE}"):
        scanner.scan_file(corpus, tmp_path / "out.jsonl")


@pytest.mark.parametrize("padding", [0, 100_000])
@pytest.mark.parametrize("method", [m for m in METHODS if m != "fork"])
def test_worker_start_up_failure_reaches_the_caller(finder, tmp_path, method, padding):
    # Spawn and forkserver workers re-attach the index from its file; with
    # the file gone, the worker's own error must surface, not a hang or a
    # broken pipe.  Padded lines make each chunk larger than a pipe holds,
    # so the parent is still sending when the worker gives up.
    index = _attached_index(finder, tmp_path / "index")
    os.unlink(index.prepared.path)
    corpus = tmp_path / "zone.txt"
    corpus.write_text("".join(f"plain{i}.com{' ' * padding}\n" for i in range(100)))
    scanner = StreamingScanner(finder, REFERENCES, chunk_size=10, jobs=2,
                               prepared=index.prepared, start_method=method)
    with pytest.raises(RuntimeError, match="could not attach reference index"):
        scanner.scan_file(corpus, tmp_path / "out.jsonl")


def test_a_parent_that_falls_behind_commits_every_ready_result(finder, tmp_path):
    # The first commit's progress call stalls the parent until the later
    # chunks are long done; the next commit takes all of them.  (The first
    # commit may already hold every chunk if the workers were that quick.)
    corpus = _write_zone(tmp_path / "zone.txt", 12)
    scanner = StreamingScanner(finder, REFERENCES, chunk_size=2, jobs=2)
    committed = []

    def stall(stats):
        committed.append(stats.chunks_done)
        if stats.commits == 1:
            time.sleep(1.5)

    stats = scanner.scan_file(corpus, tmp_path / "out.jsonl", progress=stall)
    assert stats.chunks_done == committed[-1] == 6
    assert len(committed) <= 2


# -- killed processes ---------------------------------------------------------

#: Runs the ``scan`` CLI under a given start method, with every commit
#: slowed so the scan is still running when the test kills a process.
_SLOW_SCAN = """
import multiprocessing, sys, time
from repro.durable import CheckpointedLog
commit = CheckpointedLog.commit
def slow_commit(self, *args):
    commit(self, *args)
    time.sleep(0.05)
CheckpointedLog.commit = slow_commit
multiprocessing.set_start_method(sys.argv[1])
from repro.cli import main
raise SystemExit(main(sys.argv[2:]))
"""


def _stat(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name, or None."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return None


def _descendants(pid: int) -> dict[int, int]:
    """``{pid: parent pid}`` of every live process below *pid*."""
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat(int(entry))
            if fields is not None:
                parents[int(entry)] = int(fields[1])
    found: dict[int, int] = {}
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        for child, ppid in parents.items():
            if ppid == parent and child not in found:
                found[child] = ppid
                frontier.append(child)
    return found


def _workers(pid: int) -> list[int]:
    """The scan workers below *pid*: leaves that are not the resource tracker."""
    tree = _descendants(pid)
    workers = []
    for child in tree:
        if child in tree.values():
            continue                    # the forkserver: it has the workers below it
        try:
            cmdline = Path(f"/proc/{child}/cmdline").read_bytes()
        except OSError:
            continue
        if b"resource_tracker" not in cmdline:
            workers.append(child)
    return workers


def _exited(pid: int) -> bool:
    fields = _stat(pid)
    return fields is None or fields[0] in ("Z", "X")


def _start_slow_scan(tmp_path: Path, union_db, corpus: Path, out: Path):
    db_path = tmp_path / "db.json"
    union_db.save(db_path)
    argv = [sys.executable, "-c", _SLOW_SCAN, multiprocessing.get_start_method(),
            "scan", "-i", str(corpus), "-o", str(out), "--reference", *REFERENCES,
            "--database", str(db_path), "--chunk-size", "50", "--jobs", "2"]
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    process = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    checkpoint = out.with_name(out.name + ".checkpoint")
    deadline = time.monotonic() + EXIT_BOUND_S
    workers: list[int] = []
    while len(workers) < 2 or not checkpoint.exists():
        assert process.poll() is None, process.communicate()
        assert time.monotonic() < deadline, "the scan never committed a chunk"
        time.sleep(0.01)
        workers = _workers(process.pid)
    return process, workers


@needs_proc
def test_killed_worker_fails_the_scan_and_resume_finishes_it(tmp_path, union_db, capsys):
    corpus = _write_zone(tmp_path / "zone.txt", 30_000)
    out = tmp_path / "out.jsonl"
    process, workers = _start_slow_scan(tmp_path, union_db, corpus, out)
    os.kill(workers[0], signal.SIGKILL)
    _stdout, stderr = process.communicate(timeout=EXIT_BOUND_S)
    lines = stderr.decode().splitlines()
    assert process.returncode == 1
    assert len(lines) == 1, lines
    assert f"scan worker {workers[0]} was killed by SIGKILL" in lines[0]
    assert "--resume" in lines[0]
    assert "Traceback" not in lines[0]

    common = ["-i", str(corpus), "--reference", *REFERENCES,
              "--database", str(tmp_path / "db.json"), "--chunk-size", "50"]
    assert main(["scan", *common, "-o", str(out), "--jobs", "2", "--resume"]) == 0
    assert main(["scan", *common, "-o", str(tmp_path / "one.jsonl"), "--jobs", "1"]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (tmp_path / "one.jsonl").read_bytes()


@needs_proc
def test_killed_parent_takes_every_worker_down(tmp_path, union_db):
    # Each worker must be the only holder of its pipe end besides the
    # parent, or a sibling keeps it open and the worker never sees the
    # parent go.
    corpus = _write_zone(tmp_path / "zone.txt", 30_000)
    process, _workers_found = _start_slow_scan(tmp_path, union_db, corpus,
                                               tmp_path / "out.jsonl")
    below = list(_descendants(process.pid))
    process.kill()
    # Not communicate(): an orphaned worker would hold the output pipes open.
    process.wait(timeout=EXIT_BOUND_S)
    process.stdout.close()
    process.stderr.close()
    deadline = time.monotonic() + EXIT_BOUND_S
    try:
        while not all(map(_exited, below)):
            assert time.monotonic() < deadline, [pid for pid in below if not _exited(pid)]
            time.sleep(0.02)
    finally:
        for pid in below:
            if not _exited(pid):
                os.kill(pid, signal.SIGKILL)

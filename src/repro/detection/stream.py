"""Streaming zone-scale homograph scan (the paper's Step III as a pipeline).

The paper's framework runs in three steps: collect registered domains for a
TLD (Step I), extract the IDNs (Step II), and compare each IDN against the
reference list through the homoglyph database (Step III).  The measurement
study applies that to ~967M registered domains across 1,400+ TLDs — far
more than fits in one in-memory :meth:`ShamFinder.detect` call.  This
module streams it instead:

* **chunked iteration** — the input (a zone-file domain dump, one name per
  line) is consumed in fixed-size chunks, so memory stays bounded no matter
  how large the zone is.  A chunk travels as one ``(text, raw_lines)``
  pair: its lines joined by ``"\n"`` and the number of input lines it
  covers.  A file is read in large blocks and cut with one regex match per
  chunk, so no per-line object is made before the worker;
* **sharded matching** — chunks are fanned out over worker processes that
  share one :class:`~.shamfinder.PreparedReferences` (case-folded labels +
  skeleton hash-join index).  Pools come from :mod:`repro.parallel.pool`:
  fork/forkserver children inherit the prepared state, spawn children
  rebuild it from a picklable spec (an mmap-backed index re-attaches from
  its artifact path), so every start method runs parallel;
* **JSONL result sink** — each detection is appended as one JSON object
  per line (:meth:`HomographDetection.as_dict`), flushed commit by commit;
* **checkpoint/resume** — every commit appends the results of one or more
  whole chunks and then atomically rewrites a small checkpoint recording
  how much input was consumed and how many result lines are durable.  One
  worker commits every chunk; a pool commits every result that is ready
  when the parent gets to it.  A killed scan restarts with
  ``resume=True``: the sink is validated (truncated or corrupt trailing
  lines are dropped and reported), the consumed input is skipped, and
  counters continue where they left off.

Steps II and III happen inside the workers: each chunk is filtered to the
IDN names (Step II, C-level string scans over the whole chunk text) and
matched against the prepared references (Step III), with unparsable junk
counted in ``skipped_count`` exactly as the in-memory path does.  An
in-memory element that holds a line break is scanned as the lines it
holds, but counts as one consumed input line.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import time
from dataclasses import asdict, dataclass
from functools import partial
from itertools import islice, repeat
from multiprocessing import TimeoutError as PoolTimeout
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from ..durable import Checkpoint, CheckpointedLog, SinkRecovery, json_record, recover_sink
from ..idn.domain import DomainName
from ..idn.idna_codec import ACE_PREFIX, split_labels
from ..parallel.pool import pool_context
from .report import DetectionReport, HomographDetection
from .shamfinder import PreparedReferences, ShamFinder

__all__ = [
    "CHECKPOINT_VERSION",
    "ScanStats",
    "ScanCheckpoint",
    "SinkRecovery",
    "ScanResumeError",
    "SinkError",
    "StreamingScanner",
    "recover_sink",
    "read_sink",
    "iter_sink",
    "file_fingerprint",
    "is_idn_candidate",
]

#: Bump when the checkpoint layout changes; old checkpoints then refuse to resume.
CHECKPOINT_VERSION = 1


class ScanResumeError(RuntimeError):
    """Resuming is unsafe (input changed or the checkpoint is incompatible)."""


class SinkError(ValueError):
    """A result sink contains lines that do not parse as detections."""


@dataclass
class ScanStats:
    """Progress counters of one streaming scan."""

    domains_seen: int = 0          # non-blank, non-comment input names
    idn_count: int = 0             # candidates that parsed and were matched
    skipped_count: int = 0         # candidates dropped as unparsable junk
    detection_count: int = 0       # result lines written (or collected)
    chunks_done: int = 0
    commits: int = 0               # sink commits (batches of whole chunks) this run
    lines_done: int = 0            # raw input lines consumed
    resumed_lines: int = 0         # raw input lines skipped by resume
    recovered_drop: int = 0        # sink lines dropped during recovery
    elapsed_seconds: float = 0.0

    def as_dict(self) -> dict:
        """JSON-friendly representation (printed by the ``scan`` CLI)."""
        return asdict(self)


@dataclass(frozen=True)
class ScanCheckpoint(Checkpoint):
    """Durable progress marker written after every commit of whole chunks."""

    lines_done: int
    chunks_done: int
    detections_written: int
    domains_seen: int
    idn_count: int
    skipped_count: int
    input_fingerprint: str | None = None
    version: int = CHECKPOINT_VERSION


def _is_valid_sink_line(line: bytes) -> bool:
    record = json_record(line)
    return record is not None and "idn" in record and "reference" in record


def iter_sink(
    path: str | os.PathLike,
    *,
    chunk_size: int = 2000,
) -> Iterator[list[HomographDetection]]:
    """Stream a completed sink chunk-by-chunk without loading it whole.

    Yields lists of at most *chunk_size* detections in file order — the
    memory-bounded way the enrichment pipeline consumes zone-scale scan
    results.  Raises :class:`SinkError` naming the first offending line when
    the file contains truncated or corrupt entries.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    chunk: list[HomographDetection] = []
    with open(path, "rb") as handle:
        for number, line in enumerate(handle, start=1):
            if not _is_valid_sink_line(line):
                raise SinkError(f"{path}: corrupt or truncated sink line {number}")
            try:
                chunk.append(HomographDetection.from_dict(json.loads(line)))
            except (KeyError, TypeError) as exc:
                raise SinkError(
                    f"{path}: sink line {number} is not a detection: {exc}"
                ) from exc
            if len(chunk) >= chunk_size:
                yield chunk
                chunk = []
    if chunk:
        yield chunk


def read_sink(path: str | os.PathLike) -> DetectionReport:
    """Load a completed sink back into a :class:`DetectionReport`.

    Raises :class:`SinkError` naming the first offending line when the file
    contains truncated or corrupt entries — a completed scan's sink must be
    fully well-formed, so damage here means the scan needs a resume pass.
    """
    report = DetectionReport()
    for chunk in iter_sink(path):
        report.extend(chunk)
    return report


def file_fingerprint(path: str | os.PathLike) -> str:
    """Cheap input identity: size plus a digest of the leading bytes."""
    path = Path(path)
    hasher = hashlib.sha256()
    hasher.update(str(path.stat().st_size).encode("ascii"))
    with open(path, "rb") as handle:
        hasher.update(handle.read(65536))
    return hasher.hexdigest()[:16]


# Worker-side state: the finder and prepared references are shipped once per
# worker through the pool initializer, not once per chunk.
_WORKER_STATE: dict = {}

#: Spec tag marking a prepared-references value that must be re-attached
#: from the artifact path instead of arriving ready-made: an mmap-backed
#: index cannot be pickled into a spawned worker, but the file it maps can
#: be re-opened there (one O(header) open against the shared page cache).
_MMAP_SPEC = "__mmap_index__"


def _attach_prepared(prepared):
    """Resolve a worker's prepared-references value (spec or ready state)."""
    if isinstance(prepared, tuple) and len(prepared) == 2 and prepared[0] == _MMAP_SPEC:
        from .index import ReferenceIndexStore

        path = Path(prepared[1])
        finder = _WORKER_STATE["finder"]
        index = ReferenceIndexStore(path.parent).load_path(path, finder)
        if index is None:
            raise RuntimeError(f"scan worker could not attach reference index {path}")
        return index.prepared
    return prepared


def _scan_worker_init(
    finder: ShamFinder,
    prepared,
    idn_only: bool,
) -> None:
    _WORKER_STATE["finder"] = finder
    _WORKER_STATE["args"] = (finder, _attach_prepared(prepared), idn_only)


def _scan_worker(chunk: tuple[str, int]) -> tuple[list[HomographDetection], int, int, int, int]:
    finder, prepared, idn_only = _WORKER_STATE["args"]
    return _process_chunk(finder, prepared, chunk, idn_only)


def is_idn_candidate(domain: str) -> bool:
    """Cheap Step II test: is the *registrable* label an IDN label?

    Matching happens on the registrable label (the paper's Figure 2), so
    this agrees with ``DomainName(domain).has_idn_registrable_label`` for
    every name that parses: an ASCII name under an IDN TLD
    (``example.xn--p1ai``) is *not* a candidate, a Unicode-spelled
    registrable label (``bücher.de``) is.  An all-ASCII name is judged by
    its spelling alone, without a parse; a name with any non-ASCII
    character is parsed.  A name that does not parse is a candidate when
    its registrable label is spelled as an A-label, so the matcher counts
    it in ``skipped_count``.
    """
    if domain.isascii():
        # Cheap substring reject for the ~99% non-IDN zone bulk, sparing
        # them the label dissection below.
        lowered = domain.lower()
        return ACE_PREFIX in lowered and _registrable_is_ace(lowered)
    try:
        return DomainName(domain).has_idn_registrable_label
    except ValueError:
        return _registrable_is_ace(domain.lower())


def _registrable_is_ace(lowered: str) -> bool:
    # Split (and strip the label) exactly as DomainName does.
    labels = split_labels(lowered)
    registrable = labels[-2] if len(labels) >= 2 else labels[0]
    return registrable.strip().startswith(ACE_PREFIX)


def _step_ii(text: str, idn_only: bool) -> tuple[list[str], int]:
    """Step II over one chunk's text: ``(candidates, domains_seen)``.

    Blank lines and ``#`` comment lines are dropped; the rest are the
    chunk's domains.  For an all-ASCII chunk (every zone file and CT log)
    only the lines holding ``xn--`` reach :func:`is_idn_candidate`; a chunk
    with any non-ASCII character tests every domain, since a
    Unicode-spelled IDN carries no ``xn--``.
    """
    names = list(map(str.strip, text.split("\n")))
    seen = len(names) - names.count("")
    if "#" in text:
        seen -= sum(map(str.startswith, names, repeat("#")))
    if not idn_only:
        return [name for name in names if name and not name.startswith("#")], seen
    if not text.isascii():
        return [name for name in names
                if name and not name.startswith("#") and is_idn_candidate(name)], seen
    # ASCII text lower-cases without changing length or line breaks, so
    # offsets and lines of ``lowered`` are those of ``text``.
    lowered = text.lower()
    hit_names = []
    hit = lowered.find(ACE_PREFIX)
    while hit >= 0:
        end = lowered.find("\n", hit)
        if end < 0:
            end = len(text)
        hit_names.append(text[lowered.rfind("\n", 0, hit) + 1:end].strip())
        hit = lowered.find(ACE_PREFIX, end)
    return [name for name in hit_names
            if not name.startswith("#") and is_idn_candidate(name)], seen


def _process_chunk(
    finder: ShamFinder,
    prepared: PreparedReferences,
    chunk: tuple[str, int],
    idn_only: bool,
) -> tuple[list[HomographDetection], int, int, int, int]:
    """Steps II + III over one ``(text, raw_lines)`` chunk."""
    text, raw_lines = chunk
    candidates, seen = _step_ii(text, idn_only)
    detections, idn_count, skipped = finder.detect_prepared(candidates, prepared)
    return detections, raw_lines, seen, idn_count, skipped


#: A chunk slicer: ``take(n)`` returns the next *n* input lines as one
#: ``(text, raw_lines)`` chunk (fewer at the end, ``("", 0)`` past it).
_Take = Callable[[int], tuple[str, int]]

#: Characters read from an input file at a time.
_READ_CHARS = 1 << 18


class _FileLines:
    """Cuts a text-mode file into chunks of whole lines.

    The file is read in large blocks (so universal newlines and decode
    errors behave as in line iteration) and each chunk is cut with one
    regex match; no Python object is made per line.
    """

    def __init__(self, handle) -> None:
        self._read = handle.read
        self._buffer = ""
        self._pos = 0
        self._newlines = 0          # newlines in ``_buffer[_pos:]``
        self._eof = False

    def take(self, count: int) -> tuple[str, int]:
        if self._newlines < count and not self._eof:
            blocks = [self._buffer[self._pos:]]
            while self._newlines < count:
                block = self._read(_READ_CHARS)
                if not block:
                    self._eof = True
                    break
                blocks.append(block)
                self._newlines += block.count("\n")
            self._buffer, self._pos = "".join(blocks), 0
        buffer, pos = self._buffer, self._pos
        if self._newlines >= count:
            # Exactly ``count`` lines; ``re`` caches the compiled pattern.
            end = re.compile("(?:[^\n]*\n){%d}" % count).match(buffer, pos).end()
            self._pos, self._newlines = end, self._newlines - count
            return buffer[pos:end - 1], count
        # End of input: the rest, whose last line may lack its newline.
        rest = buffer[pos:]
        self._buffer, self._pos, self._newlines = "", 0, 0
        if rest and not rest.endswith("\n"):
            rest += "\n"
        return rest[:-1], rest.count("\n")


def _element_take(elements: Iterator[str]) -> _Take:
    """A slicer over in-memory elements, one input line each."""
    def take(count: int) -> tuple[str, int]:
        chunk = list(islice(elements, count))
        return "\n".join(chunk), len(chunk)
    return take


class StreamingScanner:
    """Chunked, sharded, resumable Step III scan over a domain stream.

    Built for zone-scale inputs that don't fit one in-memory report:
    domains are consumed in ``chunk_size`` slices, matched against the
    prepared reference index (optionally across ``jobs`` worker shards,
    parallel under every start method including spawn), and appended to a
    JSONL sink with an atomic per-chunk checkpoint.  :meth:`scan` resumes an interrupted run byte-identically:
    trailing damage past the checkpoint is truncated and reported, while
    damage inside the checkpointed prefix, a changed input file, or a lost
    checkpoint against a non-empty sink refuse with
    :class:`ScanResumeError` rather than risk silent double-counting (the
    recovery matrix is tabulated in ``docs/OPERATIONS.md``).

    Pass ``prepared=`` (e.g. from a loaded
    :class:`~repro.detection.index.ReferenceIndex`) to skip the per-run
    reference warm-up; ``idn_only=True`` applies the paper's Step II
    filter so only IDN candidates reach the matcher.
    """

    def __init__(
        self,
        finder: ShamFinder,
        reference: Sequence[str],
        *,
        chunk_size: int = 2000,
        jobs: int = 1,
        idn_only: bool = True,
        prepared: PreparedReferences | None = None,
        start_method: str | None = None,
    ) -> None:
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.finder = finder
        # A caller holding a prebuilt index (a loaded ReferenceIndex
        # artifact) passes its prepared state to skip the per-run warm-up.
        self.prepared = prepared if prepared is not None else finder.prepare_references(reference)
        self.chunk_size = chunk_size
        self.jobs = jobs
        self.idn_only = idn_only
        #: Multiprocessing start method for the worker pool: ``None``
        #: honours the host/platform choice (fork where available, spawn
        #: elsewhere — both parallel); an explicit value forces one.
        self.start_method = start_method

    # -- in-memory scan (used by the measurement study) ------------------------

    def scan_to_report(
        self,
        domains: Iterable[str],
        *,
        progress: Callable[[ScanStats], None] | None = None,
    ) -> tuple[DetectionReport, ScanStats]:
        """Stream *domains* and collect every detection in memory.

        Same chunking and sharding as :meth:`scan`, without the sink and
        checkpoint — the study-scale entry point.  *progress* is called
        once per batch of chunk results, as :meth:`scan` calls it once per
        commit.
        """
        report = DetectionReport()
        stats = ScanStats()
        started = time.perf_counter()
        for batch in self._batches(_element_take(iter(domains))):
            report.extend(self._fold(batch, stats))
            stats.elapsed_seconds = time.perf_counter() - started
            if progress is not None:
                progress(stats)
        stats.elapsed_seconds = time.perf_counter() - started
        return report, stats

    # -- sink-backed scan (the zone-scale entry point) -------------------------

    def scan_file(
        self,
        input_path: str | os.PathLike,
        output_path: str | os.PathLike,
        *,
        checkpoint_path: str | os.PathLike | None = None,
        resume: bool = False,
        progress: Callable[[ScanStats], None] | None = None,
    ) -> ScanStats:
        """Scan a domain-list file (one name per line) into a JSONL sink."""
        fingerprint = file_fingerprint(input_path)
        with open(input_path, "r", encoding="utf-8", errors="replace") as handle:
            return self.scan(
                handle,
                output_path,
                checkpoint_path=checkpoint_path,
                resume=resume,
                input_fingerprint=fingerprint,
                progress=progress,
            )

    def scan(
        self,
        domains: Iterable[str],
        output_path: str | os.PathLike,
        *,
        checkpoint_path: str | os.PathLike | None = None,
        resume: bool = False,
        input_fingerprint: str | None = None,
        progress: Callable[[ScanStats], None] | None = None,
    ) -> ScanStats:
        """Stream *domains* (one input line each) into the JSONL sink at *output_path*.

        A text-mode file is cut in blocks rather than iterated line by
        line.  With ``resume=True`` and a usable checkpoint,
        already-consumed input is skipped and the sink is validated and
        extended; otherwise the sink is started fresh.  The checkpoint
        lives next to the sink (``<output>.checkpoint``) unless
        *checkpoint_path* says otherwise.  *progress* is called once per
        commit.
        """
        if isinstance(domains, io.TextIOBase):
            take = _FileLines(domains).take
        else:
            take = _element_take(iter(domains))
        output_path = Path(output_path)
        if checkpoint_path is None:
            checkpoint_path = output_path.with_name(output_path.name + ".checkpoint")
        checkpoint_path = Path(checkpoint_path)

        stats = ScanStats()
        started = time.perf_counter()

        with CheckpointedLog(
            output_path, checkpoint_path, ScanCheckpoint,
            count_field="detections_written", error=ScanResumeError,
            line_validator=_is_valid_sink_line,
        ) as sink:
            checkpoint = sink.load(resume=resume)
            if (
                checkpoint is not None
                and checkpoint.input_fingerprint is not None
                and input_fingerprint is not None
                and checkpoint.input_fingerprint != input_fingerprint
            ):
                raise ScanResumeError(
                    f"input changed since the checkpoint at {checkpoint_path} was "
                    "written; re-run without --resume to start over"
                )
            stats.recovered_drop = sink.open(checkpoint)
            if checkpoint is not None:
                stats.lines_done = checkpoint.lines_done
                stats.chunks_done = checkpoint.chunks_done
                stats.detection_count = checkpoint.detections_written
                stats.domains_seen = checkpoint.domains_seen
                stats.idn_count = checkpoint.idn_count
                stats.skipped_count = checkpoint.skipped_count
                while stats.resumed_lines < checkpoint.lines_done:
                    taken = take(min(self.chunk_size,
                                     checkpoint.lines_done - stats.resumed_lines))[1]
                    if not taken:
                        break
                    stats.resumed_lines += taken

            for batch in self._batches(take):
                detections = self._fold(batch, stats)
                sink.commit(
                    [json.dumps(d.as_dict(), ensure_ascii=False) + "\n" for d in detections],
                    ScanCheckpoint(
                        lines_done=stats.lines_done,
                        chunks_done=stats.chunks_done,
                        detections_written=stats.detection_count,
                        domains_seen=stats.domains_seen,
                        idn_count=stats.idn_count,
                        skipped_count=stats.skipped_count,
                        input_fingerprint=input_fingerprint,
                    ),
                )
                stats.elapsed_seconds = time.perf_counter() - started
                if progress is not None:
                    progress(stats)
        stats.elapsed_seconds = time.perf_counter() - started
        return stats

    # -- shared chunk pipeline -------------------------------------------------

    def _batches(self, take: _Take) -> Iterator[list[tuple]]:
        """Yield chunk results in input order, one commit's batch at a time.

        One worker yields every chunk on its own.  A pool waits for the
        next result, then adds every later result that is already ready,
        so a parent that falls behind its workers commits many chunks at
        once instead of one checkpoint per chunk.
        """
        chunks = iter(partial(take, self.chunk_size), ("", 0))
        if self.jobs == 1:
            for chunk in chunks:
                yield [_process_chunk(self.finder, self.prepared, chunk, self.idn_only)]
            return
        context = pool_context(self.start_method)
        with context.Pool(
            processes=self.jobs,
            initializer=_scan_worker_init,
            initargs=(self.finder, self._worker_prepared(context.get_start_method()),
                      self.idn_only),
        ) as pool:
            # imap keeps results in submission order, which checkpoint
            # consistency depends on.
            results = pool.imap(_scan_worker, chunks)
            for first in results:
                batch = [first]
                while True:
                    try:
                        batch.append(results.next(timeout=0))
                    except (StopIteration, PoolTimeout):
                        break
                yield batch

    def _worker_prepared(self, method: str):
        """What the pool initializer ships as the prepared references.

        Under fork/forkserver the initializer arguments are inherited, not
        pickled, so the in-process object (mmap-backed or not) goes as-is.
        Under spawn they are pickled: an mmap-backed index is replaced by a
        re-attach spec (its artifact path) and each worker re-opens the
        same inode; dict-backed state pickles directly.
        """
        if method in ("fork", "forkserver"):
            return self.prepared
        path = getattr(self.prepared, "path", None)
        if path is not None:
            return (_MMAP_SPEC, str(path))
        return self.prepared

    @staticmethod
    def _fold(batch: list[tuple], stats: ScanStats) -> list[HomographDetection]:
        """Count one batch of chunk results into *stats*; returns its detections."""
        detections: list[HomographDetection] = []
        for found, raw_lines, domains_seen, idn_count, skipped in batch:
            detections.extend(found)
            stats.lines_done += raw_lines
            stats.domains_seen += domains_seen
            stats.idn_count += idn_count
            stats.skipped_count += skipped
        stats.chunks_done += len(batch)
        stats.detection_count += len(detections)
        stats.commits += 1
        return detections

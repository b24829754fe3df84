"""Streaming zone-scale homograph scan (the paper's Step III as a pipeline).

The paper's framework runs in three steps: collect registered domains for a
TLD (Step I), extract the IDNs (Step II), and compare each IDN against the
reference list through the homoglyph database (Step III).  The measurement
study applies that to ~967M registered domains across 1,400+ TLDs — far
more than fits in one in-memory :meth:`ShamFinder.detect` call.  This
module streams it instead:

* **chunked iteration** — the input (a zone-file domain dump, one name per
  line) is consumed in fixed-size chunks, so memory stays bounded no matter
  how large the zone is;
* **sharded matching** — chunks are fanned out over worker processes that
  share one :class:`~.shamfinder.PreparedReferences` (case-folded labels +
  skeleton hash-join index).  Pools come from :mod:`repro.parallel.pool`:
  fork/forkserver children inherit the prepared state, spawn children
  rebuild it from a picklable spec (an mmap-backed index re-attaches from
  its artifact path), so every start method runs parallel;
* **JSONL result sink** — each detection is appended as one JSON object
  per line (:meth:`HomographDetection.as_dict`), flushed chunk by chunk;
* **checkpoint/resume** — after every chunk a small checkpoint file records
  how much input was consumed and how many result lines are durable.  A
  killed scan restarts with ``resume=True``: the sink is validated
  (truncated or corrupt trailing lines are dropped and reported), the
  consumed input is skipped, and counters continue where they left off.

Steps II and III happen inside the workers: each chunk is filtered to the
``xn--`` names (Step II) and matched against the prepared references
(Step III), with unparsable junk counted in ``skipped_count`` exactly as
the in-memory path does.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from ..durable import Checkpoint, CheckpointedLog, SinkRecovery, json_record, recover_sink
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
    lines_done: int = 0            # raw input lines consumed
    resumed_lines: int = 0         # raw input lines skipped by resume
    recovered_drop: int = 0        # sink lines dropped during recovery
    elapsed_seconds: float = 0.0

    def as_dict(self) -> dict:
        """JSON-friendly representation (printed by the ``scan`` CLI)."""
        return asdict(self)


@dataclass(frozen=True)
class ScanCheckpoint(Checkpoint):
    """Durable progress marker written after every completed chunk."""

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


def _scan_worker(chunk: list[str]) -> tuple[list[HomographDetection], int, int, int, int]:
    finder, prepared, idn_only = _WORKER_STATE["args"]
    return _process_chunk(finder, prepared, chunk, idn_only)


def is_idn_candidate(domain: str) -> bool:
    """Cheap Step II test: is the *registrable* label an A-label?

    Matching happens on the registrable label (the paper's Figure 2), so
    this mirrors ``ShamFinder.extract_idns``/``has_idn_registrable_label``
    without paying a full parse — an ASCII name under an IDN TLD
    (``example.xn--p1ai``) is *not* a candidate.  The test reads the
    registrable label as the input spells it, so it agrees with
    ``DomainName`` whenever that label is given as an A-label (as zone
    files and CT logs give it); a Unicode spelling is never a candidate.
    """
    # Cheap substring reject for the ~99% non-IDN zone bulk, sparing them
    # the label dissection below.
    lowered = domain.lower()
    if ACE_PREFIX not in lowered:
        return False
    # Split (and strip the label) exactly as DomainName does.
    labels = split_labels(lowered)
    registrable = labels[-2] if len(labels) >= 2 else labels[0]
    return registrable.strip().startswith(ACE_PREFIX)


def _process_chunk(
    finder: ShamFinder,
    prepared: PreparedReferences,
    lines: Sequence[str],
    idn_only: bool,
) -> tuple[list[HomographDetection], int, int, int, int]:
    """Steps II + III over one chunk of raw input lines."""
    domains = []
    for raw in lines:
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        domains.append(text)
    if idn_only:
        candidates = [d for d in domains if is_idn_candidate(d)]
    else:
        candidates = domains
    detections, idn_count, skipped = finder.detect_prepared(candidates, prepared)
    return detections, len(lines), len(domains), idn_count, skipped


def _chunked(lines: Iterable[str], chunk_size: int) -> Iterator[list[str]]:
    chunk: list[str] = []
    for line in lines:
        chunk.append(line)
        if len(chunk) >= chunk_size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


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
        checkpoint — the study-scale entry point.
        """
        report = DetectionReport()
        stats = ScanStats()
        started = time.perf_counter()
        for detections, raw_lines in self._chunk_results(iter(domains), stats):
            report.extend(detections)
            stats.detection_count += len(detections)
            stats.lines_done += raw_lines
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
        """Stream *domains* into the JSONL sink at *output_path*.

        With ``resume=True`` and a usable checkpoint, already-consumed
        input is skipped and the sink is validated and extended; otherwise
        the sink is started fresh.  The checkpoint lives next to the sink
        (``<output>.checkpoint``) unless *checkpoint_path* says otherwise.
        """
        output_path = Path(output_path)
        if checkpoint_path is None:
            checkpoint_path = output_path.with_name(output_path.name + ".checkpoint")
        checkpoint_path = Path(checkpoint_path)

        stats = ScanStats()
        started = time.perf_counter()
        lines = iter(domains)

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
                for _ in range(checkpoint.lines_done):
                    if next(lines, None) is None:
                        break
                    stats.resumed_lines += 1

            for detections, raw_lines in self._chunk_results(lines, stats):
                stats.detection_count += len(detections)
                stats.lines_done += raw_lines
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

    def _chunk_results(
        self,
        lines: Iterator[str],
        stats: ScanStats,
    ) -> Iterator[tuple[list[HomographDetection], int]]:
        """Yield ``(detections, raw_line_count)`` per chunk, in input order.

        Updates the seen/idn/skipped/chunk counters on *stats* as results
        arrive; callers account for lines and detections themselves (the
        sink path must only count a chunk's lines once its results are
        durable).
        """
        chunks = _chunked(lines, self.chunk_size)
        if self.jobs == 1:
            for chunk in chunks:
                result = _process_chunk(self.finder, self.prepared, chunk, self.idn_only)
                yield self._account(result, stats)
        else:
            context = pool_context(self.start_method)
            with context.Pool(
                processes=self.jobs,
                initializer=_scan_worker_init,
                initargs=(self.finder, self._worker_prepared(context.get_start_method()),
                          self.idn_only),
            ) as pool:
                # imap keeps results in submission order, which checkpoint
                # consistency depends on.
                for result in pool.imap(_scan_worker, chunks):
                    yield self._account(result, stats)

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
    def _account(
        result: tuple[list[HomographDetection], int, int, int, int],
        stats: ScanStats,
    ) -> tuple[list[HomographDetection], int]:
        detections, raw_lines, domains_seen, idn_count, skipped = result
        stats.domains_seen += domains_seen
        stats.idn_count += idn_count
        stats.skipped_count += skipped
        stats.chunks_done += 1
        return detections, raw_lines

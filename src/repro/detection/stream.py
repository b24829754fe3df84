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
  covers.  A file is read in large blocks and each chunk is cut with a
  C-level newline count from a guess at its length, so no per-line object
  is made before the worker;
* **sharded matching** — chunks are fanned out over worker processes that
  share one prepared reference index (case-folded labels + skeleton
  hash-join index, :class:`~.index.MmapPreparedReferences`).  The calling
  thread drives the workers, one pipe each, with a bounded number of
  chunks in flight.  Fork children inherit the prepared state; spawn and
  forkserver children unpickle it (a stored index re-attaches from its
  artifact path, an in-memory one arrives as its bytes), so every start
  method runs parallel.  A worker's exception, failed start-up or death
  raises in the caller;
* **JSONL result sink** — each detection is appended as one JSON object
  per line (:meth:`HomographDetection.as_dict`), flushed commit by commit.
  The worker that matched a chunk renders its lines straight from the
  join's hit rows (:meth:`ShamFinder.hit_rows`, no detection object), so
  the parent only writes text;
* **outcome memo** — every process that renders chunks keeps, for one
  scan, each candidate it has matched with its sink lines.  Consecutive
  daily zones are nearly the same names, so a multi-day input sends each
  distinct name through Step III once per process.  The memo is bounded
  by :data:`_MEMO_NAMES` and is never pickled or persisted, so resume and
  every start method behave as without it;
* **checkpoint/resume** — every commit appends the results of one or more
  whole chunks and then atomically rewrites a small checkpoint recording
  how much input was consumed and how many result lines are durable.  One
  worker commits every chunk; several commit every result that is ready
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

import contextlib
import hashlib
import io
import json
import os
import pickle
import queue
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import asdict, dataclass
from functools import partial
from itertools import compress, filterfalse, islice, repeat
from multiprocessing.connection import Connection, wait
from multiprocessing.process import BaseProcess
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NoReturn, Sequence

import numpy as np

from ..durable import Checkpoint, CheckpointedLog, SinkRecovery, json_record, recover_sink
from ..idn.domain import is_idn_candidate
from ..idn.idna_codec import ACE_PREFIX
from ..parallel.pool import pool_context
from .batchfold import kernel_for
from .report import DetectionReport, HomographDetection, detection_json
from .shamfinder import HitRow, ShamFinder

if TYPE_CHECKING:
    from .index import MmapPreparedReferences

__all__ = [
    "CHECKPOINT_VERSION",
    "ScanStats",
    "ScanCheckpoint",
    "SinkRecovery",
    "ScanResumeError",
    "ScanWorkerError",
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


class ScanWorkerError(RuntimeError):
    """A scan worker process ended before returning its chunks' results."""


#: Chunks in flight per worker: one being matched, the rest queued in the
#: worker.  When the workers fill every CPU, the parent waits to be
#: scheduled before it can commit and hand out more; a deep queue keeps the
#: workers busy meanwhile (4 left them idle about half the time on two
#: vCPUs).  Results that wait for an earlier chunk count as in flight,
#: which bounds the parent's reorder buffer too.
_IN_FLIGHT_PER_WORKER = 16

#: Seconds a worker whose pipe closed gets to finish exiting, so its exit
#: status can be reported.
_EXIT_WAIT_S = 5.0


class _Failure:
    """An exception raised in a scan worker, with its traceback as text."""

    def __init__(self, exc: BaseException) -> None:
        self.text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
        try:
            pickle.loads(pickle.dumps(exc))
        # lint: allow-broad-except(an exception that does not pickle travels as its traceback text)
        except Exception:
            exc = RuntimeError(self.text)
        self.exc = exc

    def reraise(self) -> NoReturn:
        raise self.exc from _RemoteTraceback(self.text)


class _RemoteTraceback(Exception):
    def __str__(self) -> str:
        return "\n\n" + self.args[0]


def _receive_chunks(conn, chunks: queue.SimpleQueue) -> None:
    # ``None`` ends the worker: the parent closed its end or died.
    try:
        while True:
            chunks.put(conn.recv())
    except (EOFError, OSError):
        chunks.put(None)


def _scan_worker(conn, inherited, state: tuple | bytes) -> None:
    """A scan worker: match each chunk that arrives on *conn*, reply in order.

    *state* is ``(finder, prepared, idn_only, render)``, pickled unless
    this is a fork child: unpickling it here rather than at process start
    lets a failure (a stored index whose file is gone) reach the parent.
    A rendering worker keeps one outcome memo for all its chunks.
    Chunks are received on a thread of their own, so the parent is never
    blocked sending a chunk while this process is blocked sending a result.
    *inherited* holds the parent's ends of the pipes a fork child inherits;
    closing them leaves the parent the only holder, so every worker reads
    end-of-file when the parent dies.
    """
    for end in inherited:
        end.close()
    # Ctrl-C reaches the whole process group; the parent stops the workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        finder, prepared, idn_only, render = (
            state if isinstance(state, tuple) else pickle.loads(state))
        memo: dict[str, str | None] | None = {} if render else None
        chunks: queue.SimpleQueue = queue.SimpleQueue()
        threading.Thread(target=_receive_chunks, args=(conn, chunks), daemon=True).start()
        for chunk in iter(chunks.get, None):
            reply = _process_chunk(finder, prepared, chunk, idn_only, memo)
            try:
                conn.send(reply)
            except OSError:         # the parent is gone
                return
    # lint: allow-broad-except(sent to the parent, which re-raises it)
    except Exception as exc:
        with contextlib.suppress(OSError):
            conn.send(_Failure(exc))


#: What ``str.strip`` removes from an ASCII line, besides the line break,
#: and the comment mark: a chunk holding none of these has no padded or
#: comment line.
_PADDING = " \t\r\x0b\x0c\x1c\x1d\x1e\x1f#"


def _plain_line_count(text: str) -> int | None:
    """The number of lines of ASCII *text* if every one is a domain as it
    stands (none blank, whitespace-padded or a ``#`` comment), else ``None``.

    C-level scans only: one ``memchr`` per padding character, then the line
    breaks as a numpy mask.
    """
    if any(char in text for char in _PADDING):
        return None
    breaks = np.frombuffer(text.encode("ascii"), np.uint8) == ord("\n")
    if not len(breaks) or breaks[0] or breaks[-1] or (breaks[1:] & breaks[:-1]).any():
        return None
    return int(np.count_nonzero(breaks)) + 1


#: A chunk of bare domains with at least one ``xn--`` line per this many
#: lines is picked in one numpy pass (:func:`_dense_pick`); a sparser one
#: (a CT log is under 1% IDNs) costs less hit by hit.
_DENSE_LINES_PER_HIT = 8
#: ``xn--`` read as one little-endian 32-bit word.
_ACE_WORD = int.from_bytes(ACE_PREFIX.encode("ascii"), "little")


def _dense_pick(text: str, lowered: str) -> list[str] | None:
    """The lines of *text* whose registrable label starts with ``xn--``,
    or ``None`` when a line ends in ``.``.

    *text* holds bare ASCII domains and *lowered* is its lower-case copy.
    The registrable label of a line starts one past its second-to-last
    dot, or at the line start when it has fewer dots, as
    :func:`~repro.idn.domain.is_idn_candidate` splits it (a trailing root
    dot would move it).  One pass finds the dots and line breaks; each
    line's second-to-last separator is then an index into them.
    """
    raw = lowered.encode("ascii") + b"\0\0\0"
    data = np.frombuffer(raw, np.uint8)
    separators = np.flatnonzero((data == ord(".")) | (data == ord("\n")))
    # The index among the separators of every line's end, the last line's
    # being one past them all.
    line_ends = np.append(np.flatnonzero(data[separators] == ord("\n")), separators.size)
    padded = np.concatenate(([-1, -1], separators, [len(text)]))
    if (data[padded[line_ends + 2] - 1] == ord(".")).any():
        return None
    starts = padded[line_ends[:-1] + 2] + 1
    label = np.maximum(padded[line_ends] + 1, np.concatenate(([0], starts)))
    # Every position read as four little-endian bytes; "xn--" holds no
    # separator, so a match never runs past the label.
    words = np.ndarray((len(raw) - 3,), "<u4", raw, 0, (1,))
    ace = words[label] == _ACE_WORD
    return list(compress(text.split("\n"), ace.tolist()))


def _step_ii(text: str, idn_only: bool) -> tuple[list[str], int]:
    """Step II over one chunk's text: ``(candidates, domains_seen)``.

    Blank lines and ``#`` comment lines are dropped; the rest are the
    chunk's domains.  For an all-ASCII chunk (every zone file and CT log)
    only the lines holding ``xn--`` reach :func:`is_idn_candidate`, and
    when every line is a bare domain the domains are counted without
    splitting the text; once such a chunk proves dense in ``xn--`` lines,
    and unless a line ends in ``.``, its candidates are picked in one
    numpy pass instead.  A chunk with any non-ASCII character tests every
    domain, since a Unicode-spelled IDN carries no ``xn--``.
    """
    ascii_text = text.isascii()
    plain = _plain_line_count(text) if idn_only and ascii_text else None
    seen = plain
    if seen is None:
        names = list(map(str.strip, text.split("\n")))
        seen = len(names) - names.count("")
        if "#" in text:
            seen -= sum(map(str.startswith, names, repeat("#")))
        if not idn_only:
            return [name for name in names if name and not name.startswith("#")], seen
        if not ascii_text:
            return [name for name in names
                    if name and not name.startswith("#") and is_idn_candidate(name)], seen
    # ASCII text lower-cases without changing length or line breaks, so
    # offsets and lines of ``lowered`` are those of ``text``.
    lowered = text.lower()
    # A counted chunk turns to the dense pick once the loop has found this
    # many lines; a sparse chunk pays nothing for the test.
    dense_at = -(-plain // _DENSE_LINES_PER_HIT) if plain is not None else 0
    hit_names = []
    hit = lowered.find(ACE_PREFIX)
    while hit >= 0:
        end = lowered.find("\n", hit)
        if end < 0:
            end = len(text)
        hit_names.append(text[lowered.rfind("\n", 0, hit) + 1:end].strip())
        if len(hit_names) == dense_at:
            picked = _dense_pick(text, lowered)
            if picked is not None:
                return picked, seen
        hit = lowered.find(ACE_PREFIX, end)
    return [name for name in hit_names
            if not name.startswith("#") and is_idn_candidate(name)], seen


#: Distinct Step II candidates whose outcome one scan process remembers
#: (:func:`_process_chunk`).  Daily zone snapshots are ~99% the same
#: names, so a multi-day scan sends each distinct name through Step III
#: once.  At ~96 bytes a name, 2**18 names is ~25 MB per process.
_MEMO_NAMES = 1 << 18


def _process_chunk(
    finder: ShamFinder,
    prepared: MmapPreparedReferences,
    chunk: tuple[str, int],
    idn_only: bool,
    memo: dict[str, str | None] | None,
) -> tuple[list[HomographDetection] | str, int, int, int, int, int]:
    """Steps II + III over one ``(text, raw_lines)`` chunk.

    Returns ``(found, detections, raw_lines, domains_seen, idn_count,
    skipped)``.  Without *memo*, ``found`` is the chunk's detections.
    With one, it is their sink lines as one string, so a worker hands its
    parent text to write instead of objects to unpickle and encode.
    *memo* maps every candidate this process has matched to its sink
    lines (``""`` for none), or to ``None`` if it is not a domain name;
    only the candidates it lacks go through Step III, as one batch whose
    lines are rendered straight from its hit rows
    (:meth:`ShamFinder.hit_rows`).  A chunk's new names join the memo only
    if all of them fit under :data:`_MEMO_NAMES`; a full memo keeps the
    names it holds, which the next days' zones repeat.
    """
    text, raw_lines = chunk
    candidates, seen = _step_ii(text, idn_only)
    if memo is None:
        detections, idn_count, skipped = finder.detect_prepared(candidates, prepared)
        return detections, len(detections), raw_lines, seen, idn_count, skipped
    outcomes: dict[str, str | None] = dict.fromkeys(
        filterfalse(memo.__contains__, candidates), "")
    known = memo
    if outcomes:
        fresh = list(outcomes)
        hits, _idn_count, not_names = finder.hit_rows(fresh, prepared)
        for position in not_names:
            outcomes[fresh[position]] = None
        for hit in hits:
            outcomes[fresh[hit[0]]] = "".join(_sink_lines([hit]))
        if len(memo) + len(outcomes) <= _MEMO_NAMES:
            memo.update(outcomes)
        else:
            # The memo is full: the chunk reads its new names from
            # ``outcomes`` and copies in the ones the memo holds.
            held = list(filter(memo.__contains__, candidates))
            outcomes.update(zip(held, map(memo.__getitem__, held)))
            known = outcomes
    found = list(map(known.__getitem__, candidates))
    skipped = found.count(None)
    lines = "".join(filter(None, found))
    return lines, lines.count("\n"), raw_lines, seen, len(candidates) - skipped, skipped


def _sink_lines(hits: list[HitRow]) -> list[str]:
    """One sink line per detection of *hits*, newline included, in the
    order :meth:`ShamFinder.detect_prepared` lists the detections."""
    return [
        detection_json(ascii, unicode, reference, substitutions, sources, invisibles) + "\n"
        for _position, ascii, unicode, matches in hits
        for _member, references, substitutions, sources, invisibles in matches
        for reference in references
    ]


#: A chunk slicer: ``take(n)`` returns the next *n* input lines as one
#: ``(text, raw_lines)`` chunk (fewer at the end, ``("", 0)`` past it).
_Take = Callable[[int], tuple[str, int]]

#: Characters read from an input file at a time.
_READ_CHARS = 1 << 18

#: Cutting a chunk: rescaled guesses at most, and the distance in lines
#: from which the cut steps line by line instead of guessing again.
_CUT_GUESSES = 8
_CUT_SLACK = 32


class _FileLines:
    """Cuts a text-mode file into chunks of whole lines.

    The file is read in large blocks (so universal newlines and decode
    errors behave as in line iteration).  A chunk's end is guessed from
    the previous chunk's mean line length; the newlines up to the guess are
    counted with ``str.count``, the guess is rescaled by the density just
    counted until it is a few lines off, and those lines are stepped with
    ``find``/``rfind``.  No Python object is made per line.
    """

    def __init__(self, handle) -> None:
        self._read = handle.read
        self._buffer = ""
        self._pos = 0
        self._eof = False
        self._width = 32.0          # mean line length, newline included

    def _fill(self, size: int) -> str:
        """The buffer, read on until ``_buffer[_pos:]`` holds *size*
        characters or the input ends."""
        have = len(self._buffer) - self._pos
        if have < size and not self._eof:
            blocks = [self._buffer[self._pos:]]
            while have < size:
                block = self._read(_READ_CHARS)
                if not block:
                    self._eof = True
                    break
                blocks.append(block)
                have += len(block)
            self._buffer, self._pos = "".join(blocks), 0
        return self._buffer

    def take(self, count: int) -> tuple[str, int]:
        # ``seen`` counts the newlines in ``buffer[pos:pos + end]``.
        end = seen = 0
        span = int(count * self._width) + 1
        for _ in range(_CUT_GUESSES):
            buffer = self._fill(span)
            pos = self._pos
            span = min(span, len(buffer) - pos)
            if span > end:
                seen += buffer.count("\n", pos + end, pos + span)
            else:
                seen -= buffer.count("\n", pos + span, pos + end)
            end = span
            if abs(seen - count) <= _CUT_SLACK:
                break
            # Rescale by the density counted so far; grow at most by the
            # span so far (plus a block), so one long line cannot make the
            # next guess read far past the chunk.
            span = min(end * count // seen if seen else 2 * end, 2 * end + _READ_CHARS)
            if span == end:
                break
        buffer, pos = self._buffer, self._pos
        while seen < count:
            hit = buffer.find("\n", pos + end)
            if hit >= 0:
                end, seen = hit - pos + 1, seen + 1
            elif self._eof:
                break
            else:
                end = len(buffer) - pos
                buffer = self._fill(end + _READ_CHARS)
                pos = self._pos
        if seen >= count:
            while seen > count:
                end, seen = buffer.rfind("\n", pos, pos + end) - pos, seen - 1
            cut = buffer.rfind("\n", pos, pos + end)
            self._pos = cut + 1
            self._width = (cut + 1 - pos) / count
            return buffer[pos:cut], count
        # End of input: the rest, whose last line may lack its newline.
        rest = buffer[pos:]
        self._buffer, self._pos = "", 0
        if rest and not rest.endswith("\n"):
            rest += "\n"
        return rest[:-1], rest.count("\n")


def _element_take(elements: Iterator[str]) -> _Take:
    """A slicer over in-memory elements, one input line each."""
    def take(count: int) -> tuple[str, int]:
        chunk = list(islice(elements, count))
        return "\n".join(chunk), len(chunk)
    return take


@dataclass
class _Worker:
    process: BaseProcess
    conn: Connection                # the parent's end of the worker's pipe
    pending: deque                  # sequence numbers of its chunks in flight


class _ScanWorkers:
    """``jobs`` scan worker processes, driven from the calling thread.

    Each worker has one pipe; the parent waits on the pipes together with
    the process sentinels.  Chunks go to the worker with the fewest in
    flight, at most ``jobs *`` :data:`_IN_FLIGHT_PER_WORKER` in all,
    counted from the oldest result not yet returned.  Iterating returns
    results in input order; :meth:`drain` returns the following ones that
    are ready.  A worker's exception is re-raised with its own type; a
    worker that dies raises :class:`ScanWorkerError`.
    """

    def __init__(self, context, jobs: int, chunks: Iterator[tuple[str, int]], args: tuple):
        self._chunks: Iterator[tuple[str, int]] | None = chunks
        self._window = jobs * _IN_FLIGHT_PER_WORKER
        self._sent = self._done = 0     # sequence numbers: next to send, next to return
        self._results: dict[int, tuple] = {}
        self._workers: list[_Worker] = []
        self._owner: dict = {}
        fork = context.get_start_method() == "fork"
        state = args if fork else pickle.dumps(args)
        try:
            for _ in range(jobs):
                ours, theirs = context.Pipe()
                inherited = [w.conn for w in self._workers] + [ours] if fork else []
                process = context.Process(target=_scan_worker, daemon=True,
                                          args=(theirs, inherited, state))
                process.start()
                theirs.close()
                self._workers.append(_Worker(process, ours, deque()))
                self._owner[ours] = self._owner[process.sentinel] = self._workers[-1]
        except BaseException:
            self.close()
            raise
        self._waitables = list(self._owner)

    def __iter__(self) -> "_ScanWorkers":
        return self

    def __next__(self) -> tuple:
        while self._done not in self._results:
            self._send()
            if self._done == self._sent:
                raise StopIteration
            self._receive(None)
        return self._pop()

    def drain(self) -> list[tuple]:
        """Read every result that is ready, return those that follow the
        last one returned, and hand out chunks in their place, so the
        workers stay busy while the caller commits them."""
        while self._receive(0):
            pass
        batch = []
        while self._done in self._results:
            batch.append(self._pop())
        self._send()
        return batch

    def _pop(self) -> tuple:
        self._done += 1
        return self._results.pop(self._done - 1)

    def _send(self) -> None:
        while self._chunks is not None and self._sent - self._done < self._window:
            chunk = next(self._chunks, None)
            if chunk is None:
                self._chunks = None
                return
            worker = min(self._workers, key=lambda w: len(w.pending))
            try:
                worker.conn.send(chunk)
            except OSError:
                self._fail(worker)
            worker.pending.append(self._sent)
            self._sent += 1

    def _receive(self, timeout: float | None) -> bool:
        """Read one message from each pipe ready within *timeout*."""
        ready = wait(self._waitables, timeout)
        for handle in ready:
            worker = self._owner[handle]
            if handle is not worker.conn:
                self._fail(worker)
            try:
                message = worker.conn.recv()
            except (EOFError, OSError):
                self._fail(worker)
            if isinstance(message, _Failure):
                message.reraise()
            self._results[worker.pending.popleft()] = message
        return bool(ready)

    def _fail(self, worker: _Worker) -> NoReturn:
        """Raise why *worker* stopped: the exception it sent, else its end."""
        failure = None
        try:
            while failure is None and worker.conn.poll():
                message = worker.conn.recv()
                if isinstance(message, _Failure):
                    failure = message
        except (EOFError, OSError):
            pass
        if failure is not None:
            failure.reraise()
        process = worker.process
        process.join(_EXIT_WAIT_S)
        code = process.exitcode
        if code is None:
            ending = "closed its pipe"
        elif code < 0:
            ending = f"was killed by {signal.Signals(-code).name}"
        else:
            ending = f"exited with status {code}"
        raise ScanWorkerError(f"scan worker {process.pid} {ending} before returning its chunks")

    def close(self) -> None:
        """Stop the workers: idle ones read end-of-file, busy ones are terminated."""
        for worker in self._workers:
            if worker.pending and worker.process.is_alive():
                worker.process.terminate()
            worker.conn.close()
        for worker in self._workers:
            worker.process.join()


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
        prepared: MmapPreparedReferences | None = None,
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
        for batch in self._batches(_element_take(iter(domains)), render=False):
            for detections in self._fold(batch, stats):
                report.extend(detections)
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

            for batch in self._batches(take, render=True):
                sink.commit(
                    self._fold(batch, stats),
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

    def _batches(self, take: _Take, *, render: bool) -> Iterator[list[tuple]]:
        """Yield chunk results in input order, one commit's batch at a time.

        One worker yields every chunk on its own.  Several wait for the
        next result, then add every later result that is already ready,
        so a parent that falls behind its workers commits many chunks at
        once instead of one checkpoint per chunk.  *render* makes each
        result carry its sink lines, answered from the process's outcome
        memo where it can be (see :func:`_process_chunk`).
        """
        chunks = iter(partial(take, self.chunk_size), ("", 0))
        # Build the batch kernel up front: with several workers so none of
        # them re-runs the fold table's full-code-space scan (fork children
        # inherit the kernel, spawn and forkserver children get the table
        # memoized on the finder they are sent), and whenever the prepared
        # references are attached from an index directory, whose fold-table
        # sidecar a warm run then loads instead of rebuilding.
        index_dir = self.prepared.index_dir
        if self.jobs > 1 or index_dir is not None:
            kernel_for(self.finder.matcher, self.prepared, cache_dir=index_dir)
        if self.jobs == 1:
            memo: dict[str, str | None] | None = {} if render else None
            for chunk in chunks:
                yield [_process_chunk(self.finder, self.prepared, chunk, self.idn_only, memo)]
            return
        context = pool_context(self.start_method)
        workers = _ScanWorkers(context, self.jobs, chunks,
                               (self.finder, self.prepared, self.idn_only, render))
        try:
            for first in workers:
                yield [first, *workers.drain()]
        finally:
            workers.close()

    @staticmethod
    def _fold(batch: list[tuple], stats: ScanStats) -> list:
        """Count one batch of chunk results into *stats*; returns each
        chunk's ``found`` (its detections or its sink lines)."""
        found = []
        for chunk_found, detections, raw_lines, domains_seen, idn_count, skipped in batch:
            found.append(chunk_found)
            stats.detection_count += detections
            stats.lines_done += raw_lines
            stats.domains_seen += domains_seen
            stats.idn_count += idn_count
            stats.skipped_count += skipped
        stats.chunks_done += len(batch)
        stats.commits += 1
        return found

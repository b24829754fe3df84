"""Durable artifacts: atomic writes, JSON checkpoints, checkpointed logs.

Every file the repo serves or resumes from makes its crash-safety
decisions here:

* whole-file artifacts (the SimChar cache, ``refindex-*.idx``, fold-table
  sidecars, checkpoints) go through :func:`atomic_write`, so a reader
  sees the old file or the new one, never a torn write;
* :class:`Checkpoint` dataclasses save through :func:`atomic_write` and
  load as ``None`` when the file is missing, corrupt, of another version,
  or has a field of the wrong type;
* :class:`CheckpointedLog` is an append-only JSONL log (scan sink, stage
  sink, timeline store) whose durable prefix a checkpoint records, with
  one resume protocol: refuse when the checkpointed prefix cannot be
  trusted, otherwise truncate the torn or uncheckpointed tail.

Durability is flush-level: nothing here calls ``fsync``.  A killed
process never tears an artifact or desynchronises a log from its
checkpoint; the recovery matrix is tabulated in ``docs/OPERATIONS.md``.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import tempfile
import types
import typing
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, ClassVar, Generic, Iterable, TextIO, TypeVar

__all__ = [
    "Checkpoint",
    "CheckpointedLog",
    "SinkRecovery",
    "artifact_checksum",
    "atomic_write",
    "json_record",
    "recover_sink",
]


def atomic_write(path: str | os.PathLike, data: bytes | Iterable[bytes]) -> None:
    """Replace *path* with *data* so readers see the old file or the new one.

    Writes a temp file in the destination directory (``os.replace`` is
    atomic only within one filesystem), renames it over *path*, and
    unlinks the temp file when anything fails.  *data* is one bytes object
    or an iterable of chunks, so a large artifact can be streamed out.
    """
    path = Path(path)
    fd, temp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            if isinstance(data, bytes):
                handle.write(data)
            else:
                handle.writelines(data)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def artifact_checksum(header: dict, body: bytes) -> str:
    """SHA-256 over an artifact's header fields and its *body*.

    The header goes in as canonical JSON (sorted keys) without its own
    ``sha256`` field, so a damaged reported figure reads as a mismatch just
    like a damaged body byte does.
    """
    covered = {name: value for name, value in header.items() if name != "sha256"}
    hasher = hashlib.sha256(json.dumps(covered, sort_keys=True, ensure_ascii=False).encode("utf-8"))
    hasher.update(b"\n")
    hasher.update(body)
    return hasher.hexdigest()


# -- versioned JSON checkpoints ------------------------------------------------


#: The types ``json.loads`` gives a scalar; conformance to one of them is an
#: exact type test, which also keeps ``True`` from passing as an ``int``.
_JSON_SCALARS = (str, int, float, bool, type(None))


@functools.cache
def _checker(hint: Any) -> Callable[[Any], bool]:
    """Predicate: does a JSON-decoded value match the type annotation *hint*?

    Resolved once per hint, so a walk over a large field never inspects
    the annotation per element.
    """
    origin = typing.get_origin(hint)
    if origin in (types.UnionType, typing.Union):
        arms = tuple(_checker(arm) for arm in typing.get_args(hint))
        return lambda value: any(arm(value) for arm in arms)
    if origin is dict:
        key_hint, value_hint = typing.get_args(hint)
        keys_ok, values_ok = _all_checker(key_hint), _all_checker(value_hint)
        return lambda value: (isinstance(value, dict) and keys_ok(value.keys())
                              and values_ok(value.values()))
    if origin is list:
        (item_hint,) = typing.get_args(hint)
        items_ok = _all_checker(item_hint)
        return lambda value: isinstance(value, list) and items_ok(value)
    if hint in _JSON_SCALARS:
        return lambda value: type(value) is hint
    return lambda value: isinstance(value, hint)


@functools.cache
def _all_checker(hint: Any) -> Callable[[Iterable[Any]], bool]:
    """Predicate: does every value of an iterable match *hint*?

    Scalars, and lists of them, are checked with C-level
    ``set(map(type, ...))`` passes rather than one call per element.
    """
    if hint in _JSON_SCALARS:
        return lambda values: set(map(type, values)) <= {hint}
    if typing.get_origin(hint) is list:
        (item_hint,) = typing.get_args(hint)
        items_ok = _all_checker(item_hint)

        def lists_ok(values: Iterable[Any]) -> bool:
            values = list(values)
            return (set(map(type, values)) <= {list}
                    and items_ok(itertools.chain.from_iterable(values)))
        return lists_ok
    check = _checker(hint)
    return lambda values: all(map(check, values))


@functools.cache
def _field_hints(cls: Any) -> dict[str, Any]:
    """Field name -> resolved type annotation of a checkpoint dataclass."""
    hints = typing.get_type_hints(cls)
    return {field.name: hints[field.name] for field in fields(cls)}


C = TypeVar("C", bound="Checkpoint")


class Checkpoint:
    """Base of the versioned JSON checkpoint dataclasses.

    A subclass is a dataclass with a ``version`` field whose default is
    the current format version; a file of any other version loads as
    ``None``, so bumping the default makes old checkpoints refuse to
    resume.  The saved form is the fields as one JSON object with sorted
    keys.
    """

    #: ``json.dumps`` separators of the saved form (``None``: the defaults).
    JSON_SEPARATORS: ClassVar[tuple[str, str] | None] = None
    #: Format version; the subclass field's default is the current one.
    version: int

    def save(self, path: str | os.PathLike) -> None:
        """Atomically persist through :func:`atomic_write`."""
        # Field by field rather than dataclasses.asdict, which would
        # deep-copy a large field (a track checkpoint's delegation map).
        payload = {name: getattr(self, name) for name in _field_hints(type(self))}
        text = json.dumps(payload, sort_keys=True, separators=self.JSON_SEPARATORS)
        atomic_write(path, text.encode("utf-8"))

    @classmethod
    def load(cls: type[C], path: str | os.PathLike) -> C | None:
        """Read a checkpoint; missing, corrupt or mistyped files read as ``None``."""
        try:
            payload = json.loads(Path(path).read_bytes())
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("version") != cls.version:
            return None
        hints = _field_hints(cls)
        for name, value in payload.items():
            if name not in hints or not _checker(hints[name])(value):
                return None
        try:
            return cls(**payload)
        except TypeError:           # a required field is missing
            return None


# -- checkpointed append logs --------------------------------------------------


def json_record(line: bytes) -> dict | None:
    """The JSON object on one complete log line, or ``None``.

    ``None`` means the line is torn (no trailing newline: the writer died
    mid-line), is not JSON, or is not an object.
    """
    if not line.endswith(b"\n"):
        return None
    try:
        payload = json.loads(line)
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None


def _is_json_record_line(line: bytes) -> bool:
    return json_record(line) is not None


@dataclass(frozen=True)
class SinkRecovery:
    """Outcome of validating an existing JSONL log before resuming."""

    valid_count: int               # lines kept
    dropped_corrupt: int           # truncated/unparsable lines removed
    dropped_uncheckpointed: int    # valid lines past the checkpoint removed
    keep_bytes: int = 0            # byte length of the kept prefix

    @property
    def dropped(self) -> int:
        """Total lines removed from the log."""
        return self.dropped_corrupt + self.dropped_uncheckpointed


def recover_sink(
    path: str | os.PathLike,
    *,
    expected_lines: int | None = None,
    dry_run: bool = False,
    line_validator: Callable[[bytes], bool] | None = None,
) -> SinkRecovery:
    """Validate a JSONL log, truncating trailing damage (unless *dry_run*).

    Keeps the longest prefix of lines accepted by *line_validator* (by
    default: complete lines holding a JSON object), capped at
    *expected_lines* (the checkpoint's durable count) when given — valid
    lines past the checkpoint belong to a chunk that was flushed but never
    checkpointed and would be re-emitted by the resumed run.  With
    ``dry_run=True`` the file is only inspected, never modified, so a
    caller can refuse to proceed before any data is discarded.
    """
    path = Path(path)
    if line_validator is None:
        line_validator = _is_json_record_line
    if not path.exists():
        return SinkRecovery(0, 0, 0)
    valid = 0
    keep_bytes = 0
    dropped_corrupt = 0
    dropped_uncheckpointed = 0
    with open(path, "rb") as handle:
        for line in handle:
            if not line_validator(line):
                dropped_corrupt += 1
                break
            if expected_lines is not None and valid >= expected_lines:
                dropped_uncheckpointed += 1
                continue
            valid += 1
            keep_bytes += len(line)
        # Anything after a corrupt line is unaccounted for; count it too.
        if dropped_corrupt:
            dropped_corrupt += sum(1 for _ in handle)
    recovery = SinkRecovery(valid, dropped_corrupt, dropped_uncheckpointed, keep_bytes)
    # Every byte past the kept prefix belongs to a dropped line.
    if not dry_run and recovery.dropped:
        os.truncate(path, keep_bytes)
    return recovery


class CheckpointedLog(Generic[C]):
    """An append-only JSONL log whose durable prefix a checkpoint records.

    :meth:`commit` appends lines, flushes, then saves the checkpoint, so a
    checkpoint never counts a line that was not written before it.  A
    resumed run therefore trusts exactly the checkpointed prefix:

    * no usable checkpoint while the log is non-empty → refuse;
    * damage inside the checkpointed prefix → refuse, file untouched;
    * otherwise the torn or uncheckpointed tail is truncated and the log
      reopened for append.

    A fresh start unlinks the stale checkpoint, then truncates the log.
    Refusals raise *error* (the caller's resume exception class).
    *count_field* names the checkpoint field holding the durable line
    count; *line_validator* decides which lines are intact.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        checkpoint_path: str | os.PathLike,
        checkpoint_type: type[C],
        *,
        count_field: str,
        error: type[Exception],
        line_validator: Callable[[bytes], bool] | None = None,
    ) -> None:
        self.path = Path(path)
        self.checkpoint_path = Path(checkpoint_path)
        self.checkpoint_type = checkpoint_type
        self.count_field = count_field
        self.error = error
        self.line_validator = line_validator
        self._handle: TextIO | None = None

    def load(self, *, resume: bool) -> C | None:
        """The checkpoint to resume from, or ``None`` for a fresh start.

        Raises *error* when resuming finds no usable checkpoint but a
        non-empty log: starting fresh would silently destroy durable
        results, so the user must decide.
        """
        if not resume:
            return None
        checkpoint = self.checkpoint_type.load(self.checkpoint_path)
        if checkpoint is None and self.path.exists() and self.path.stat().st_size:
            raise self.error(
                f"no usable checkpoint at {self.checkpoint_path} but {self.path} is "
                "non-empty; re-run without --resume to overwrite it"
            )
        return checkpoint

    def open(self, checkpoint: C | None) -> int:
        """Open the log for appending; returns the number of lines dropped.

        With a *checkpoint* the log is first inspected read-only and
        refused if it holds fewer intact lines than the checkpoint
        recorded; only then is the tail past the checkpointed prefix
        truncated.  With ``None`` the log starts empty.
        """
        if checkpoint is None:
            # Unlink first: a crash in between must never pair the old
            # checkpoint with the new, empty log.
            try:
                self.checkpoint_path.unlink()
            except OSError:
                pass
            self._handle = open(self.path, "w", encoding="utf-8")
            return 0
        expected = getattr(checkpoint, self.count_field)
        recovery = recover_sink(
            self.path, expected_lines=expected, dry_run=True,
            line_validator=self.line_validator,
        )
        if recovery.valid_count < expected:
            raise self.error(
                f"{self.path} holds {recovery.valid_count} intact lines but the "
                f"checkpoint at {self.checkpoint_path} recorded {expected}; the log was "
                "damaged inside the checkpointed prefix — re-run without --resume to "
                "start over"
            )
        if recovery.dropped:
            os.truncate(self.path, recovery.keep_bytes)
        self._handle = open(self.path, "a", encoding="utf-8")
        return recovery.dropped

    def commit(self, lines: Iterable[str], checkpoint: C) -> None:
        """Append *lines* (each ending in a newline), flush, then checkpoint."""
        if self._handle is None:
            raise ValueError(f"{self.path} is not open")
        self._handle.writelines(lines)
        self._handle.flush()
        checkpoint.save(self.checkpoint_path)

    def close(self) -> None:
        """Close the log file (the checkpoint is already on disk)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CheckpointedLog[C]":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

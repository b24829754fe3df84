"""Persistable reference index — the serving-side artifact of Step III.

The paper frames ShamFinder as a framework others can *query*
("IdentifyHomographs"), but a query is only cheap once the reference list
has been prepared: parsed, case-folded, and bucketed by skeleton
(:class:`~.shamfinder.PreparedReferences`).  Re-running that warm-up per
process is what makes "is this one domain a homograph?" cost a full build.

This module snapshots the prepared state to disk with the same artifact
idiom as the SimChar cache (:mod:`repro.homoglyph.cache`): the index is
fingerprinted by everything that determines its content, corrupt or
mismatched files read as misses (the caller rebuilds), and writes go
through a temp-file rename so readers never see a partial artifact.

The fingerprint covers:

* the **homoglyph database** content digest — which transitively covers the
  font digest, build threshold, and UC table that produced the database
  (two databases with equal digests yield identical detection results);
* the **reference list** (hash of the exact domains, in order — a
  reordered list reads as a miss and rebuilds, which only costs time);
* the artifact **format version**, bumped whenever the layout changes.

On-disk layout (one file per fingerprint, ``refindex-<digest>.idx``):
line 1 is a JSON header (magic, version, fingerprint fields, counts,
per-section byte lengths, and one checksum over every other header field
and the body); the body is eight sections joined by newlines — four UTF-8
text sections (folded labels, their reference-domain groups, bucket
skeletons, bucket members), each sorted by key and packed with C0
separators that cannot occur in IDNA labels, then their four offset
directories, each an array of little-endian uint64 record END offsets.

Every prepared reference list is probed in this layout: the builder's
:class:`~.shamfinder.PreparedReferences` only feeds :func:`encode_index`,
and :class:`MmapPreparedReferences` attaches to the encoded bytes — to
the ``mmap`` of a stored file (:meth:`ReferenceIndexStore.load_mmap`),
or in memory when there is no store or it cannot be written
(:func:`build_reference_index`).  Attaching costs one header parse plus
structural checks (and, under ``verify=True``, one checksum pass), not
an O(n) body build, so N serving worker processes share one page-cache
copy of a stored index.  Each key section (folded labels, bucket
skeletons) gets a *key map* on first use — the section decoded once,
split once, and ``dict(zip(keys, range(count)))`` — so a probe is a dict
lookup; values are read record by record through the offset directories
(sections 4-7).

Only the current format is read: a file of another version (such as the
pre-mmap version-1 layout, or version 2 with its zero-padded decimal
directories and a checksum over the body alone) has a different
fingerprint, reads as a miss, and is rebuilt.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import warnings
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..durable import artifact_checksum, atomic_write
from ..idn.domain import DomainName
from .shamfinder import PreparedReferences, ShamFinder
from .skeleton import PACK_SEPARATOR, CharacterClasses

__all__ = [
    "INDEX_FORMAT_VERSION",
    "INDEX_MAGIC",
    "IndexKey",
    "ReferenceIndex",
    "ReferenceIndexStore",
    "MmapPreparedReferences",
    "MmapSkeletonIndex",
    "reference_list_hash",
    "key_for",
    "build_reference_index",
    "cached_reference_index",
    "encode_index",
]

#: Bump when the on-disk layout changes; old files then read as misses.
INDEX_FORMAT_VERSION = 3

INDEX_MAGIC = "shamfinder-reference-index"

#: Separates the members of one body section (labels, skeletons) — the
#: same byte the bucket/reference groups pack with, so the format has one
#: load-bearing separator constant (change it only with a version bump).
_FIELD_SEPARATOR = PACK_SEPARATOR
#: Separates the groups of one body section (reference groups, buckets).
_GROUP_SEPARATOR = "\x1e"

#: One offset-directory entry: a little-endian uint64 byte offset, read in
#: place with ``unpack_from`` (which keeps no buffer exported, so
#: :meth:`MmapPreparedReferences.close` can still release the map).
_OFFSET = struct.Struct("<Q")
_OFFSET_WIDTH = _OFFSET.size
#: Two adjacent entries: the end of record *i - 1* and of record *i*.
_SPAN = struct.Struct("<QQ")


def reference_list_hash(reference: Iterable[str | DomainName]) -> str:
    """Stable identity of a raw reference list (order-sensitive).

    Hashing in input order keeps the warm path linear with a single C-level
    join; a reordered list therefore fingerprints differently and rebuilds,
    which is always safe — just not free.
    """
    joined = "\n".join(map(str, reference))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class IndexKey:
    """Everything that determines the content of a prepared reference index."""

    database_digest: str
    reference_hash: str
    # lint: fingerprint-exempt(format constant bumped by hand, not a config input)
    format_version: int = INDEX_FORMAT_VERSION
    #: Source-selection config (:attr:`ShamFinder.source_config`): ``""``
    #: for the historical SimChar∪UC default and then **omitted** from the
    #: canonical form, so every digest and artifact header produced before
    #: source selection existed stays byte-identical; any other selection
    #: (e.g. enabling ``invisible``) fingerprints — and caches —
    #: differently.
    sources: str = ""

    @property
    def digest(self) -> str:
        """Stable hex digest used as the artifact file name.

        Memoized on the instance: the query hot path reads the index
        fingerprint (= this digest) on every cache probe, and recomputing
        the canonical JSON + SHA-256 per query used to cost nearly half
        the per-query time.  The fields are frozen, so the memo can never
        go stale.
        """
        cached = self.__dict__.get("_digest")
        if cached is None:
            canonical = json.dumps(self.as_dict(), sort_keys=True)
            cached = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:24]
            object.__setattr__(self, "_digest", cached)
        return cached

    # lint: fingerprint(IndexKey)
    def as_dict(self) -> dict:
        payload = asdict(self)
        if not payload["sources"]:
            del payload["sources"]
        return payload


# lint: fingerprint(IndexKey)
def key_for(finder: ShamFinder, reference: Sequence[str | DomainName]) -> IndexKey:
    """Compute the artifact key for *finder*'s database over *reference*.

    Marked ``# lint: fingerprint(IndexKey)``: repro-lint's
    fingerprint-completeness rule fails the build if a field added to
    :class:`IndexKey` is not threaded through here (docs/LINT.md) — the
    machine-checked form of PR 7's hand-threading of ``source_config``.
    """
    return IndexKey(
        database_digest=finder.database.content_digest(),
        reference_hash=reference_list_hash(reference),
        sources=getattr(finder, "source_config", "") or "",
    )


@dataclass(frozen=True)
class ReferenceIndex:
    """A prepared reference set bound to the fingerprint that produced it."""

    prepared: MmapPreparedReferences
    key: IndexKey
    #: True when this instance came off disk rather than a fresh build.
    from_cache: bool = False

    @property
    def mapped(self) -> bool:
        """True when the prepared state maps a stored artifact file, False
        when it holds the artifact bytes in memory."""
        return self.prepared.path is not None

    @property
    def fingerprint(self) -> str:
        """The artifact digest — what the query cache invalidates on."""
        return self.key.digest

    @property
    def label_count(self) -> int:
        """Number of distinct folded reference labels."""
        return len(self.prepared.labels)

    @property
    def domain_count(self) -> int:
        """Number of reference domains that parsed (the paper's |M|)."""
        return self.prepared.domain_count


def build_reference_index(
    finder: ShamFinder,
    reference: Iterable[str | DomainName],
) -> ReferenceIndex:
    """Prepare *reference*, bound to its fingerprint and attached to its
    artifact bytes in memory (``path`` and ``index_dir`` are ``None``)."""
    items = reference if isinstance(reference, list) else list(reference)
    return _build(finder, items, key_for(finder, items))


def _build(finder: ShamFinder, reference: list, key: IndexKey) -> ReferenceIndex:
    classes = finder.matcher.classes
    return _attach(encode_index(PreparedReferences.build(reference, classes), key),
                   None, classes, key, verify=False)


# -- mmap readers -------------------------------------------------------------


class _PackedSection:
    """One sorted, separator-joined artifact section read in place.

    Records live in ``buf[start:start+length]`` joined by *separator*; the
    offset directory at ``dir_start`` holds each record's END byte offset
    (relative to the section start) as a little-endian uint64, so record
    *i* is ``buf[off(i-1)+1 : off(i)]`` — O(1) addressing.  A key section
    is probed through its key map (:meth:`find`), built on first use; a
    value section is only read record by record.
    """

    __slots__ = ("buf", "start", "length", "dir_start", "count", "separator", "_keyed")

    def __init__(self, buf, start: int, length: int, dir_start: int, count: int,
                 separator: str) -> None:
        self.buf = buf
        self.start = start
        self.length = length
        self.dir_start = dir_start
        self.count = count
        self.separator = separator
        #: ``(records, position of each record)``, built by :meth:`_key_map`.
        self._keyed: tuple[list[str], dict[str, int]] | None = None

    def record(self, i: int) -> str:
        """Record *i*, decoded."""
        if i:
            lo, hi = _SPAN.unpack_from(self.buf, self.dir_start + (i - 1) * _OFFSET_WIDTH)
            lo += 1   # past the separator
        else:
            lo, hi = 0, _OFFSET.unpack_from(self.buf, self.dir_start)[0]
        return self.buf[self.start + lo:self.start + hi].decode("utf-8")

    def _key_map(self) -> tuple[list[str], dict[str, int]]:
        """Every record decoded, and each one's position: one bytes copy
        of the section, one split and one ``dict`` build.

        :func:`_attach` checked that the section holds one separator fewer
        than its records.  Two threads racing here build equal maps, and
        either may win.
        """
        keyed = self._keyed
        if keyed is None:
            records = []
            if self.count:
                section = self.buf[self.start:self.start + self.length].decode("utf-8")
                records = section.split(self.separator)
            keyed = self._keyed = (records, dict(zip(records, range(self.count))))
        return keyed

    def find(self, key: str) -> int:
        """Position of *key*, or -1."""
        return self._key_map()[1].get(key, -1)

    def records(self) -> list[str]:
        """Every record, decoded, in stored (sorted) order — shared, do not mutate."""
        return self._key_map()[0]


class _MmapLabelView:
    """Read-only mapping view over the label section of an attached artifact.

    Supports what the query path uses of a label → packed-domains mapping:
    ``len``, ``get``, containment, and iteration — each ``get`` is one
    key-map lookup plus one record read.
    """

    __slots__ = ("_keys", "_values")

    def __init__(self, keys: _PackedSection, values: _PackedSection) -> None:
        self._keys = keys
        self._values = values

    def __len__(self) -> int:
        return self._keys.count

    def __iter__(self) -> Iterator[str]:
        return iter(self._keys.records())

    def __contains__(self, label: object) -> bool:
        return isinstance(label, str) and self._keys.find(label) >= 0

    def get(self, label: str, default=None):
        i = self._keys.find(label)
        if i < 0:
            return default
        return self._values.record(i)


class MmapSkeletonIndex:
    """Read-only skeleton hash-join index probing an attached artifact.

    The query form of the builder's :class:`~.skeleton.SkeletonIndex`
    (``classes``, :meth:`candidates_for`, :meth:`buckets`,
    :meth:`skeletons`, ``len``); mutation is not supported — build a
    fresh index instead.
    """

    def __init__(
        self,
        classes: CharacterClasses,
        keys: _PackedSection,
        values: _PackedSection,
        size: int,
    ) -> None:
        self.classes = classes
        self._keys = keys
        self._values = values
        self._size = size

    def candidates_for(self, folded_label: str) -> list[str]:
        """References that could match *folded_label* (superset of matches)."""
        i = self._keys.find(self.classes.skeletonize(folded_label))
        if i < 0:
            return []
        return self._values.record(i).split(PACK_SEPARATOR)

    def buckets(self) -> Iterator[tuple[str, list[str]]]:
        """Yield ``(skeleton, members)`` in stored (sorted) order."""
        for i, skeleton in enumerate(self._keys.records()):
            yield skeleton, self._values.record(i).split(PACK_SEPARATOR)

    def skeletons(self) -> list[str]:
        """All bucket keys, decoded, without touching any members."""
        return list(self._keys.records())

    @property
    def bucket_count(self) -> int:
        return self._keys.count

    def __len__(self) -> int:
        return self._size


class MmapPreparedReferences:
    """Prepared references probing the ``refindex`` artifact in place.

    The one query form of a prepared reference list (``labels``,
    ``index``, ``domain_count``, :meth:`references_for`).  The artifact is
    either the ``mmap`` of a stored file (``path`` set) or the encoded
    bytes in memory (``path`` ``None``); both are probed the same way.
    Opening is one header parse, and every probe is a key-map lookup plus
    a record read — on a stored file, the shared page-cache copy, which is
    what lets N serving worker processes attach to one index with no
    per-worker build (:mod:`repro.serving`).

    Instances hold their buffer for their lifetime; they are safe for
    concurrent readers and fork-inherited children.  A pickled instance
    re-attaches by its path when file-backed (the body is not copied) and
    carries its bytes otherwise, so a spawned scan worker gets the same
    index.  :meth:`close` (or GC) releases a map — the key maps hold
    decoded copies, never a view of it.
    """

    def __init__(
        self,
        buf: mmap.mmap | bytes,
        labels: _MmapLabelView,
        index: MmapSkeletonIndex,
        domain_count: int,
        path: Path | None,
    ) -> None:
        self._buf = buf
        self.labels = labels
        self.index = index
        self.domain_count = domain_count
        #: The artifact file backing the map (what serving workers reopen),
        #: or ``None`` when the bytes live in memory.
        self.path = path

    @property
    def index_dir(self) -> Path | None:
        """The directory holding the artifact (and the fold-table sidecar),
        or ``None`` when the index was never stored."""
        return None if self.path is None else Path(self.path).parent

    def __reduce__(self):
        source = self._buf if self.path is None else str(self.path)
        return _reattach, (source, self.index.classes)

    def references_for(self, folded_label: str) -> tuple[str, ...]:
        """The reference domains (canonical ASCII) carrying *folded_label*."""
        group = self.labels.get(folded_label)
        if not group:
            return ()
        return tuple(group.split(PACK_SEPARATOR))

    def close(self) -> None:
        """Release a file-backed index's map (idempotent); bytes need no release."""
        if not isinstance(self._buf, mmap.mmap):
            return
        try:
            self._buf.close()
        except (BufferError, ValueError):  # still referenced / already closed
            pass


# -- the artifact store -------------------------------------------------------


class ReferenceIndexStore:
    """Directory of persisted reference indexes keyed by :class:`IndexKey`."""

    def __init__(self, index_dir: str | os.PathLike) -> None:
        self.index_dir = Path(index_dir)

    def path_for(self, key: IndexKey) -> Path:
        """Artifact file path for *key* (the file may not exist yet)."""
        return self.index_dir / f"refindex-{key.digest}.idx"

    # -- store --------------------------------------------------------------

    def store(self, index: ReferenceIndex) -> Path:
        """Write the artifact *index* is attached to, as it is; returns the path.

        The file is written to a temp name and renamed so a concurrently
        cold-starting reader never sees a partially written artifact.
        """
        self.index_dir.mkdir(parents=True, exist_ok=True)
        path = self.path_for(index.key)
        atomic_write(path, [index.prepared._buf])
        return path

    # -- attach -------------------------------------------------------------

    def load_mmap(
        self,
        key: IndexKey,
        finder: ShamFinder,
        *,
        verify: bool = False,
    ) -> ReferenceIndex | None:
        """Map the artifact for *key* in place, or ``None`` on miss.

        Nothing per-reference is materialised: the file is ``mmap``-ed and
        probed in place, so opening costs a header parse regardless of
        index size (the key maps follow on first probe).  The body
        checksum is only recomputed under ``verify=True`` (an O(n) pass)
        — a serving parent
        typically verifies once and lets its forked/reattached workers
        trust the same inode.  Structural invariants (section lengths,
        directory widths, terminal offsets) are always checked, so a
        truncated file still reads as a miss.
        """
        return _open_mmap(self.path_for(key), finder.matcher.classes, key, verify)

    def load_path(
        self,
        path: str | os.PathLike,
        finder: ShamFinder,
        *,
        verify: bool = False,
    ) -> ReferenceIndex | None:
        """Map an artifact by file path, taking the key from its header.

        The serving worker-pool attach path: the parent hands workers the
        artifact *path* plus the expected fingerprint, and each worker maps
        the same inode zero-copy (:mod:`repro.serving.server`).
        """
        return _open_mmap(Path(path), finder.matcher.classes, None, verify)

    # -- maintenance --------------------------------------------------------

    def entries(self) -> list[Path]:
        """Existing artifact files, newest first."""
        if not self.index_dir.is_dir():
            return []

        def mtime(path: Path) -> float:
            try:
                return path.stat().st_mtime
            except OSError:   # deleted concurrently — sort it last
                return 0.0

        return sorted(self.index_dir.glob("refindex-*.idx"), key=mtime, reverse=True)

    def clear(self) -> int:
        """Delete all artifacts; returns the number removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


def _open_mmap(
    path: Path,
    classes: CharacterClasses,
    expect_key: IndexKey | None,
    verify: bool,
) -> ReferenceIndex | None:
    """Attach to the ``mmap`` of the artifact file at *path*, or ``None``
    when it is missing or unsound."""
    try:
        with open(path, "rb") as handle:
            buf = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError):   # missing file or empty file
        return None
    try:
        index = _attach(buf, path, classes, expect_key, verify)
    except (ValueError, KeyError, TypeError, AttributeError, struct.error):
        index = None
    if index is None:
        buf.close()
    return index


def _reattach(source: str | bytes, classes: CharacterClasses) -> MmapPreparedReferences:
    """Unpickle an attached index: map the artifact file again when
    *source* is its path, or attach to *source* when it is the bytes."""
    if isinstance(source, bytes):
        return _attach(source, None, classes, None, verify=False).prepared
    index = _open_mmap(Path(source), classes, None, verify=False)
    if index is None:
        raise RuntimeError(f"could not attach reference index {source}")
    return index.prepared


def _attach(
    buf: mmap.mmap | bytes,
    path: Path | None,
    classes: CharacterClasses,
    expect_key: IndexKey | None,
    verify: bool,
) -> ReferenceIndex | None:
    """Probe views over the artifact in *buf*, read from the file at *path*
    (``None`` for bytes in memory), or ``None`` if it is unsound."""
    newline = buf.find(b"\n")
    if newline < 0:
        return None
    header = json.loads(buf[:newline].decode("utf-8"))
    key = expect_key
    if key is None:
        key = IndexKey(**header.get("key", {}))
    header = _checked_header(header, key)
    if header is None:
        return None
    body_start = newline + 1
    starts = _section_starts(header, len(buf) - body_start)
    if starts is None:
        return None
    if verify and artifact_checksum(header, buf[body_start:]) != header["sha256"]:
        return None
    starts = [body_start + start for start in starts]
    section_bytes = header["section_bytes"]
    label_count = header["label_count"]
    bucket_count = header["bucket_count"]
    for count, data_i, dir_i in ((label_count, 0, 4), (label_count, 1, 5),
                                 (bucket_count, 2, 6), (bucket_count, 3, 7)):
        if section_bytes[dir_i] != count * _OFFSET_WIDTH:
            return None
        if count and _OFFSET.unpack_from(
            buf, starts[dir_i] + (count - 1) * _OFFSET_WIDTH,
        )[0] != section_bytes[data_i]:
            return None   # directory disagrees with its section
    for count, data_i in ((label_count, 0), (bucket_count, 2)):
        # A key section is split on its separator (_PackedSection._key_map):
        # it must hold one fewer than its records, and be empty with none.
        keys = buf[starts[data_i]:starts[data_i] + section_bytes[data_i]]
        if count and keys.count(_FIELD_SEPARATOR.encode()) != count - 1 or not count and keys:
            return None

    def section(count: int, data_i: int, separator: str) -> _PackedSection:
        return _PackedSection(buf, starts[data_i], section_bytes[data_i], starts[data_i + 4],
                              count, separator)

    labels = _MmapLabelView(section(label_count, 0, _FIELD_SEPARATOR),
                            section(label_count, 1, _GROUP_SEPARATOR))
    index = MmapSkeletonIndex(
        classes,
        section(bucket_count, 2, _FIELD_SEPARATOR),
        section(bucket_count, 3, _GROUP_SEPARATOR),
        header["entry_count"],
    )
    prepared = MmapPreparedReferences(buf, labels, index, header["domain_count"], path)
    return ReferenceIndex(prepared=prepared, key=key, from_cache=path is not None)


def encode_index(prepared: PreparedReferences, key: IndexKey) -> bytes:
    """The ``refindex`` artifact of the builder's *prepared* state under *key*.

    Sections are sorted by key; per-bucket member order is preserved, so
    detection results are byte-identical to the builder's.  A record that
    holds its section's separator (which no IDNA label or domain does)
    raises ``ValueError`` naming it: it would read back split.
    """
    labels = sorted(prepared.labels)
    groups = list(map(prepared.labels.get, labels))
    buckets = prepared.index.packed()
    bucket_keys = sorted(buckets)
    bucket_values = list(map(buckets.__getitem__, bucket_keys))

    records = (labels, groups, bucket_keys, bucket_values)
    separators = (_FIELD_SEPARATOR, _GROUP_SEPARATOR, _FIELD_SEPARATOR, _GROUP_SEPARATOR)
    sections = [separator.join(section).encode("utf-8")
                for separator, section in zip(separators, records)]
    sections += map(_offset_directory, records, sections, separators)
    body = b"\n".join(sections)
    header = {
        "magic": INDEX_MAGIC,
        "version": INDEX_FORMAT_VERSION,
        "key": key.as_dict(),
        "label_count": len(labels),
        "bucket_count": len(bucket_keys),
        "entry_count": len(prepared.index),
        "domain_count": prepared.domain_count,
        "section_bytes": [len(section) for section in sections],
    }
    del sections   # the body is copied once more below: two artifact-sized buffers, not three
    header["sha256"] = artifact_checksum(header, body)
    return (json.dumps(header, ensure_ascii=False) + "\n").encode("utf-8") + body


def _offset_directory(records: Sequence[str], section: bytes, separator: str) -> bytes:
    """END byte offsets of *records* within *section* — their join with
    *separator*, UTF-8 encoded — as ``<u8``; ``ValueError`` naming a
    record that holds *separator*."""
    if not records:
        return b""
    # Every record but the last ends where a separator byte starts.
    ends = np.flatnonzero(np.frombuffer(section, dtype=np.uint8) == ord(separator))
    if len(ends) + 1 != len(records):
        held = next(record for record in records if separator in record)
        raise ValueError(f"reference index record {held!r} holds its section separator "
                         f"{separator!r}")
    return np.append(ends, len(section)).astype("<u8").tobytes()


def _section_starts(header: dict, body_length: int) -> list[int] | None:
    """Body offsets of the eight sections, or None if ``section_bytes`` is unsound."""
    section_bytes = header["section_bytes"]
    if (not isinstance(section_bytes, list) or len(section_bytes) != 8
            or not all(isinstance(n, int) and n >= 0 for n in section_bytes)):
        return None
    # 8 sections + 7 joining newlines must exactly cover the body.
    if sum(section_bytes) + 7 != body_length:
        return None
    starts = []
    position = 0
    for length in section_bytes:
        starts.append(position)
        position += length + 1
    return starts


def _checked_header(header: dict, key: IndexKey) -> dict | None:
    """Validate a current-format header against *key*; None on any mismatch."""
    if not isinstance(header, dict):
        return None
    if header.get("magic") != INDEX_MAGIC:
        return None
    if header.get("version") != INDEX_FORMAT_VERSION:
        return None
    if header.get("key") != key.as_dict():
        return None
    for field in ("label_count", "bucket_count", "entry_count", "domain_count"):
        if not isinstance(header.get(field), int) or header[field] < 0:
            return None
    if not isinstance(header.get("sha256"), str):
        return None
    return header


def cached_reference_index(
    finder: ShamFinder,
    reference: Sequence[str | DomainName],
    store: ReferenceIndexStore | None,
    *,
    force: bool = False,
) -> tuple[ReferenceIndex, bool]:
    """Prepare through the store: ``(index, was_cache_hit)``.

    ``force=True`` skips the read (but still writes), and ``store=None``
    degrades to a plain in-memory build — the same contract as the SimChar
    cache's :func:`~repro.homoglyph.cache.cached_build`.  Whatever the
    store holds is attached as a map with a full checksum verification
    (this is its first open); a fresh build is written and then attached
    the same way.  A build the store cannot take stays attached to its
    bytes in memory.
    """
    if store is None:
        return build_reference_index(finder, reference), False
    key = key_for(finder, reference)
    if not force:
        cached = store.load_mmap(key, finder, verify=True)
        if cached is not None:
            return cached, True
    index = _build(finder, reference, key)
    try:
        store.store(index)
    except OSError as exc:
        # The store is an optimisation — never lose a completed build to an
        # unwritable/full index directory.
        warnings.warn(f"could not persist reference index to {store.index_dir}: {exc}",
                      stacklevel=2)
        return index, False
    mapped = store.load_mmap(key, finder, verify=True)
    if mapped is None:   # replaced or removed since the write
        return index, False
    return replace(mapped, from_cache=False), False

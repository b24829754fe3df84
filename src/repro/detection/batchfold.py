"""Vectorized batch fold/skeleton kernel for the detection hot path.

The scalar query path folds and skeletonizes one label at a time — a
Python loop per character through :func:`~repro.idn.idna_codec.fold_label`
and :meth:`~.skeleton.CharacterClasses.skeletonize` — then probes one
bucket.  At serving batch sizes that per-character work dominates.  This
module runs the same pipeline over a whole batch with numpy:

1. **translation table** (:class:`FoldTable`) — the composed mapping
   ``m(c) = representative(fold(c))`` is precomputed once per database as
   two parallel sorted ``uint32`` arrays and applied to the batch's code
   point array with one dense lookup (one ``np.searchsorted`` pass when a
   label holds a code point past U+FFFF);
2. **bucket join** (:class:`BatchFoldKernel`) — the folded skeletons are
   probed against the :class:`~.skeleton.SkeletonIndex` keys with a
   vectorized hash join: positional polynomial ``uint64`` hashes computed
   segment-wise over the batch (``np.add.reduceat``), membership via
   ``np.searchsorted`` against the pre-hashed sorted key array.  A hash
   collision can only create a false bucket *hit* — which routes the label
   to the scalar re-check — never a false miss;
3. **scalar re-check** — only labels whose skeleton *hits* a bucket (or
   that the table cannot decide) run the exact scalar Algorithm 1 path, so
   verdicts stay byte-identical to the scalar loop.

For whole *domains* the kernel goes one step further (both passes run in
:meth:`~.shamfinder.ShamFinder.join_batch`, the one batch front-end):
:meth:`BatchFoldKernel.domain_certain_miss` runs the entire fast-parse —
lowercase LDH shape checks, label splitting, registrable label extraction
— as numpy passes over one concatenated code point array, so a 20k-domain
batch costs ~25 numpy operations instead of 20k regex matches and string
slices.  The label rules are :mod:`repro.idn.idna_codec`'s, and
``tests/oracles/fast_domain.py`` spells the eligibility out as a regex;
ineligible domains are parsed and go to the label-level pass.

Why the table is exact: CPython's ``str.lower()`` has exactly one
context-sensitive mapping — Final_Sigma for U+03A3 — so for every other
code point the whole-string branch of ``fold_label`` agrees with the
per-character branch, and characters whose lowercase *expands* (U+0130)
are kept as-is by both.  Labels containing an out-of-table code point
(U+03A3, or a lone surrogate) are flagged and take the scalar path
unharmed.

With the ``invisible`` source selected, a bucket miss alone does not prove
"no match": the strip-and-rematch check can still fire.  The kernel
therefore also computes a conservative per-label *invisible risk* mask
(any table code point or any combining mark, classified once per distinct
code point in the batch) and only declares a certain miss when the label
carries no risk.

The table depends only on the homoglyph database (and the running
interpreter's Unicode version), not on the reference list, so it is
persisted as a small sidecar artifact next to the ``refindex-*.idx`` files
and re-validated on load against both fingerprints.
"""

from __future__ import annotations

import hashlib
import json
import os
import unicodedata
import weakref
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..durable import atomic_write
from ..homoglyph.invisible import _MARK_CATEGORIES, InvisibleTable
from ..idn.idna_codec import LDH_CHARS, MAX_DOMAIN_OCTETS, MAX_LABEL_OCTETS
from ..idn.punycode import decode_batch
from .skeleton import CharacterClasses

if TYPE_CHECKING:   # pragma: no cover - typing only
    from .algorithm import HomographMatcher

__all__ = [
    "FOLD_TABLE_VERSION",
    "FOLD_TABLE_MAGIC",
    "MIN_KERNEL_BATCH",
    "MIN_IDN_DECODE_BATCH",
    "FoldTable",
    "BatchFoldKernel",
    "DecodedLabels",
    "fold_table_for",
    "kernel_for",
]

#: Bump when the table layout or the mapping semantics change; old sidecar
#: files then read as misses and are rebuilt (a ~100ms cost).
FOLD_TABLE_VERSION = 1

FOLD_TABLE_MAGIC = "shamfinder-fold-table"

#: Chunk size of the full-code-space ``str.lower()`` enumeration.  0x110000
#: is an exact multiple, so no tail handling is needed.
_SCAN_CHUNK = 0x2000

#: Code points the per-character table cannot decide:
#: U+03A3 (CPython's only context-sensitive lower mapping, Final_Sigma)
#: and the surrogate range (kept out of the vectorized path so no
#: downstream step ever has to reason about lone surrogates).  Labels
#: containing any of these fall back to the scalar path, which handles
#: them exactly.
_UNSAFE_CODES = (0x03A3, *range(0xD800, 0xE000))

#: Below this many inputs the kernel's fixed costs beat its savings, so
#: :meth:`~.shamfinder.ShamFinder.join_batch` runs the scalar loop.
MIN_KERNEL_BATCH = 8

#: Fewest eligible IDN rows for which :meth:`BatchFoldKernel.domain_misses`
#: runs the batch Punycode decoder; smaller batches parse their IDNs one
#: :class:`~repro.idn.domain.DomainName` at a time, which is cheaper there
#: (the decoder's cost is mostly per lockstep step, one per insertion
#: round of the batch's longest row, not per row).
MIN_IDN_DECODE_BATCH = 256

#: Per-ASCII-code lookup of the label alphabet (:data:`LDH_CHARS`).
_LDH_LOOKUP = np.zeros(128, dtype=bool)
_LDH_LOOKUP[[ord(char) for char in LDH_CHARS]] = True

#: Polynomial hash base (the FNV-1a prime) and a length-mixing constant
#: (the 64-bit golden ratio).  ``hash(label) = Σ code_i · P^i + len · G``
#: over wrapping ``uint64`` arithmetic — equal strings always hash equal,
#: and a collision between different strings only costs a scalar re-check.
_HASH_PRIME = np.uint64(1099511628211)
_HASH_LEN_MIX = np.uint64(0x9E3779B97F4A7C15)

_POW: np.ndarray = np.ones(1, dtype=np.uint64)


def _powers(count: int) -> np.ndarray:
    """``[P^0, P^1, ..., P^(count-1)]`` as wrapping uint64, grown on demand."""
    global _POW
    if _POW.size < count:
        table = np.ones(count, dtype=np.uint64)
        np.multiply.accumulate(
            np.full(count - 1, _HASH_PRIME, dtype=np.uint64), out=table[1:])
        _POW = table
    return _POW


_LOWER_MAP: dict[int, int] | None = None


def _lower_map() -> dict[int, int]:
    """Non-identity single-character ``str.lower()`` mappings, full code space.

    Enumerated with chunked whole-string ``.lower()`` calls (C level) and a
    vectorized compare; a chunk whose lowercase changes length (it contains
    an expanding mapping such as U+0130) falls back to a per-character pass.
    Mappings that expand are *excluded* — ``fold_label`` keeps those
    characters as-is, and so does the table.
    """
    global _LOWER_MAP
    if _LOWER_MAP is None:
        mapping: dict[int, int] = {}
        for start in range(0, 0x110000, _SCAN_CHUNK):
            block = "".join(map(chr, range(start, start + _SCAN_CHUNK)))
            lowered = block.lower()
            if len(lowered) == len(block):
                codes = np.frombuffer(
                    block.encode("utf-32-le", "surrogatepass"), dtype="<u4")
                lows = np.frombuffer(
                    lowered.encode("utf-32-le", "surrogatepass"), dtype="<u4")
                for i in np.nonzero(codes != lows)[0]:
                    mapping[int(codes[i])] = int(lows[i])
            else:
                for code in range(start, start + _SCAN_CHUNK):
                    low = chr(code).lower()
                    if len(low) == 1 and ord(low) != code:
                        mapping[code] = ord(low)
        _LOWER_MAP = mapping
    return _LOWER_MAP


def _sparse_apply(keys: np.ndarray, values: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Map *codes* through the sorted sparse ``keys → values`` table
    (identity for code points not listed).

    The range guard skips the ``searchsorted`` pass when the batch cannot
    intersect the table at all — the common case for all-ASCII batches
    against tables whose entries are all non-ASCII.
    """
    if not len(keys) or not len(codes):
        return codes
    if codes.max() < keys[0] or codes.min() > keys[-1]:
        return codes
    pos = np.minimum(np.searchsorted(keys, codes), len(keys) - 1)
    hit = keys[pos] == codes
    return np.where(hit, values[pos], codes)


def _membership(sorted_keys: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Boolean mask: which of *codes* appear in *sorted_keys* (range-guarded
    like :func:`_sparse_apply`)."""
    if not len(sorted_keys) or not len(codes):
        return np.zeros(len(codes), dtype=bool)
    if codes.max() < sorted_keys[0] or codes.min() > sorted_keys[-1]:
        return np.zeros(len(codes), dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, codes), len(sorted_keys) - 1)
    return sorted_keys[pos] == codes


#: Code points below this go through :attr:`FoldTable`'s dense lookup.
_DENSE_LIMIT = 0x10000
#: Set in a dense lookup entry whose code point the table cannot decide;
#: a mapped code point never reaches it.
_UNSAFE_BIT = np.uint32(1 << 31)


class FoldTable:
    """Sparse code point translation tables for one homoglyph database.

    ``keys``/``values`` hold the non-identity entries of the *composed*
    mapping ``representative(fold(c))`` — one lookup folds and
    skeletonizes a batch at once.  ``fold_keys``/``fold_values`` hold the
    fold-only mapping, used to reconstruct the folded (pre-skeleton) code
    points when the invisible-risk mask needs them.  ``unsafe`` lists the
    code points the table cannot decide (:data:`_UNSAFE_CODES`).  All
    arrays are sorted ``uint32``; the dense lookup :meth:`translate`
    reads is built from them on first use and never pickled.
    """

    __slots__ = ("keys", "values", "fold_keys", "fold_values", "unsafe",
                 "database_digest", "_dense_map")

    def __init__(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        fold_keys: np.ndarray,
        fold_values: np.ndarray,
        unsafe: np.ndarray,
        database_digest: str = "",
    ) -> None:
        self.keys = keys
        self.values = values
        self.fold_keys = fold_keys
        self.fold_values = fold_values
        self.unsafe = unsafe
        self.database_digest = database_digest
        self._dense_map: np.ndarray | None = None

    def __reduce__(self):
        # Only the sorted arrays travel: the dense lookup is ~256 KB and
        # rebuilt on first use.
        return (type(self), (self.keys, self.values, self.fold_keys,
                             self.fold_values, self.unsafe, self.database_digest))

    @classmethod
    def build(cls, classes: CharacterClasses, *, database_digest: str = "") -> "FoldTable":
        """Compose the lower-case scan with *classes*' representative map."""
        unsafe_set = set(_UNSAFE_CODES)
        fold = {
            code: low for code, low in _lower_map().items()
            if code not in unsafe_set
        }
        rep = {
            ord(char): ord(target)
            for char, target in classes.representatives().items()
            if char != target
        }
        composed: dict[int, int] = {}
        for code in fold.keys() | rep.keys():
            mapped = fold.get(code, code)
            mapped = rep.get(mapped, mapped)
            if mapped != code:
                composed[code] = mapped

        def _pair(mapping: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
            keys = np.array(sorted(mapping), dtype=np.uint32)
            values = np.array([mapping[int(k)] for k in keys], dtype=np.uint32)
            return keys, values

        keys, values = _pair(composed)
        fold_keys, fold_values = _pair(fold)
        unsafe = np.array(sorted(unsafe_set), dtype=np.uint32)
        return cls(keys, values, fold_keys, fold_values, unsafe, database_digest)

    # -- batch primitives ---------------------------------------------------

    def translate(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """``(mapped, unsafe)``: the composed fold+representative mapping of
        *codes*, and which of them the table cannot decide (→ scalar
        fallback; ``None`` for an ASCII batch, which holds none).

        Batches below U+10000 (raw domains, decoded IDN labels) take a
        0x10000-entry lookup whose entries also carry the unsafe mark — one
        fancy-index take instead of two binary searches per code point.  No
        ASCII code point is unsafe, so an ASCII batch reads the mapped
        entries as they are.  Only a batch with an astral code point
        searches the sparse arrays.
        """
        top = int(codes.max()) if codes.size else 0
        if top < _DENSE_LIMIT:
            if self._dense_map is None:
                dense = np.arange(_DENSE_LIMIT, dtype=np.uint32)
                low = self.keys < _DENSE_LIMIT
                dense[self.keys[low]] = self.values[low]
                dense[self.unsafe[self.unsafe < _DENSE_LIMIT]] |= _UNSAFE_BIT
                self._dense_map = dense
            entries = self._dense_map[codes]
            if top < 0x80:
                return entries, None
            return entries & ~_UNSAFE_BIT, (entries & _UNSAFE_BIT) != 0
        return (_sparse_apply(self.keys, self.values, codes),
                _membership(self.unsafe, codes))

    def fold_codes(self, codes: np.ndarray) -> np.ndarray:
        """Apply the fold-only mapping to *codes*."""
        return _sparse_apply(self.fold_keys, self.fold_values, codes)

    # -- persistence --------------------------------------------------------

    def _header(self) -> dict:
        return {
            "magic": FOLD_TABLE_MAGIC,
            "version": FOLD_TABLE_VERSION,
            "database_digest": self.database_digest,
            "unicode_version": unicodedata.unidata_version,
            "counts": [len(self.keys), len(self.fold_keys), len(self.unsafe)],
        }

    def _body(self) -> bytes:
        parts = [arr.astype("<u4").tobytes() for arr in
                 (self.keys, self.values, self.fold_keys, self.fold_values, self.unsafe)]
        return b"".join(parts)

    def save(self, path: str | os.PathLike) -> Path:
        """Persist as a sidecar artifact (JSON header line + raw arrays).

        Written through a temp-file rename, same discipline as the
        ``refindex-*.idx`` store: readers never see a partial file.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        body = self._body()
        header = self._header()
        header["body_sha256"] = hashlib.sha256(body).hexdigest()
        atomic_write(path, [json.dumps(header).encode("utf-8") + b"\n", body])
        return path

    @classmethod
    def load(cls, path: str | os.PathLike, *, database_digest: str) -> "FoldTable | None":
        """Load a sidecar table; any mismatch or damage reads as ``None``.

        The header pins the database digest *and* the interpreter's Unicode
        version — a table written by a Python with a different Unicode
        database would disagree with the running ``str.lower()``, so it
        reads as a miss and is rebuilt.
        """
        try:
            with open(path, "rb") as handle:
                header = json.loads(handle.readline().decode("utf-8"))
                if not isinstance(header, dict):
                    return None
                if header.get("magic") != FOLD_TABLE_MAGIC:
                    return None
                if header.get("version") != FOLD_TABLE_VERSION:
                    return None
                if header.get("database_digest") != database_digest:
                    return None
                if header.get("unicode_version") != unicodedata.unidata_version:
                    return None
                counts = header.get("counts")
                if (not isinstance(counts, list) or len(counts) != 3
                        or not all(isinstance(n, int) and n >= 0 for n in counts)):
                    return None
                body = handle.read()
                if hashlib.sha256(body).hexdigest() != header.get("body_sha256"):
                    return None
                pair_count, fold_count, unsafe_count = counts
                expected = 4 * (2 * pair_count + 2 * fold_count + unsafe_count)
                if len(body) != expected:
                    return None
                flat = np.frombuffer(body, dtype="<u4")
                bounds = np.cumsum([pair_count, pair_count, fold_count,
                                    fold_count, unsafe_count])
                keys, values, fold_keys, fold_values, unsafe = np.split(flat, bounds[:-1])
                return cls(keys.astype(np.uint32), values.astype(np.uint32),
                           fold_keys.astype(np.uint32), fold_values.astype(np.uint32),
                           unsafe.astype(np.uint32), database_digest)
        except (OSError, ValueError, KeyError, TypeError):
            return None


def _sidecar_path(directory: str | os.PathLike, database_digest: str) -> Path:
    version = unicodedata.unidata_version.replace(".", "_")
    return Path(directory) / f"foldtable-{database_digest}-u{version}.bin"


def fold_table_for(
    classes: CharacterClasses,
    *,
    database_digest: str = "",
    cache_dir: str | os.PathLike | None = None,
) -> FoldTable:
    """The fold table for *classes*, memoized on the instance.

    With *cache_dir* (typically the reference-index store directory) and a
    digest, the sidecar artifact is tried first and refreshed on miss —
    skipping the ~100ms full-code-space scan on warm starts.
    """
    cached = getattr(classes, "_fold_table", None)
    if cached is not None and cached.database_digest == database_digest:
        return cached
    table = None
    if cache_dir is not None and database_digest:
        path = _sidecar_path(cache_dir, database_digest)
        table = FoldTable.load(path, database_digest=database_digest)
        if table is None:
            table = FoldTable.build(classes, database_digest=database_digest)
            try:
                table.save(path)
            except OSError:
                pass   # the sidecar is an optimisation, never lose the build
    if table is None:
        table = FoldTable.build(classes, database_digest=database_digest)
    classes._fold_table = table
    return table


class BatchFoldKernel:
    """Vectorized fold → skeletonize → bucket-probe over label batches.

    Bound to one prepared reference index: ``key_hashes`` is the sorted
    array of that index's bucket skeleton hashes.  The kernel never
    *produces* matches — it proves non-matches.  :meth:`certain_miss_mask`
    returns True exactly where the scalar skeleton join is guaranteed to
    return no match; everything else (bucket hits, out-of-table labels,
    invisible-risk labels) must run the scalar path, which keeps verdicts
    byte-identical by construction.
    """

    def __init__(self, table: FoldTable, skeleton_keys: Sequence[str]) -> None:
        self.table = table
        keys = list(skeleton_keys)
        self.bucket_count = len(keys)
        codes, starts, lengths = self._encode(keys)
        self.key_hashes = np.sort(self._segment_hash(codes, starts, lengths))
        # Lazily-built ASCII invisible-risk lookup (see _invisible_risk);
        # keyed by table identity so a different InvisibleTable rebuilds it.
        self._risk_source: InvisibleTable | None = None
        self._ascii_risk: np.ndarray | None = None

    # -- batch encoding -----------------------------------------------------

    @staticmethod
    def _encode(labels: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(codes, starts, lengths)`` for the concatenated batch."""
        lengths = np.fromiter((len(label) for label in labels),
                              dtype=np.int64, count=len(labels))
        joined = "".join(labels)
        codes = np.frombuffer(joined.encode("utf-32-le", "surrogatepass"), dtype="<u4")
        starts = np.zeros(len(labels), dtype=np.int64)
        if len(labels) > 1:
            np.cumsum(lengths[:-1], out=starts[1:])
        return codes, starts, lengths

    @staticmethod
    def _segment_any(flags: np.ndarray | None, starts: np.ndarray,
                     lengths: np.ndarray) -> np.ndarray:
        """Per-label ``any()`` over per-character *flags* (``None``: none set).

        Empty labels contribute no characters; ``reduceat`` over the
        non-empty starts spans them correctly because their segments are
        zero-width.
        """
        out = np.zeros(len(lengths), dtype=bool)
        nonempty = lengths > 0
        if flags is not None and flags.size and nonempty.any():
            out[nonempty] = np.logical_or.reduceat(flags, starts[nonempty])
        return out

    @staticmethod
    def _segment_hash(codes: np.ndarray, starts: np.ndarray,
                      lengths: np.ndarray) -> np.ndarray:
        """Positional polynomial hash of each packed segment.

        ``Σ code_i · P^i + len · G`` over wrapping uint64 — computed for
        the whole batch with one ``np.add.reduceat``.  Empty segments hash
        to ``0`` (plus the zero length term), exactly like an empty key
        would, so equality is preserved for every input.
        """
        out = np.zeros(len(lengths), dtype=np.uint64)
        nonempty = lengths > 0
        if codes.size and nonempty.any():
            exponents = np.arange(codes.size, dtype=np.int64)
            exponents -= np.repeat(starts, lengths)
            terms = codes.astype(np.uint64) * _powers(int(lengths.max()))[exponents]
            out[nonempty] = np.add.reduceat(terms, starts[nonempty])
        return out + lengths.astype(np.uint64) * _HASH_LEN_MIX

    def skeletons(self, labels: Sequence[str]) -> tuple[list[str], np.ndarray]:
        """``(skeletons, decidable)`` for *labels* via the translation table.

        ``skeletons[i]`` equals ``classes.skeletonize(fold_label(labels[i]))``
        wherever ``decidable[i]`` is True; where False the label contains an
        out-of-table code point and the entry is unspecified.
        """
        codes, starts, lengths = self._encode(labels)
        mapped, unsafe = self.table.translate(codes)
        undecidable = self._segment_any(unsafe, starts, lengths)
        joined = mapped.astype("<u4").tobytes().decode("utf-32-le", "surrogatepass")
        ends = starts + lengths
        skeletons = [joined[start:end] for start, end in zip(starts, ends)]
        return skeletons, ~undecidable

    def _invisible_risk(
        self,
        codes: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
        invisible_table: InvisibleTable,
    ) -> np.ndarray:
        """Per-label mask: could the strip-and-rematch check possibly fire?

        Conservative superset of ``findings(folded) != ()``: any table code
        point or any combining mark (Mn/Me) — a *stack* needs two
        consecutive marks, so one mark alone can only over-trigger the
        scalar fallback, never miss a match.  Classification runs once per
        distinct code point in the batch, on the *folded* (pre-skeleton)
        code points the scalar check sees.

        All-ASCII batches (the ``domain_certain_miss`` hot path) skip the
        fold + ``np.unique`` passes via a 128-entry lookup of
        ``risk(fold(c))``, built once per invisible table.
        """
        if codes.size and int(codes.max()) < 0x80:
            if self._risk_source is not invisible_table:
                folded_ascii = self.table.fold_codes(
                    np.arange(0x80, dtype=np.uint32))
                self._ascii_risk = np.fromiter(
                    (
                        chr(int(code)) in invisible_table
                        or unicodedata.category(chr(int(code))) in _MARK_CATEGORIES
                        for code in folded_ascii
                    ),
                    dtype=bool, count=0x80,
                )
                self._risk_source = invisible_table
            return self._segment_any(self._ascii_risk[codes], starts, lengths)
        folded = self.table.fold_codes(codes)
        unique, inverse = np.unique(folded, return_inverse=True)
        risky = np.fromiter(
            (
                chr(code) in invisible_table
                or unicodedata.category(chr(code)) in _MARK_CATEGORIES
                for code in unique.tolist()
            ),
            dtype=bool, count=len(unique),
        )
        return self._segment_any(risky[inverse], starts, lengths)

    def certain_miss_mask(
        self,
        labels: Sequence[str],
        *,
        invisible_table: InvisibleTable | None = None,
    ) -> np.ndarray:
        """True where the scalar skeleton join is *guaranteed* matchless.

        A certain miss requires all of: every code point decidable by the
        table, the folded skeleton absent from the bucket keys, and — when
        an *invisible_table* is active — no invisible risk.  Labels failing
        any leg get False and must run the scalar path.
        """
        if not labels:
            return np.zeros(0, dtype=bool)
        codes, starts, lengths = self._encode(labels)
        return self._codes_certain_miss(codes, starts, lengths, invisible_table)

    def _codes_certain_miss(
        self,
        codes: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
        invisible_table: InvisibleTable | None,
    ) -> np.ndarray:
        """:meth:`certain_miss_mask` over already-packed label segments."""
        mapped, unsafe = self.table.translate(codes)
        undecidable = self._segment_any(unsafe, starts, lengths)
        hashes = self._segment_hash(mapped, starts, lengths)
        bucket_hit = _membership(self.key_hashes, hashes)
        miss = ~(undecidable | bucket_hit)
        if invisible_table is not None and miss.any():
            miss &= ~self._invisible_risk(codes, starts, lengths, invisible_table)
        return miss

    def domain_certain_miss(
        self,
        texts: Sequence[str],
        *,
        invisible_table: InvisibleTable | None = None,
    ) -> np.ndarray:
        """The mask of :meth:`domain_misses`."""
        return self.domain_misses(texts, invisible_table=invisible_table)[0]

    def domain_misses(
        self,
        texts: Sequence[str],
        *,
        invisible_table: InvisibleTable | None = None,
    ) -> tuple[np.ndarray, "DecodedLabels"]:
        """Certain misses among whole domain strings, fully vectorized.

        A fast-parseable name is at most 253 octets of two or more
        :data:`~repro.idn.idna_codec.PLAIN_LABEL` labels, except that the
        registrable (second-to-last) one may be a lowercase ``xn--``
        A-label; ``tests/oracles/fast_domain.py`` spells this as a regex.

        Returns ``(mask, decoded)``.  ``mask[i]`` is True exactly when
        ``texts[i]`` is fast-parseable *and* its registrable label is a
        certain miss — i.e. the scalar ``query`` is guaranteed to return
        an empty, error-free verdict whose ASCII form equals the input.
        For a non-IDN that verdict's Unicode form is the input too.
        Everything else (bad A-labels, uppercase, junk, bucket hits) gets
        False and must run scalar.  ``decoded`` holds the registrable
        U-label of every fast-parseable IDN whose payload the batch
        decoded, miss or bucket hit: the one piece of its name the input
        does not spell.

        One concatenated code point pass replaces 20k regex matches and
        string slices: domain/label boundaries come from separator
        positions, per-label shape checks and the per-domain aggregation
        are ``reduceat`` calls, and the registrable labels are gathered
        into a packed segment array fed straight to the hash join.  IDN
        payloads are decoded together by
        :func:`~repro.idn.punycode.decode_batch` — only when at least
        :data:`MIN_IDN_DECODE_BATCH` rows have one, otherwise those rows
        get False — and their labels go to the hash join in a call of
        their own, so an ASCII batch keeps the dense ASCII lookups.
        """
        count = len(texts)
        out = np.zeros(count, dtype=bool)
        decoded = DecodedLabels()
        if count == 0:
            return out, decoded
        blob = "\n".join(texts) + "\n"     # sentinel: every domain ends in \n
        codes = np.frombuffer(blob.encode("utf-32-le", "surrogatepass"), dtype="<u4")
        is_newline = codes == 0x0A
        newline_pos = np.flatnonzero(is_newline)
        if newline_pos.size != count:
            # Some text embeds the separator itself — blank those out (they
            # are ineligible anyway; "\n" is not an LDH character) and redo
            # the boundary scan.  Kept off the hot path: scanning every
            # text for "\n" up front costs more than this rare rebuild.
            blob = "\n".join(
                text if "\n" not in text else "" for text in texts) + "\n"
            codes = np.frombuffer(
                blob.encode("utf-32-le", "surrogatepass"), dtype="<u4")
            is_newline = codes == 0x0A
            newline_pos = np.flatnonzero(is_newline)
        is_dot = codes == 0x2E

        domain_starts = np.empty(count, dtype=np.int64)
        domain_starts[0] = 0
        domain_starts[1:] = newline_pos[:-1] + 1
        domain_lengths = newline_pos - domain_starts

        is_ldh = _LDH_LOOKUP[np.minimum(codes, 0x7F)] & (codes < 0x80)
        domain_char_bad = np.logical_or.reduceat(
            ~(is_ldh | is_dot | is_newline), domain_starts)

        # Label spans: separators are dots and newlines; every domain
        # contributes at least one (possibly empty) label, so the reduceat
        # index arrays below are strictly increasing.
        separator_pos = np.flatnonzero(is_dot | is_newline)
        label_starts = np.empty(separator_pos.size, dtype=np.int64)
        label_starts[0] = 0
        label_starts[1:] = separator_pos[:-1] + 1
        label_lengths = separator_pos - label_starts

        hyphen = np.uint32(0x2D)
        label_ok = (label_lengths >= 1) & (label_lengths <= MAX_LABEL_OCTETS)
        label_ok &= codes[label_starts] != hyphen
        label_ok &= codes[np.maximum(separator_pos - 1, 0)] != hyphen
        long_enough = label_lengths >= 4
        dashes = (long_enough
                  & (codes[np.where(long_enough, label_starts + 2, 0)] == hyphen)
                  & (codes[np.where(long_enough, label_starts + 3, 0)] == hyphen))

        first_label = np.searchsorted(label_starts, domain_starts)
        label_counts = np.diff(np.append(first_label, label_starts.size))
        # "--" in positions 3-4 passes only on an "xn--" registrable label
        # (never a TLD: that is the last label), and only in a batch with
        # enough of them to be worth decoding.
        ace = None
        if dashes.any():
            ace = (dashes & (codes[np.where(dashes, label_starts, 0)] == ord("x"))
                   & (codes[np.where(dashes, label_starts + 1, 0)] == ord("n")))
            several = label_counts >= 2
            registrable = (first_label + label_counts - 2)[several]
            registrable = registrable[ace[registrable]]
            if registrable.size >= MIN_IDN_DECODE_BATCH:
                dashes[registrable] = False
            else:
                ace = None
        label_ok &= ~dashes
        all_labels_ok = np.logical_and.reduceat(label_ok, first_label)

        eligible = (all_labels_ok & ~domain_char_bad & (label_counts >= 2)
                    & (domain_lengths <= MAX_DOMAIN_OCTETS))
        chosen = np.flatnonzero(eligible)
        if chosen.size == 0:
            return out, decoded
        registrable = first_label[chosen] + label_counts[chosen] - 2
        if ace is not None:
            is_idn = ace[registrable]
            rows, labels = chosen[is_idn], registrable[is_idn]
            chosen, registrable = chosen[~is_idn], registrable[~is_idn]
            if rows.size >= MIN_IDN_DECODE_BATCH:
                ulabels, ulabel_starts, ulabel_lengths, decodable = decode_batch(
                    *_gather(codes, label_starts[labels] + 4, label_lengths[labels] - 4))
                out[rows] = decodable & self._codes_certain_miss(
                    ulabels, ulabel_starts, ulabel_lengths, invisible_table)
                decoded = DecodedLabels(count, rows[decodable], ulabels,
                                        ulabel_starts[decodable], ulabel_lengths[decodable])

        # Gather the registrable (second-to-last) labels into one packed
        # segment array and reuse the label-level kernel on it.
        if chosen.size:
            packed, packed_starts, packed_lengths = _gather(
                codes, label_starts[registrable], label_lengths[registrable])
            out[chosen] = self._codes_certain_miss(
                packed, packed_starts, packed_lengths, invisible_table)
        return out, decoded


class DecodedLabels:
    """The registrable U-labels one batch decoded, looked up by row.

    ``rows`` lists, in ascending order, the rows whose registrable A-label
    the batch decoded.  The labels stay packed code points until
    :meth:`get` first asks for one, so a caller that only counts rows
    makes no string.
    """

    __slots__ = ("rows", "_count", "_codes", "_starts", "_lengths", "_spans")

    def __init__(
        self,
        count: int = 0,
        rows: np.ndarray | None = None,
        codes: np.ndarray | None = None,
        starts: np.ndarray | None = None,
        lengths: np.ndarray | None = None,
    ) -> None:
        self.rows = rows if rows is not None else np.zeros(0, dtype=np.int64)
        self._count = count
        self._codes, self._starts, self._lengths = codes, starts, lengths
        self._spans: tuple[str, list[int], list[int], list[int]] | None = None

    def get(self, row: int) -> str | None:
        """The U-label of *row*, or ``None`` when the batch did not decode it."""
        if not self.rows.size:
            return None
        if self._spans is None:
            slot = np.full(self._count, -1, dtype=np.int64)
            slot[self.rows] = np.arange(self.rows.size)
            self._spans = (self._codes.astype("<u4").tobytes().decode("utf-32-le"),
                           slot.tolist(), self._starts.tolist(),
                           (self._starts + self._lengths).tolist())
        text, slot, starts, ends = self._spans
        rank = slot[row]
        return text[starts[rank]:ends[rank]] if rank >= 0 else None


def _gather(codes: np.ndarray, starts: np.ndarray,
            lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``codes[starts[i]:starts[i] + lengths[i]]`` spans packed end to
    end: ``(packed, packed_starts, lengths)``."""
    packed_starts = np.zeros(lengths.size, dtype=np.int64)
    if lengths.size > 1:
        np.cumsum(lengths[:-1], out=packed_starts[1:])
    gather = np.arange(int(lengths.sum()), dtype=np.int64)
    gather += np.repeat(starts - packed_starts, lengths)
    return codes[gather], packed_starts, lengths


#: Kernel registry keyed by ``id(prepared)`` with a weakref guard: the
#: weakref both keeps the entry honest (an id reused after GC cannot alias
#: a stale kernel) and evicts the entry when the prepared object dies.
#: Deliberately *not* an attribute on the prepared object — that would ride
#: along when spawn pools pickle it, shipping megabytes of key arrays.
_KERNELS: dict[int, tuple[weakref.ref, BatchFoldKernel]] = {}


def kernel_for(
    matcher: "HomographMatcher",
    prepared,
    *,
    cache_dir: str | os.PathLike | None = None,
) -> BatchFoldKernel:
    """The batch kernel for *prepared* under *matcher*, built once and cached.

    *cache_dir* is forwarded to the fold-table sidecar lookup.
    """
    entry = _KERNELS.get(id(prepared))
    if entry is not None:
        ref, kernel = entry
        if ref() is prepared:
            return kernel
    table = fold_table_for(
        matcher.classes,
        database_digest=matcher.database.content_digest(),
        cache_dir=cache_dir,
    )
    kernel = BatchFoldKernel(table, prepared.index.skeletons())
    ref = weakref.ref(prepared, lambda _, key=id(prepared): _KERNELS.pop(key, None))
    _KERNELS[id(prepared)] = (ref, kernel)
    return kernel

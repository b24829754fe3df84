"""Persistent artifact store for built SimChar databases.

The paper builds SimChar once on a 24-thread server (10.9 hours for Step II)
and then *serves* it — the database is an artifact, not something to
recompute per process.  This module gives the reproduction the same shape:
a built database is fingerprinted by everything that determines its content
and persisted in a compact JSON-lines file, so a warm
``ShamFinder.with_default_databases()`` loads in milliseconds instead of
re-running the pairwise scan.

The fingerprint covers:

* the **font** (name, glyph size, and a digest of probe glyph bitmaps, so
  swapping the ``.hex`` file under the same name still invalidates);
* the **repertoire** (hash of the exact code point list);
* the builder parameters **threshold** and **sparse_min_pixels**;
* the cache **format version**, bumped whenever the on-disk layout changes.

On-disk layout (one file per fingerprint, ``simchar-<digest>.jsonl``):
line 1 is a header object (magic, version, fingerprint fields, build
statistics, and a ``sha256`` over the other header fields and the rows);
every following line is one pair as a compact JSON array
``["0065", "00E9", 2, ["SimChar"]]``.  Corrupt or mismatched files are
treated as cache misses, never as errors.

Deriving the key costs more than loading a warm entry (the IDNA repertoire
and the probe glyph renders), so :func:`cached_build` keeps a key memo,
``simchar-key-<memo>.json``, beside the entries.  The memo name digests
what the key is computed from — the builder parameters, the font's class
and public attributes, the Unicode data version, the cache format, and
the bytes of the sources that derive the key (``repro/fonts``,
``repro/unicode``, ``homoglyph/simchar.py`` and this module) — so an edit
to any of them reads as a memo miss and the full key is computed again.
The default builder (``SimCharBuilder()`` with its synthetic font) has a
memo of its own that names neither, so a warm default load imports no
font and builds no builder.

A loaded entry (:class:`CacheEntry`) is trusted: its header checksum
covers the rows, which were validated pairs when they were stored, so
:meth:`CacheEntry.rows` go into a database with
:meth:`~.database.HomoglyphDatabase.add_rows` without being validated
again.  The source registry (:mod:`.registry`) also keeps its union
digest memos here, ``simchar-union-<memo>.json``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import unicodedata
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from ..durable import artifact_checksum, atomic_write
from .database import HomoglyphDatabase

if TYPE_CHECKING:
    from ..fonts.registry import FontProtocol
    from .simchar import SimCharBuilder, SimCharResult

__all__ = [
    "CACHE_FORMAT_VERSION",
    "CACHE_MAGIC",
    "CACHE_DIR_ENV",
    "CacheKey",
    "CacheEntry",
    "SimCharCache",
    "font_fingerprint",
    "key_for_builder",
    "cached_build",
    "resolve_cache",
]

#: Bump when the on-disk layout changes; old files then read as misses.
CACHE_FORMAT_VERSION = 2

CACHE_MAGIC = "shamfinder-simchar-cache"

#: Environment variable naming the default cache directory.
CACHE_DIR_ENV = "SHAMFINDER_CACHE_DIR"

#: Fonts from this package are memoised by their class and attributes.
_FONTS_PACKAGE = __name__.rsplit(".", 2)[0] + ".fonts"

#: Code points rendered to fingerprint the font's actual shapes.  Drawn from
#: the confusion-prone sets the paper highlights (Latin vowels, lookalike
#: consonants, digits, Cyrillic/Greek twins).
_FONT_PROBE_CODEPOINTS: tuple[int, ...] = tuple(
    ord(ch) for ch in "aceoswxyz0123456789lĳ"
) + (0x043E, 0x0430, 0x03BF, 0x0455, 0x0501)


def font_fingerprint(font: FontProtocol) -> str:
    """Short digest identifying a font's identity and glyph shapes.

    A font exposing ``content_digest()`` (e.g. :class:`HexFont`, the
    user-supplied-file case) is fingerprinted by its *entire* glyph set, so
    editing any glyph invalidates the cache.  Otherwise a fixed probe set
    keeps fingerprinting cheap (a full render of the repertoire would cost
    as much as the build's Step I); an edit to a code-defined font outside
    both the probes and the coverage pattern can then escape detection —
    use ``force=True``/``--force`` in that case.
    """
    hasher = hashlib.sha256()
    hasher.update(f"{font.name}:{font.glyph_size}".encode("utf-8"))
    content_digest = getattr(font, "content_digest", None)
    if callable(content_digest):
        hasher.update(content_digest().encode("utf-8"))
        return hasher.hexdigest()[:16]
    for codepoint in _FONT_PROBE_CODEPOINTS:
        if not font.covers(codepoint):
            continue
        hasher.update(codepoint.to_bytes(4, "big"))
        hasher.update(font.render(codepoint).packed())
    return hasher.hexdigest()[:16]


@dataclass(frozen=True)
class CacheKey:
    """Everything that determines the content of a built SimChar database."""

    font_id: str
    repertoire_hash: str
    threshold: int
    sparse_min_pixels: int
    # lint: fingerprint-exempt(format constant bumped by hand, not a builder input)
    format_version: int = CACHE_FORMAT_VERSION

    @property
    def digest(self) -> str:
        """Stable hex digest used as the cache file name."""
        canonical = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:24]

    # lint: fingerprint(CacheKey)
    def as_dict(self) -> dict:
        return asdict(self)


# lint: fingerprint(CacheKey)
def key_for_builder(builder: SimCharBuilder) -> CacheKey:
    """Compute the cache key of the database *builder* would produce.

    Marked ``# lint: fingerprint(CacheKey)``: repro-lint's
    fingerprint-completeness rule fails the build if a field added to
    :class:`CacheKey` is not threaded through here (docs/LINT.md).

    The repertoire hash covers both the code point list and the font's
    coverage pattern over it, so adding/removing glyphs from a font
    invalidates even when the font's name and probe glyphs are unchanged.
    """
    repertoire = builder.repertoire()
    rep_hasher = hashlib.sha256()
    for codepoint in repertoire:
        rep_hasher.update(codepoint.to_bytes(4, "big"))
        rep_hasher.update(b"\x01" if builder.font.covers(codepoint) else b"\x00")
    return CacheKey(
        font_id=font_fingerprint(builder.font),
        repertoire_hash=rep_hasher.hexdigest()[:16],
        threshold=builder.threshold,
        sparse_min_pixels=builder.sparse_min_pixels,
    )


@functools.cache
def _key_source_digest() -> str:
    """Digest of the sources whose code decides a builder's key."""
    package = Path(__file__).resolve().parents[1]
    paths = [*sorted((package / "fonts").glob("*.py")),
             *sorted((package / "unicode").glob("*.py")),
             package / "homoglyph" / "simchar.py", Path(__file__).resolve()]
    hasher = hashlib.sha256()
    for path in paths:
        hasher.update(path.relative_to(package).as_posix().encode("utf-8") + b"\0")
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def _key_memo(builder: SimCharBuilder | None) -> str | None:
    """Cheap identity of *builder*'s key, or None when only the full key will do.

    ``None`` stands for the default builder, ``SimCharBuilder()``, whose
    parameters and synthetic font are all code (covered by the source
    digest); call it so only while the default font would be that font
    (:func:`~repro.fonts.registry.default_font_is_pending_synthetic`).
    A font from outside :mod:`repro.fonts` may render anything under any
    name, and a font with ``content_digest()`` is fingerprinted by its whole
    glyph set, so neither is memoised.
    """
    try:
        if builder is None:
            spec = {"builder": "default"}
        else:
            font = builder.font
            font_type = type(font)
            if (not font_type.__module__.startswith(_FONTS_PACKAGE + ".")
                    or callable(getattr(font, "content_digest", None))):
                return None
            public = {name: value for name, value in vars(font).items()
                      if not name.startswith("_")}
            spec = {"builder": [builder.threshold, builder.sparse_min_pixels,
                                *builder.repertoire_spec],
                    "font": [f"{font_type.__module__}.{font_type.__qualname__}",
                             font.name, font.glyph_size, public]}
        identity = json.dumps({
            "format": CACHE_FORMAT_VERSION,
            "unicode": unicodedata.unidata_version,
            **spec,
            "sources": _key_source_digest(),
        }, sort_keys=True, default=sorted)
    except (OSError, TypeError, ValueError):   # unreadable source, unhashable state
        return None
    return hashlib.sha256(identity.encode("utf-8")).hexdigest()[:24]


class CacheEntry:
    """One cache entry as read and checksum-verified: its header and rows.

    A plain class: ``serve`` imports this module, and a dataclass costs
    about a millisecond to create at import.
    """

    def __init__(self, header: dict, body: bytes) -> None:
        self.header = header
        #: the rows, one JSON array per line (see the module docstring)
        self.body = body

    @property
    def checksum(self) -> str:
        """The header ``sha256``: the identity of this entry's exact bytes."""
        return self.header["sha256"]

    def rows(self) -> list[list]:
        """The pair rows in :meth:`~.database.HomoglyphPair.as_row` form.

        Raises ``ValueError`` when they do not parse or do not number
        ``pair_count`` — only a writer other than :meth:`SimCharCache.store`
        can produce such an entry under a matching checksum.
        """
        # Every line is one row: parse them all as one array.
        rows = json.loads(b"[" + self.body.rstrip(b"\n").replace(b"\n", b",") + b"]")
        if len(rows) != self.header["pair_count"]:
            raise ValueError("cache entry rows do not match its pair count")
        return rows

    def database(self, name: str = "SimChar") -> HomoglyphDatabase:
        """The entry's pairs as a database named *name*."""
        database = HomoglyphDatabase(name=name)
        database.add_rows(self.rows())
        return database

    def result(self, name: str) -> SimCharResult:
        """The entry as a build result (zero timings, ``from_cache`` set)."""
        from .simchar import BuildTimings, SimCharResult

        stats = self.header["stats"]
        return SimCharResult(
            database=self.database(name),
            timings=BuildTimings(0.0, 0.0, 0.0),
            repertoire_size=stats["repertoire_size"],
            rendered_count=stats["rendered_count"],
            raw_pair_count=stats["raw_pair_count"],
            sparse_character_count=stats["sparse_character_count"],
            threshold=stats["threshold"],
            sparse_min_pixels=stats["sparse_min_pixels"],
            sparse_examples=tuple(stats.get("sparse_examples", ())),
            from_cache=True,
        )


class SimCharCache:
    """Directory of persisted SimChar builds keyed by :class:`CacheKey`."""

    def __init__(self, cache_dir: str | os.PathLike | None = None) -> None:
        if cache_dir is None:
            cache_dir = os.environ.get(CACHE_DIR_ENV) or (
                Path.home() / ".cache" / "shamfinder"
            )
        self.cache_dir = Path(cache_dir)

    def path_for(self, key: CacheKey) -> Path:
        """Cache file path for *key* (the file may not exist yet)."""
        return self.cache_dir / f"simchar-{key.digest}.jsonl"

    def memo_path_for(self, memo: str) -> Path:
        """Key memo file path for the memo digest *memo*."""
        return self.cache_dir / f"simchar-key-{memo}.json"

    def union_memo_path_for(self, memo: str) -> Path:
        """Union digest memo file path for the memo digest *memo*."""
        return self.cache_dir / f"simchar-union-{memo}.json"

    # -- store --------------------------------------------------------------

    def store(self, key: CacheKey, result: SimCharResult) -> Path:
        """Persist a build result; returns the written path.

        The file is written to a temp name and renamed so readers never see
        a partially written cache entry.
        """
        return self._write(key, self._entry_for(key, result))

    def _write(self, key: CacheKey, entry: CacheEntry) -> Path:
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        atomic_write(path, [(json.dumps(entry.header, ensure_ascii=False) + "\n").encode("utf-8"),
                            entry.body])
        return path

    @staticmethod
    def _entry_for(key: CacheKey, result: SimCharResult) -> CacheEntry:
        """The entry :meth:`store` writes for *result*."""
        rows = "".join(
            json.dumps(pair.as_row(), ensure_ascii=False) + "\n"
            for pair in result.database.pairs()
        ).encode("utf-8")
        header = {
            "magic": CACHE_MAGIC,
            "version": CACHE_FORMAT_VERSION,
            "key": key.as_dict(),
            "name": result.database.name,
            "pair_count": result.database.pair_count,
            "stats": {
                "repertoire_size": result.repertoire_size,
                "rendered_count": result.rendered_count,
                "raw_pair_count": result.raw_pair_count,
                "sparse_character_count": result.sparse_character_count,
                "threshold": result.threshold,
                "sparse_min_pixels": result.sparse_min_pixels,
                "sparse_examples": list(result.sparse_examples),
            },
        }
        header["sha256"] = artifact_checksum(header, rows)
        return CacheEntry(header, rows)

    def store_key_memo(self, memo: str, key: CacheKey) -> None:
        """Record that the memo digest *memo* stands for *key* (best effort)."""
        self._store_memo(self.memo_path_for(memo), {"memo": memo, "key": key.as_dict()})

    def store_union_memo(self, memo: str, digest: str) -> None:
        """Record that the union inputs digested as *memo* have content
        digest *digest* (best effort)."""
        self._store_memo(self.union_memo_path_for(memo), {"memo": memo, "digest": digest})

    def _store_memo(self, path: Path, payload: dict) -> None:
        payload["sha256"] = artifact_checksum(payload, b"")
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            atomic_write(path, json.dumps(payload).encode("utf-8"))
        except OSError:
            pass   # a memo only saves a derivation; the next run derives it again

    # -- load ---------------------------------------------------------------

    def load(self, key: CacheKey) -> SimCharResult | None:
        """Load the cached build for *key*, or ``None`` on miss/corruption."""
        entry = self.load_entry(key)
        if entry is None:
            return None
        try:
            return entry.result(entry.header.get("name", "SimChar"))
        except (ValueError, KeyError, TypeError, AttributeError):
            return None   # rows or stats that no store() wrote

    def load_entry(self, key: CacheKey) -> CacheEntry | None:
        """The checksum-verified entry for *key*, or ``None`` on miss/corruption.

        Only the header is parsed here; the rows are parsed by whoever
        reads them (:meth:`CacheEntry.rows`).
        """
        try:
            with open(self.path_for(key), "rb") as handle:
                header = json.loads(handle.readline())
                body = handle.read()
            if (header.get("magic") != CACHE_MAGIC
                    or header.get("version") != CACHE_FORMAT_VERSION
                    or header.get("key") != key.as_dict()
                    or not isinstance(header.get("pair_count"), int)):
                return None
            if artifact_checksum(header, body) != header.get("sha256"):
                return None   # a damaged row or header field
        except (OSError, ValueError, TypeError, AttributeError):
            # Missing file, bad JSON, or a header that parses but is not
            # an object — all read as a miss so the caller rebuilds.
            return None
        return CacheEntry(header, body)

    def load_key_memo(self, memo: str) -> CacheKey | None:
        """The key recorded for the memo digest *memo*, or ``None``."""
        payload = self._load_memo(self.memo_path_for(memo), memo)
        try:
            return CacheKey(**payload["key"]) if payload is not None else None
        except (KeyError, TypeError):
            return None

    def load_union_memo(self, memo: str) -> str | None:
        """The union digest recorded for the memo digest *memo*, or ``None``."""
        payload = self._load_memo(self.union_memo_path_for(memo), memo)
        digest = payload.get("digest") if payload is not None else None
        return digest if isinstance(digest, str) else None

    @staticmethod
    def _load_memo(path: Path, memo: str) -> dict | None:
        try:
            payload = json.loads(path.read_bytes())
            if payload["memo"] != memo or artifact_checksum(payload, b"") != payload["sha256"]:
                return None
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return None
        return payload

    # -- maintenance --------------------------------------------------------

    def entries(self) -> list[Path]:
        """Existing cache entries and memos, newest first."""
        if not self.cache_dir.is_dir():
            return []

        def mtime(path: Path) -> float:
            try:
                return path.stat().st_mtime
            except OSError:   # deleted concurrently — sort it last
                return 0.0

        files = [*self.cache_dir.glob("simchar-*.jsonl"),
                 *self.cache_dir.glob("simchar-key-*.json"),
                 *self.cache_dir.glob("simchar-union-*.json")]
        return sorted(files, key=mtime, reverse=True)

    def clear(self) -> int:
        """Delete all cache entries and memos; returns the number removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


def resolve_cache(cache_dir: str | os.PathLike | None) -> SimCharCache | None:
    """Resolve the cache to use for implicit (non-CLI) call sites.

    An explicit *cache_dir* always wins; otherwise the ``SHAMFINDER_CACHE_DIR``
    environment variable enables caching.  With neither set this returns
    ``None`` and callers rebuild in memory, which preserves the historical
    no-side-effects behaviour of ``with_default_databases()``.
    """
    if cache_dir is not None:
        return SimCharCache(cache_dir)
    if os.environ.get(CACHE_DIR_ENV):
        return SimCharCache(None)
    return None


def cached_build(
    builder: SimCharBuilder,
    cache: SimCharCache | None,
    *,
    force: bool = False,
    name: str = "SimChar",
) -> tuple[SimCharResult, bool]:
    """Build through the cache: ``(result, was_cache_hit)``.

    ``force=True`` skips the read (but still writes), and ``cache=None``
    degrades to a plain in-memory build.  See :func:`cached_entry`.
    """
    if cache is None:
        return builder.build(name=name), False
    entry, built = cached_entry(builder, cache, force=force, name=name)
    if built is not None:
        return built, False
    try:
        return entry.result(name), True
    except (ValueError, KeyError, TypeError, AttributeError):
        # Rows or stats that no store() wrote: build over them.
        return cached_build(builder, cache, force=True, name=name)


def cached_entry(
    builder: SimCharBuilder | None,
    cache: SimCharCache,
    *,
    force: bool = False,
    name: str = "SimChar",
) -> tuple[CacheEntry, SimCharResult | None]:
    """The cache entry of *builder*'s database: ``(entry, built)``.

    *builder* ``None`` means the default ``SimCharBuilder()``, created
    only when its memo misses.  The key comes from the key memo when one
    names a loadable entry; otherwise :func:`key_for_builder` derives it
    and the memo is rewritten.  On a miss (always under ``force=True``)
    the database is built as *name*, stored, and returned as *built*;
    on a hit *built* is ``None``.
    """
    if builder is None:
        from ..fonts.registry import default_font_is_pending_synthetic

        if not default_font_is_pending_synthetic():
            builder = _default_builder()
    memo = _key_memo(builder)
    key = cache.load_key_memo(memo) if memo is not None and not force else None
    entry = cache.load_entry(key) if key is not None else None
    if entry is not None:
        return entry, None
    # No memo, or it named no loadable entry: trust only the full key.
    builder = builder if builder is not None else _default_builder()
    memo_key, key = key, key_for_builder(builder)
    if key != memo_key:
        if memo is not None:
            cache.store_key_memo(memo, key)
        if not force:
            entry = cache.load_entry(key)
            if entry is not None:
                return entry, None
    result = builder.build(name=name)
    entry = cache._entry_for(key, result)
    try:
        cache._write(key, entry)
    except OSError as exc:
        # The cache is an optimisation — never lose a completed build to an
        # unwritable/full cache directory.
        warnings.warn(f"could not persist SimChar build to {cache.cache_dir}: {exc}",
                      stacklevel=3)
    return entry, result


def _default_builder() -> SimCharBuilder:
    from .simchar import SimCharBuilder

    return SimCharBuilder()

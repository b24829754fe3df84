"""Pluggable homoglyph-database source registry.

The detector historically hardcoded one composition: SimChar ∪ UC
(:meth:`ShamFinder.with_default_databases`).  This module turns the
composition into data: every database *source* — SimChar, the UTS#39
confusables, the curated invisible-character table — registers under a
short name, a selection like ``("simchar", "uc", "invisible")`` builds the
union, and the selection itself becomes part of every downstream
fingerprint so a reference index built for one source set can never be
served for another.

Provenance flows with the pairs: each source contributes pairs tagged with
its :class:`~.database.HomoglyphPair` source label, the union merges tags
per pair, and detections report exactly which source(s) covered each
substitution — through batch scans, online queries, and the serving layer
alike.

Fingerprinting rule: the **default** selection (``simchar,uc``) maps to an
*empty* source-config string, which keeps every pre-existing cache key,
reference-index digest, and artifact header byte-identical — an upgraded
deployment keeps its warm caches.  Any other selection yields a canonical
non-empty config (sorted names, invisible tagged with its table version),
so changing the source set changes the fingerprint.

A build does each thing once.  SimChar's cache rows go straight into the
union (:meth:`~.database.HomoglyphDatabase.add_rows`); the per-source
databases that only ``ShamFinder.databases()`` and the Table 8
comparison read are derived on first use (:class:`SourceDatabases`).  And
the union's content digest — what every reference index is keyed by —
is memoised in the SimChar cache directory as
``simchar-union-<memo>.json``, the memo named by a digest of everything
the union follows from: the selection, each source's identity (the
SimChar entry checksum, the UC source text), the Unicode data version, and
the code of this module, ``database.py``, ``confusables.py`` and
``unicode/idna.py``.  A source without an identity (any source a caller
registers) turns the memo off.
"""

from __future__ import annotations

import functools
import hashlib
import json
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping

from .cache import cached_entry, resolve_cache
from .confusables import ConfusablesTable, load_confusables
from .database import HomoglyphDatabase, HomoglyphPair
from .invisible import InvisibleTable, default_invisible_table

if TYPE_CHECKING:
    from .simchar import SimCharBuilder

__all__ = [
    "DEFAULT_SOURCES",
    "BuildContext",
    "SourceBuild",
    "SourceDatabases",
    "RegistryBuild",
    "DatabaseRegistry",
    "UnknownSourceError",
    "default_registry",
]

#: The selection every finder uses unless told otherwise — the historical
#: SimChar ∪ UC composition.
DEFAULT_SOURCES: tuple[str, ...] = ("simchar", "uc")


class UnknownSourceError(ValueError):
    """A selection named a source the registry does not know."""

    def __init__(self, name: str, known: Iterable[str]) -> None:
        self.name = name
        self.known = tuple(known)
        super().__init__(
            f"unknown database source {name!r} (known: {', '.join(self.known)})"
        )


@dataclass(frozen=True)
class BuildContext:
    """Knobs a source builder may consult (SimChar needs all of them)."""

    font: object | None = None
    simchar_builder: SimCharBuilder | None = None
    cache_dir: object | None = None
    force_rebuild: bool = False


@dataclass(frozen=True)
class SourceBuild:
    """What one source contributes: a pair database, an invisible table, or both."""

    name: str
    database: HomoglyphDatabase | None = None
    invisible: InvisibleTable | None = None
    #: Token identifying this source inside a non-default source-config
    #: string; defaults to the registered name.
    config_token: str = ""
    #: Instead of *database*, the pairs alone — as pairs, or as rows that
    #: were validated when a checksummed artifact stored them
    #: (``HomoglyphPair.as_row`` form, added to the union unvalidated) ...
    pairs: list[HomoglyphPair] | None = None
    rows: list | None = None
    #: ... and what derives the source's own database on first use
    derive: Callable[[], HomoglyphDatabase] | None = None
    #: Digest of everything this source's pairs follow from (``""`` when
    #: unknown, which leaves the union digest unmemoised)
    identity: str = ""


class SourceDatabases(Mapping[str, HomoglyphDatabase]):
    """The selected sources' own pair databases, each derived on first use."""

    def __init__(self, built: Mapping[str, HomoglyphDatabase],
                 derive: Mapping[str, Callable[[], HomoglyphDatabase]]) -> None:
        self._order = [*built, *derive]
        self._built = dict(built)
        self._derive = dict(derive)

    def __getitem__(self, name: str) -> HomoglyphDatabase:
        database = self._built.get(name)
        if database is None:
            database = self._built[name] = self._derive[name]()
        return database

    def __iter__(self) -> Iterator[str]:
        return iter(self._order)

    def __len__(self) -> int:
        return len(self._order)


@dataclass(frozen=True)
class RegistryBuild:
    """A resolved selection, built."""

    #: canonical (sorted, deduplicated) selection
    selection: tuple[str, ...]
    #: union of every selected pair database
    database: HomoglyphDatabase
    #: the selected sources' individual pair databases (empty ones omitted),
    #: derived on first use
    per_source: Mapping[str, HomoglyphDatabase] = field(default_factory=dict)
    #: merged invisible table, or ``None`` when no selected source has one
    invisible: InvisibleTable | None = None
    #: fingerprint component: ``""`` for the default selection, the
    #: canonical token list otherwise (see module docstring)
    source_config: str = ""


class DatabaseRegistry:
    """Named homoglyph-database sources and the selection → union builder."""

    def __init__(self) -> None:
        self._builders: dict[str, Callable[[BuildContext], SourceBuild]] = {}

    def register(self, name: str, builder: Callable[[BuildContext], SourceBuild]) -> None:
        """Register (or replace) a source under *name*."""
        if not name or name != name.strip().lower():
            raise ValueError(f"source names are non-empty lowercase tokens, got {name!r}")
        self._builders[name] = builder

    def names(self) -> tuple[str, ...]:
        """Registered source names, sorted."""
        return tuple(sorted(self._builders))

    def __contains__(self, name: str) -> bool:
        return name in self._builders

    def resolve(self, selection: Iterable[str] | None) -> tuple[str, ...]:
        """Canonicalise a selection: default, lowercase, dedupe, sort, check."""
        if selection is None:
            names = list(DEFAULT_SOURCES)
        else:
            names = [str(name).strip().lower() for name in selection if str(name).strip()]
        if not names:
            raise ValueError("at least one database source must be selected")
        canonical = tuple(sorted(set(names)))
        for name in canonical:
            if name not in self._builders:
                raise UnknownSourceError(name, self.names())
        return canonical

    def build(
        self,
        selection: Iterable[str] | None = None,
        *,
        context: BuildContext | None = None,
    ) -> RegistryBuild:
        """Build the union database (and merged invisible table) for a selection."""
        canonical = self.resolve(selection)
        context = context if context is not None else BuildContext()

        if canonical == tuple(sorted(DEFAULT_SOURCES)):
            # The exact legacy name keeps database JSON artifacts unchanged.
            union = HomoglyphDatabase(name="UC∪SimChar")
        else:
            union = HomoglyphDatabase(name="∪".join(canonical))
        built: dict[str, HomoglyphDatabase] = {}
        derive: dict[str, Callable[[], HomoglyphDatabase]] = {}
        identities: dict[str, str] = {}
        invisible: InvisibleTable | None = None
        tokens: list[str] = []
        for name in canonical:
            source = self._builders[name](context)
            tokens.append(source.config_token or name)
            if source.rows or source.pairs:
                if source.rows:
                    union.add_rows(source.rows)
                for pair in source.pairs or ():
                    union.add(pair)
                derive[name] = source.derive
                identities[name] = source.identity
            elif source.database is not None and len(source.database):
                for pair in source.database:
                    union.add(pair)
                built[name] = source.database
                identities[name] = source.identity
            if source.invisible is not None:
                if invisible is not None:
                    raise ValueError(
                        "multiple selected sources contribute an invisible table"
                    )
                invisible = source.invisible

        cache = resolve_cache(context.cache_dir)
        memo = _union_memo(canonical, identities) if cache is not None else None
        if memo is not None:
            digest = cache.load_union_memo(memo)
            if digest is not None:
                union._digest = digest   # the content_digest() memo, as derived before
            else:
                cache.store_union_memo(memo, union.content_digest())
        is_default = canonical == tuple(sorted(DEFAULT_SOURCES))
        source_config = "" if is_default else ",".join(tokens)
        return RegistryBuild(
            selection=canonical,
            database=union,
            per_source=SourceDatabases(built, derive),
            invisible=invisible,
            source_config=source_config,
        )


@functools.cache
def _union_code_digest() -> str:
    """Digest of the code that turns the sources into the union's pairs."""
    package = Path(__file__).resolve().parents[1]
    paths = [package / "homoglyph" / name
             for name in ("database.py", "registry.py", "confusables.py")]
    paths.append(package / "unicode" / "idna.py")
    hasher = hashlib.sha256()
    for path in paths:
        hasher.update(path.relative_to(package).as_posix().encode("utf-8") + b"\0")
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def _union_memo(canonical: tuple[str, ...], identities: Mapping[str, str]) -> str | None:
    """Name of the union digest memo, or None when a pair source has no identity."""
    if not all(identities.values()):
        return None
    try:
        text = json.dumps({"selection": canonical, "sources": identities,
                           "unicode": unicodedata.unidata_version,
                           "code": _union_code_digest()}, sort_keys=True)
    except OSError:   # a source file that cannot be read
        return None
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


# -- the default sources ------------------------------------------------------


def _build_simchar(context: BuildContext) -> SourceBuild:
    builder = context.simchar_builder
    cache = resolve_cache(context.cache_dir)
    if builder is None and (context.font is not None or cache is None):
        from .simchar import SimCharBuilder

        builder = SimCharBuilder(context.font)
    if cache is None:
        return SourceBuild(name="simchar", database=builder.build().database)
    # With no builder given, cached_entry creates the default one only on a miss.
    entry, built = cached_entry(builder, cache, force=context.force_rebuild)
    if built is None:
        try:
            return SourceBuild(name="simchar", rows=entry.rows(), derive=entry.database,
                               identity=entry.checksum)
        except ValueError:   # rows that no store() wrote: build over them
            entry, built = cached_entry(builder, cache, force=True)
    return SourceBuild(name="simchar", database=built.database, identity=entry.checksum)


def _build_uc(context: BuildContext) -> SourceBuild:
    table = load_confusables()
    return SourceBuild(name="uc", pairs=[pair for pair in table.pairs() if pair.involves_idna_only()],
                       derive=functools.partial(_uc_database, table),
                       identity=table.source_digest)


def _uc_database(table: ConfusablesTable) -> HomoglyphDatabase:
    return table.to_database().restricted_to_idna(name="UC∩IDNA")


def _build_invisible(context: BuildContext) -> SourceBuild:
    table = default_invisible_table()
    return SourceBuild(
        name="invisible",
        invisible=table,
        # The table version (and curated set) is the source's identity —
        # fold it into the config token so a future table revision changes
        # every fingerprint that includes this source.
        config_token=f"invisible.v{table.version}",
    )


def default_registry() -> DatabaseRegistry:
    """A registry with the three standard sources registered."""
    registry = DatabaseRegistry()
    registry.register("simchar", _build_simchar)
    registry.register("uc", _build_uc)
    registry.register("invisible", _build_invisible)
    return registry

"""The SimChar ∪ UC union built pair by validated pair.

``SimCharCache.load`` once built one validated ``HomoglyphPair`` and one
``HomoglyphDatabase.add`` per cache row, the registry built the UC∩IDNA
database eagerly and then re-added every pair of both sources into the
union, and the union's ``content_digest`` was formatted from its pairs on
every build.  The production path now adds the checksummed rows straight
into the union (``HomoglyphDatabase.add_rows``), derives the per-source
databases on first use, and memoises the digest.  This module keeps the
old loops; differential tests pin the production path to them.
"""

from __future__ import annotations

import json

from repro.homoglyph.cache import CacheKey, SimCharCache
from repro.homoglyph.confusables import load_confusables
from repro.homoglyph.database import HomoglyphDatabase, HomoglyphPair

__all__ = ["load_validated", "union", "uc_idna", "default_sources"]


def load_validated(cache: SimCharCache, key: CacheKey, name: str = "SimChar") -> HomoglyphDatabase:
    """The entry's rows, each validated as a ``HomoglyphPair`` and added."""
    with open(cache.path_for(key), "rb") as handle:
        handle.readline()
        lines = handle.read().decode("utf-8").split("\n")
    rows = json.loads("[" + ",".join(filter(str.strip, lines)) + "]")
    database = HomoglyphDatabase(name=name)
    for first_hex, second_hex, delta_value, sources in rows:
        database.add(HomoglyphPair(chr(int(first_hex, 16)), chr(int(second_hex, 16)),
                                   frozenset(sources), delta_value))
    return database


def uc_idna() -> HomoglyphDatabase:
    """The UC source's database: the confusables restricted to IDNA."""
    return load_confusables().to_database().restricted_to_idna(name="UC∩IDNA")


def union(canonical: tuple[str, ...], per_source: dict[str, HomoglyphDatabase],
          name: str) -> HomoglyphDatabase:
    """Every pair of every selected source, re-added in selection order."""
    result = HomoglyphDatabase(name=name)
    for source in canonical:
        database = per_source.get(source)
        if database is None:
            continue
        for pair in database:
            result.add(pair)
    return result


def default_sources(cache: SimCharCache, key: CacheKey) -> dict[str, HomoglyphDatabase]:
    """The default selection's per-source databases, built eagerly."""
    return {"simchar": load_validated(cache, key), "uc": uc_idna()}

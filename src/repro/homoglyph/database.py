"""Homoglyph database model.

The detection algorithm (paper Algorithm 1) consults a *homoglyph database*:
a set of unordered character pairs judged visually confusable, each tagged
with the source database that contributed it (``UC`` for the Unicode
confusables list, ``SimChar`` for the automatically built database).  The
ShamFinder framework uses the union of both.

This module provides the :class:`HomoglyphPair` value type and the
:class:`HomoglyphDatabase` container with the operations the rest of the
library needs: membership tests, per-character lookup, set algebra,
filtering to the IDNA repertoire, per-block and per-Latin-letter statistics
(Tables 1-4), and JSON (de)serialisation so a built database can be shipped
to clients such as the warning UI.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from ..unicode.idna import is_pvalid

__all__ = ["HomoglyphPair", "HomoglyphDatabase", "SOURCE_UC", "SOURCE_SIMCHAR",
           "SOURCE_INVISIBLE"]

SOURCE_UC = "UC"
SOURCE_SIMCHAR = "SimChar"
#: Provenance tag of the curated invisible-character table
#: (:mod:`repro.homoglyph.invisible`) — attached to detections whose match
#: went through invisible stripping rather than a pair substitution.
SOURCE_INVISIBLE = "Invisible"

_ASCII_LOWER = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class HomoglyphPair:
    """An unordered pair of visually confusable characters.

    ``first``/``second`` are stored in code point order so that equal pairs
    hash identically regardless of construction order.
    """

    first: str
    second: str
    sources: frozenset[str] = frozenset()
    delta: int | None = None

    def __post_init__(self) -> None:
        if len(self.first) != 1 or len(self.second) != 1:
            raise ValueError("homoglyph pairs are single-character pairs")
        if self.first == self.second:
            raise ValueError("a character cannot be its own homoglyph pair")
        if ord(self.first) > ord(self.second):
            lower, higher = self.second, self.first
            object.__setattr__(self, "first", lower)
            object.__setattr__(self, "second", higher)
        object.__setattr__(self, "sources", frozenset(self.sources))

    @property
    def key(self) -> tuple[int, int]:
        """Ordered code point tuple identifying the pair."""
        return (ord(self.first), ord(self.second))

    def other(self, char: str) -> str:
        """Return the member of the pair that is not *char*."""
        if char == self.first:
            return self.second
        if char == self.second:
            return self.first
        raise ValueError(f"{char!r} is not part of this pair")

    def involves_idna_only(self) -> bool:
        """True when both characters are IDNA-PVALID."""
        return is_pvalid(ord(self.first)) and is_pvalid(ord(self.second))

    def merged_with(self, other: "HomoglyphPair") -> "HomoglyphPair":
        """Merge two records of the same pair (union sources, keep min Δ)."""
        if self.key != other.key:
            raise ValueError("cannot merge records of different pairs")
        deltas = [d for d in (self.delta, other.delta) if d is not None]
        return HomoglyphPair(
            self.first,
            self.second,
            self.sources | other.sources,
            min(deltas) if deltas else None,
        )

    def as_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "first": f"{ord(self.first):04X}",
            "second": f"{ord(self.second):04X}",
            "sources": sorted(self.sources),
            "delta": self.delta,
        }

    def as_row(self) -> list:
        """Compact form, as the SimChar cache stores it: ``["0065", "00E9", 2, ["SimChar"]]``."""
        return [f"{ord(self.first):04X}", f"{ord(self.second):04X}", self.delta,
                sorted(self.sources)]

    @classmethod
    def from_dict(cls, payload: Mapping) -> "HomoglyphPair":
        """Inverse of :meth:`as_dict`."""
        return cls(
            chr(int(payload["first"], 16)),
            chr(int(payload["second"], 16)),
            frozenset(payload.get("sources", ())),
            payload.get("delta"),
        )


@dataclass
class HomoglyphDatabase:
    """A set of homoglyph pairs with per-character lookup indexes."""

    name: str = "homoglyphs"
    _pairs: dict[tuple[int, int], HomoglyphPair] = field(default_factory=dict, repr=False)
    _index: dict[str, set[str]] = field(default_factory=dict, repr=False)
    #: Memo of :meth:`content_digest`; every mutation resets it.
    _digest: str | None = field(default=None, init=False, repr=False, compare=False)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Iterable[HomoglyphPair], *, name: str = "homoglyphs") -> "HomoglyphDatabase":
        """Build a database from an iterable of pairs (duplicates merged)."""
        db = cls(name=name)
        for pair in pairs:
            db.add(pair)
        return db

    def add(self, pair: HomoglyphPair) -> None:
        """Add a pair, merging sources/Δ when the pair already exists."""
        key = pair.key
        existing = self._pairs.get(key)
        if existing is not None:
            pair = existing.merged_with(pair)
        self._digest = None
        self._pairs[key] = pair
        self._index.setdefault(pair.first, set()).add(pair.second)
        self._index.setdefault(pair.second, set()).add(pair.first)

    def add_rows(self, rows: Iterable[Sequence]) -> None:
        """Add pairs in their :meth:`HomoglyphPair.as_row` form, trusting them.

        For rows that were validated pairs when a checksummed artifact
        stored them (the SimChar cache): the pairs are not validated again,
        each distinct source list becomes one shared ``frozenset``, and a
        pair already present merges as in :meth:`add`.
        """
        pairs, index = self._pairs, self._index
        chars: dict[str, str] = {}                  # hex code point -> character
        shared: dict[tuple, frozenset[str]] = {}    # source list -> its frozenset
        new, set_fields = object.__new__, object.__setattr__
        self._digest = None
        for first_hex, second_hex, delta, source_list in rows:
            first = chars.get(first_hex)
            if first is None:
                first = chars[first_hex] = chr(int(first_hex, 16))
            second = chars.get(second_hex)
            if second is None:
                second = chars[second_hex] = chr(int(second_hex, 16))
            sources = shared.get(tuple(source_list))
            if sources is None:
                sources = shared[tuple(source_list)] = frozenset(source_list)
            key = (ord(first), ord(second))
            if key in pairs:
                self.add(HomoglyphPair(first, second, sources, delta))
                continue
            # A frozen dataclass instance made without __init__: its fields
            # are those of the validated pair the row was written from.
            pair = new(HomoglyphPair)
            set_fields(pair, "__dict__", {"first": first, "second": second,
                                          "sources": sources, "delta": delta})
            pairs[key] = pair
            if first in index:
                index[first].add(second)
            else:
                index[first] = {second}
            if second in index:
                index[second].add(first)
            else:
                index[second] = {first}

    def add_pair(self, first: str, second: str, *, source: str, delta: int | None = None) -> None:
        """Convenience wrapper building the :class:`HomoglyphPair` in place."""
        self.add(HomoglyphPair(first, second, frozenset({source}), delta))

    # -- core queries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[HomoglyphPair]:
        return iter(self._pairs.values())

    def __contains__(self, pair: tuple[str, str] | HomoglyphPair) -> bool:
        if isinstance(pair, HomoglyphPair):
            return pair.key in self._pairs
        first, second = pair
        return self.are_homoglyphs(first, second)

    @property
    def pair_count(self) -> int:
        """Number of homoglyph pairs (the paper's "# homoglyph pairs")."""
        return len(self._pairs)

    @property
    def characters(self) -> set[str]:
        """All characters participating in at least one pair."""
        return set(self._index)

    @property
    def character_count(self) -> int:
        """Number of distinct characters (the paper's "# characters")."""
        return len(self._index)

    def are_homoglyphs(self, first: str, second: str) -> bool:
        """True when the two characters are listed as a confusable pair."""
        if first == second:
            return False
        return second in self._index.get(first, ())

    def homoglyphs_of(self, char: str) -> set[str]:
        """All characters confusable with *char*."""
        return set(self._index.get(char, set()))

    def get(self, first: str, second: str) -> HomoglyphPair | None:
        """Return the stored pair record, if any."""
        a, b = ord(first), ord(second)
        return self._pairs.get((a, b) if a <= b else (b, a))

    def pairs(self) -> list[HomoglyphPair]:
        """All pairs in deterministic (code point) order."""
        return [self._pairs[key] for key in sorted(self._pairs)]

    def content_digest(self) -> str:
        """Short digest of the exact pair set (sources and Δ included).

        Two databases with the same digest produce identical detection
        results, so artifacts derived from a database (the reference index)
        use this as their fingerprint component — it transitively covers
        whatever built the database (font, threshold, UC version).
        Memoized until the next :meth:`add`.
        """
        if self._digest is None:
            pairs = self.pairs()
            sources = {s: ",".join(sorted(s)) for s in {pair.sources for pair in pairs}}
            text = "".join([
                f"{ord(pair.first):04X}:{ord(pair.second):04X}:{pair.delta}:{sources[pair.sources]}\n"
                for pair in pairs
            ])
            self._digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
        return self._digest

    # -- set algebra --------------------------------------------------------

    def union(self, other: "HomoglyphDatabase", *, name: str | None = None) -> "HomoglyphDatabase":
        """Union of two databases (pairs merged, sources kept)."""
        result = HomoglyphDatabase(name=name or f"{self.name}|{other.name}")
        for pair in self:
            result.add(pair)
        for pair in other:
            result.add(pair)
        return result

    def intersection(self, other: "HomoglyphDatabase", *, name: str | None = None) -> "HomoglyphDatabase":
        """Pairs present in both databases."""
        result = HomoglyphDatabase(name=name or f"{self.name}&{other.name}")
        for key, pair in self._pairs.items():
            other_pair = other._pairs.get(key)
            if other_pair is not None:
                result.add(pair.merged_with(other_pair))
        return result

    def difference(self, other: "HomoglyphDatabase", *, name: str | None = None) -> "HomoglyphDatabase":
        """Pairs present here but not in *other*."""
        result = HomoglyphDatabase(name=name or f"{self.name}-{other.name}")
        for key, pair in self._pairs.items():
            if key not in other._pairs:
                result.add(pair)
        return result

    def restricted_to_idna(self, *, name: str | None = None) -> "HomoglyphDatabase":
        """Keep only pairs whose two characters are both IDNA-PVALID."""
        result = HomoglyphDatabase(name=name or f"{self.name}∩IDNA")
        for pair in self:
            if pair.involves_idna_only():
                result.add(pair)
        return result

    # -- statistics (Tables 1, 3, 4) -------------------------------------------

    def shared_characters(self, other: "HomoglyphDatabase") -> set[str]:
        """Characters appearing in both databases (Table 1's SimChar∩UC row)."""
        return self.characters & other.characters

    def latin_homoglyph_counts(self) -> dict[str, int]:
        """Number of homoglyphs of each Basic Latin lowercase letter (Table 3)."""
        counts: dict[str, int] = {}
        for letter in _ASCII_LOWER:
            partners = {p for p in self.homoglyphs_of(letter) if p not in _ASCII_LOWER}
            counts[letter] = len(partners)
        return counts

    def latin_homoglyph_total(self) -> int:
        """Total number of Latin-letter homoglyphs (Table 3 "Total" row)."""
        return sum(self.latin_homoglyph_counts().values())

    def block_histogram(self, *, exclude_basic_latin: bool = True) -> Counter:
        """Characters per Unicode block (Table 4)."""
        from ..unicode.blocks import block_name   # the block table loads only for this

        histogram: Counter = Counter()
        for char in self.characters:
            block = block_name(ord(char))
            if exclude_basic_latin and block == "Basic Latin":
                continue
            histogram[block] += 1
        return histogram

    def top_blocks(self, limit: int = 5) -> list[tuple[str, int]]:
        """Top-N blocks by member characters (Table 4)."""
        return self.block_histogram().most_common(limit)

    def summary(self) -> dict:
        """Compact statistics dictionary used by reports and benches."""
        return {
            "name": self.name,
            "characters": self.character_count,
            "pairs": self.pair_count,
            "latin_homoglyphs": self.latin_homoglyph_total(),
            "top_blocks": self.top_blocks(),
        }

    # -- serialisation ------------------------------------------------------------

    def to_json(self) -> str:
        """Serialise the database to a JSON string."""
        payload = {
            "name": self.name,
            "pairs": [pair.as_dict() for pair in self.pairs()],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "HomoglyphDatabase":
        """Inverse of :meth:`to_json`."""
        payload = json.loads(text)
        db = cls(name=payload.get("name", "homoglyphs"))
        for entry in payload.get("pairs", ()):
            db.add(HomoglyphPair.from_dict(entry))
        return db

    def save(self, path: str | os.PathLike) -> None:
        """Write the database to a JSON file."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path: str | os.PathLike) -> "HomoglyphDatabase":
        """Read a database previously written by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

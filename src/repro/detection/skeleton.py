"""Skeleton index — hash-join candidate generation for Algorithm 1.

The paper's Step III compares every extracted IDN against every same-length
reference domain.  At zone scale (~967M registered domains, 1,400+ TLDs)
that pairwise inner loop dominates; this module replaces it with a
*skeleton* hash-join:

1. compute the transitive closure of the homoglyph database's confusable
   pairs with a union-find (:class:`CharacterClasses`);
2. map every label to its canonical **skeleton** — each character replaced
   by its class representative (the lowest code point in the class), so two
   labels that Algorithm 1 could ever match fold to the same string;
3. bucket the reference labels by skeleton and look candidates up by hash
   instead of scanning the length bucket.

Because skeletonisation is per-character it preserves length, so equal
skeletons imply equal length — the paper's length pruning comes for free.

The closure is deliberately *coarser* than the database: confusability is
not transitive (``a~b`` and ``b~c`` do not imply ``a~c``), so one bucket
can contain references the candidate does **not** match.  Every bucket hit
is therefore re-checked with the exact Algorithm 1 position-wise test,
which makes the match sets byte-identical to the legacy pairwise scan
while doing orders of magnitude fewer comparisons.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Iterator, Mapping

from ..homoglyph.database import HomoglyphDatabase

__all__ = ["CharacterClasses", "SkeletonIndex"]


def _find(parent: dict[str, str], char: str) -> str:
    """Union-find root lookup with path compression."""
    root = char
    while parent[root] != root:
        root = parent[root]
    while parent[char] != root:
        parent[char], char = root, parent[char]
    return root


class CharacterClasses:
    """Union-find closure over a homoglyph database's confusable pairs.

    Each connected component of the pair graph becomes one class; the
    representative is the member with the lowest code point, so the mapping
    is deterministic regardless of the order pairs were inserted in.
    """

    def __init__(self, database: HomoglyphDatabase) -> None:
        parent: dict[str, str] = {}
        for pair in database:
            for char in (pair.first, pair.second):
                parent.setdefault(char, char)
            root_a = _find(parent, pair.first)
            root_b = _find(parent, pair.second)
            if root_a != root_b:
                parent[root_b] = root_a

        # Re-canonicalise every class to its min-code-point member so the
        # representative does not depend on union order.
        lowest: dict[str, str] = {}
        for char in parent:
            root = _find(parent, char)
            best = lowest.get(root)
            if best is None or ord(char) < ord(best):
                lowest[root] = char
        #: Code point → class representative, for every class member: the
        #: ``str.translate`` table :meth:`skeletonize` applies.
        self._table: dict[int, str] = {
            ord(char): lowest[_find(parent, char)] for char in parent
        }

    def representative(self, char: str) -> str:
        """Canonical representative of *char* (itself when not in any pair)."""
        return self._table.get(ord(char), char)

    def skeletonize(self, label: str) -> str:
        """Replace every character by its class representative.

        Length-preserving and idempotent: representatives map to
        themselves, so ``skeletonize(skeletonize(x)) == skeletonize(x)``.
        """
        return label.translate(self._table)

    def class_of(self, char: str) -> frozenset[str]:
        """All characters sharing *char*'s class (including itself)."""
        target = self.representative(char)
        members = {chr(c) for c, r in self._table.items() if r == target}
        members.add(char)
        return frozenset(members)

    def representatives(self) -> Mapping[str, str]:
        """The full character → representative mapping (read-only view)."""
        return {chr(c): r for c, r in self._table.items()}

    def __len__(self) -> int:
        return len(self._table)


#: Separator of a bucket's members in the packed artifact form
#: (:meth:`SkeletonIndex.packed`, :mod:`.index`).  Folded labels are domain
#: labels, so a C0 control can never collide with content.
PACK_SEPARATOR = "\x1f"


class SkeletonIndex:
    """Reference labels bucketed by skeleton for O(1) candidate lookup.

    Labels are stored pre-case-folded in insertion order, preserving the
    multiplicity and relative order of the legacy length-bucket scan so
    both paths return identical match lists.  Mutation (``extend``) is not
    concurrency-safe; a built index is only read.
    """

    def __init__(self, classes: CharacterClasses) -> None:
        self.classes = classes
        self._buckets: dict[str, list[str]] = {}
        self._size = 0

    def extend(self, folded_labels: Iterable[str]) -> None:
        """Index several (already case-folded) reference labels, in order."""
        labels = list(folded_labels)
        buckets = self._buckets
        skeletons = map(str.translate, labels, repeat(self.classes._table))   # skeletonize
        for label, skeleton in zip(labels, skeletons):
            buckets.setdefault(skeleton, []).append(label)
        self._size += len(labels)

    def candidates_for(self, folded_label: str) -> list[str]:
        """References that could match *folded_label* (superset of matches)."""
        return self._buckets.get(self.classes.skeletonize(folded_label), [])

    def buckets(self) -> Iterator[tuple[str, list[str]]]:
        """``(skeleton, members)`` pairs in insertion order (serialisation
        view); each members list is a copy."""
        return zip(list(self._buckets), map(list, self._buckets.values()))

    def packed(self) -> dict[str, str]:
        """Every bucket as its members joined with :data:`PACK_SEPARATOR`
        (the artifact form), in insertion order."""
        return {skeleton: PACK_SEPARATOR.join(bucket)
                for skeleton, bucket in self._buckets.items()}

    @property
    def bucket_count(self) -> int:
        """Number of distinct skeletons indexed."""
        return len(self._buckets)

    def __len__(self) -> int:
        return self._size

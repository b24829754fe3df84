"""Homograph detection algorithm (paper Algorithm 1).

Given a reference label ``r`` and a candidate IDN label ``x`` of the same
length, the candidate is a homograph of the reference when, at every
position, the characters either match exactly or form a pair in the
homoglyph database — and at least one position differs (otherwise the two
labels are simply identical).

One-vs-many matching runs through the **skeleton index**
(:mod:`.skeleton`): labels map to canonical skeletons via the union-find
closure of the database and hash-join on the skeleton, and bucket hits
are re-checked with the exact position-wise test.  The results are
byte-identical to the paper's pairwise scan over same-length references
(kept as a test oracle in ``tests/oracles/pairwise_matcher.py``), with
orders of magnitude fewer comparisons.

Case is folded with :func:`fold_label`, a *length-preserving* lowercase:
``str.lower()`` can change a label's length (U+0130 "İ" lowers to "i" plus
a combining dot), which would make length pruning and reported substitution
positions refer to the folded string instead of the original.  Characters
whose lowercase expands are kept as-is, so positions in a
:class:`MatchResult` are always valid indices into the original label.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count
from operator import ne
from typing import Iterable, Sequence

from ..homoglyph.database import HomoglyphDatabase
from ..homoglyph.invisible import InvisibleFinding, InvisibleTable
from ..idn.idna_codec import fold_label
from .skeleton import CharacterClasses, SkeletonIndex

# fold_label moved to repro.idn.idna_codec (so the IDNA layer can use it
# without importing detection); re-exported here for compatibility.
__all__ = ["CharacterSubstitution", "MatchResult", "HomographMatcher", "fold_label", "substitution"]

_new, _set_fields = object.__new__, object.__setattr__


@dataclass(frozen=True)
class CharacterSubstitution:
    """One differing position between a candidate and its reference."""

    position: int
    candidate_char: str
    reference_char: str

    def describe(self) -> str:
        """Human-readable description used by reports and the warning UI."""
        return (
            f"position {self.position}: U+{ord(self.candidate_char):04X} "
            f"{self.candidate_char!r} stands in for U+{ord(self.reference_char):04X} "
            f"{self.reference_char!r}"
        )


@dataclass(frozen=True)
class MatchResult:
    """Outcome of matching one candidate label against one reference label."""

    candidate: str
    reference: str
    is_homograph: bool
    substitutions: tuple[CharacterSubstitution, ...] = ()
    #: Invisible characters found in (and stripped from) the candidate
    #: before it matched — empty for the classic equal-length path.
    #: Positions index into the folded candidate label.
    invisibles: tuple[InvisibleFinding, ...] = ()
    #: The database sources that list the substituted pairs.
    sources: frozenset[str] = frozenset()

    @property
    def substitution_count(self) -> int:
        """Number of positions where a homoglyph substitution occurred."""
        return len(self.substitutions)


def substitution(position: int, candidate_char: str, reference_char: str) -> CharacterSubstitution:
    """A :class:`CharacterSubstitution`, made without the frozen
    dataclass's per-field ``__init__``."""
    made = _new(CharacterSubstitution)
    _set_fields(made, "__dict__", {
        "position": position, "candidate_char": candidate_char, "reference_char": reference_char})
    return made


class HomographMatcher:
    """Implements Algorithm 1 over a homoglyph database.

    With an *invisible_table* (the ``invisible`` database source selected),
    the skeleton-index path additionally runs the strip-and-rematch check:
    candidates carrying zero-width/bidi/combining-stack payloads are
    stripped and compared again, so a label that *renders* as a reference
    is caught even though its code point length differs.  The single-pair
    :meth:`match` implements the paper's equal-length Algorithm 1 only and
    never consults the table.
    """

    def __init__(
        self,
        database: HomoglyphDatabase,
        *,
        invisible_table: InvisibleTable | None = None,
    ) -> None:
        self.database = database
        self.invisible_table = invisible_table
        self._classes: CharacterClasses | None = None

    @property
    def classes(self) -> CharacterClasses:
        """Union-find closure of the database (built lazily, then cached)."""
        if self._classes is None:
            self._classes = CharacterClasses(self.database)
        return self._classes

    # -- single-pair matching --------------------------------------------------

    def match(self, candidate: str, reference: str) -> MatchResult:
        """Match one candidate label against one reference label.

        Both labels are expected in Unicode (U-label) form with the TLD
        already removed, as in the paper's Figure 2.  Case is folded once,
        length-preservingly, so substitution positions refer to the
        original labels.
        """
        candidate, reference = fold_label(candidate), fold_label(reference)
        return (self._match_folded(candidate, reference)
                or MatchResult(candidate, reference, False))

    def substitutions(self, candidate: str, reference: str) -> tuple[tuple, frozenset[str]] | None:
        """Algorithm 1 over two case-folded labels, without objects:
        ``(substitutions, sources)`` when *candidate* is a homograph of
        *reference*, else ``None``.

        ``substitutions`` holds one ``(position, candidate_char,
        reference_char)`` triple per differing position, in position
        order; each position's pair is looked up once, and ``sources`` are
        those of the pairs found.
        """
        if len(candidate) != len(reference):
            return None
        get = self.database.get
        substitutions = []
        sources: frozenset[str] | None = None
        for position in compress(count(), map(ne, candidate, reference)):
            cand_char, ref_char = candidate[position], reference[position]
            pair = get(cand_char, ref_char)
            if pair is None:
                return None
            substitutions.append((position, cand_char, ref_char))
            sources = pair.sources if sources is None else sources | pair.sources
        if sources is None:
            return None
        return tuple(substitutions), sources

    def _match_folded(self, candidate: str, reference: str) -> MatchResult | None:
        """:meth:`substitutions` as a :class:`MatchResult`, or ``None``.

        The result objects are made only for a match, without their
        generated ``__init__`` (a frozen dataclass sets each field through
        ``object.__setattr__``).
        """
        found = self.substitutions(candidate, reference)
        if found is None:
            return None
        substitutions, sources = found
        match = _new(MatchResult)
        _set_fields(match, "__dict__", {
            "candidate": candidate, "reference": reference, "is_homograph": True,
            "substitutions": tuple([substitution(*triple) for triple in substitutions]),
            "invisibles": (), "sources": sources})
        return match

    def is_homograph(self, candidate: str, reference: str) -> bool:
        """True when *candidate* is an IDN homograph of *reference*."""
        return self.match(candidate, reference).is_homograph

    # -- one-vs-many matching ------------------------------------------------------

    def match_against(
        self,
        candidate: str,
        references: Iterable[str],
    ) -> list[MatchResult]:
        """All references the candidate is a homograph of."""
        index = self.build_skeleton_index(references)
        return self.match_with_skeleton_index(candidate, index)

    # -- skeleton-index path (the fast one) -------------------------------------

    def build_skeleton_index(self, references: Iterable[str]) -> SkeletonIndex:
        """Bucket reference labels by their canonical skeleton."""
        index = SkeletonIndex(self.classes)
        index.extend(map(fold_label, references))
        return index

    def match_with_skeleton_index(
        self,
        candidate: str,
        index: SkeletonIndex,
    ) -> list[MatchResult]:
        """Match a candidate via skeleton hash-join + exact re-check.

        The union-find closure is coarser than the database (confusability
        is not transitive), so every bucket hit is confirmed with
        :meth:`_match_folded` before being reported.
        """
        folded = fold_label(candidate)
        matches: list[MatchResult] = []
        for reference in index.candidates_for(folded):
            result = self._match_folded(folded, reference)
            if result is not None:
                matches.append(result)
        if self.invisible_table is not None:
            matches.extend(self._match_invisible(folded, index))
        return matches

    def _match_invisible(self, folded: str, index: SkeletonIndex) -> list[MatchResult]:
        """Strip-and-rematch check for invisible-character homographs.

        The candidate's invisible payload (zero-width characters, bidi
        controls, combining stacks) is removed and the stripped form is
        re-joined against the index.  A stripped form *equal* to a
        reference is a homograph with no substitutions — the pure-payload
        attack; a stripped form matching through the database combines
        both vectors.  Substitution positions are mapped back onto the
        original folded label, and the findings ride on the result.

        No overlap with the classic path is possible: stripping removes at
        least one character, so the stripped form only matches references
        shorter than the ones the equal-length comparison considered.
        """
        findings = self.invisible_table.findings(folded)
        if not findings:
            return []
        stripped, positions = self.invisible_table.strip_with_positions(folded)
        if not stripped:
            return []
        matches: list[MatchResult] = []
        for reference in index.candidates_for(stripped):
            if reference == stripped:
                matches.append(MatchResult(folded, reference, True, (), findings))
                continue
            result = self._match_folded(stripped, reference)
            if result is None:
                continue
            remapped = tuple(
                CharacterSubstitution(positions[s.position], s.candidate_char,
                                      s.reference_char)
                for s in result.substitutions
            )
            matches.append(MatchResult(folded, reference, True, remapped, findings,
                                       result.sources))
        return matches

    # -- many-vs-many matching --------------------------------------------------------

    def find_homographs(
        self,
        candidates: Sequence[str],
        references: Sequence[str],
    ) -> list[MatchResult]:
        """All (candidate, reference) homograph matches, skeleton-indexed."""
        index = self.build_skeleton_index(references)
        results: list[MatchResult] = []
        for candidate in candidates:
            results.extend(self.match_with_skeleton_index(candidate, index))
        return results

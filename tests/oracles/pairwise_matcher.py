"""The legacy length-index matcher, kept as a test oracle.

Algorithm 1 as the paper runs it: compare a candidate label against
every reference label of the same length (the paper's pruning step).
:meth:`repro.detection.algorithm.HomographMatcher.find_homographs`
replaced it with the skeleton hash-join; both must return the identical
match list, order included.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.detection.algorithm import HomographMatcher, MatchResult, fold_label


def build_reference_index(references: Iterable[str]) -> dict[int, list[str]]:
    """Group reference labels by length (the paper's pruning step)."""
    index: dict[int, list[str]] = {}
    for reference in references:
        reference = fold_label(reference)
        index.setdefault(len(reference), []).append(reference)
    return index


def match_with_index(
    matcher: HomographMatcher,
    candidate: str,
    reference_index: dict[int, list[str]],
) -> list[MatchResult]:
    """Match a candidate against every same-length reference."""
    candidate = fold_label(candidate)
    matches: list[MatchResult] = []
    for reference in reference_index.get(len(candidate), ()):
        result = matcher._match_folded(candidate, reference)
        if result is not None:
            matches.append(result)
    return matches


def find_homographs_pairwise(
    matcher: HomographMatcher,
    candidates: Sequence[str],
    references: Sequence[str],
) -> list[MatchResult]:
    """All (candidate, reference) matches by the pairwise scan."""
    index = build_reference_index(references)
    results: list[MatchResult] = []
    for candidate in candidates:
        results.extend(match_with_index(matcher, candidate, index))
    return results

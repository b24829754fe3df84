"""Reference bucket-hit path: Step III through detection objects.

``repro.detection.shamfinder`` joins a bucket hit into plain rows and the
scan renders its sink lines straight from them.  This module is the path
that replaced: each bucket member confirmed by Algorithm 1 becomes a
:class:`~repro.detection.algorithm.MatchResult` with one
:class:`~repro.detection.algorithm.CharacterSubstitution` per differing
position, the name's detections are :class:`HomographDetection` objects
kept to its own TLD, and a sink line is ``json.dumps`` of a detection's
``as_dict()``.  Algorithm 1 is spelled out here too, so the oracle does not
share the code it checks.  The batch front-end (``ShamFinder.join_batch``)
is the one both paths use; a decoded bucket hit, which the front-end hands
on unparsed, is parsed here.
"""

from __future__ import annotations

import json

from repro.detection.algorithm import CharacterSubstitution, MatchResult
from repro.detection.report import HomographDetection
from repro.homoglyph.database import SOURCE_INVISIBLE, SOURCE_SIMCHAR
from repro.idn.domain import DomainName
from repro.idn.idna_codec import fold_label

__all__ = ["match_folded", "match_with_skeleton_index", "join_label", "detections_for",
           "detect_prepared", "sink_text"]


def match_folded(database, candidate: str, reference: str) -> MatchResult | None:
    """Algorithm 1 over two case-folded labels, as a match object."""
    if len(candidate) != len(reference):
        return None
    differing = [i for i, (a, b) in enumerate(zip(candidate, reference)) if a != b]
    if not differing:
        return None
    substitutions = []
    sources: frozenset[str] = frozenset()
    for position in differing:
        pair = database.get(candidate[position], reference[position])
        if pair is None:
            return None
        substitutions.append(
            CharacterSubstitution(position, candidate[position], reference[position]))
        sources |= pair.sources
    return MatchResult(candidate, reference, True, tuple(substitutions), (), sources)


def match_with_skeleton_index(finder, label: str, index) -> list[MatchResult]:
    """Every bucket member *label* matches, then the strip-and-rematch
    check when the finder has an invisible table."""
    database = finder.database
    folded = fold_label(label)
    matches = []
    for reference in index.candidates_for(folded):
        match = match_folded(database, folded, reference)
        if match is not None:
            matches.append(match)
    table = finder.invisible_table
    findings = table.findings(folded) if table is not None else ()
    if not findings:
        return matches
    stripped, positions = table.strip_with_positions(folded)
    if not stripped:
        return matches
    for reference in index.candidates_for(stripped):
        if reference == stripped:
            matches.append(MatchResult(folded, reference, True, (), findings))
            continue
        match = match_folded(database, stripped, reference)
        if match is None:
            continue
        remapped = tuple(CharacterSubstitution(positions[s.position], s.candidate_char,
                                               s.reference_char)
                         for s in match.substitutions)
        matches.append(MatchResult(folded, reference, True, remapped, findings, match.sources))
    return matches


def join_label(finder, label: str, prepared) -> tuple:
    """Each match of *label* paired with its reference domains (all TLDs)."""
    return tuple((match, prepared.references_for(match.reference))
                 for match in match_with_skeleton_index(finder, label, prepared.index))


def _sources(match: MatchResult) -> frozenset[str]:
    if match.invisibles:
        return match.sources | {SOURCE_INVISIBLE}
    return match.sources if match.substitutions else frozenset({SOURCE_SIMCHAR})


def detections_for(name, matches) -> list[HomographDetection]:
    """*name*'s detections through *matches*, under its own TLD only."""
    return [
        HomographDetection(idn=name.ascii, idn_unicode=name.unicode, reference=ref,
                           substitutions=match.substitutions, sources=_sources(match),
                           invisibles=match.invisibles)
        for match, refs in matches
        for ref in refs
        if ref.rpartition(".")[2] == name.tld
    ]


def detect_prepared(finder, idns, prepared) -> tuple[list[HomographDetection], int, int]:
    """``(detections, idn_count, skipped_count)`` through the objects."""
    batch = finder.join_batch(idns, prepared,
                              lambda label, _name: join_label(finder, label, prepared))
    detections = []
    idn_count = int(batch.fast.sum())
    skipped = 0
    for name, _label, matches, error in batch.joined:
        if error is not None:
            skipped += 1
        else:
            idn_count += 1
            name = name if isinstance(name, DomainName) else DomainName(name)
            detections.extend(detections_for(name, matches))
    return detections, idn_count, skipped


def sink_text(detections) -> str:
    """The sink lines of *detections*, each ``json.dumps`` of ``as_dict()``."""
    return "".join(json.dumps(d.as_dict(), ensure_ascii=False) + "\n" for d in detections)

"""Detection results and reporting.

A :class:`HomographDetection` records that one registered IDN is a
homograph of one reference domain, including the exact character
substitutions — the property the paper highlights as ShamFinder's advantage
over image-only approaches (it can *pinpoint the differential characters*).
:class:`DetectionReport` aggregates detections into the statistics the
measurement section reports (detections per database, most-targeted
reference domains).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from json.encoder import encode_basestring as _quote
from typing import Iterable, Mapping

from ..homoglyph.database import SOURCE_INVISIBLE, SOURCE_SIMCHAR, SOURCE_UC
from ..homoglyph.invisible import InvisibleFinding
from .algorithm import CharacterSubstitution

__all__ = ["HomographDetection", "DetectionReport", "detection_json"]


def detection_json(
    idn: str,
    unicode: str,
    reference: str,
    substitutions: Iterable[tuple[int, str, str]],
    sources: Iterable[str],
    invisibles: Iterable[InvisibleFinding] = (),
) -> str:
    """One detection's sink line, without its newline, written field by
    field: what ``json.dumps(detection.as_dict(), ensure_ascii=False)``
    writes for the :class:`HomographDetection` of these fields.

    *substitutions* are ``(position, candidate_char, reference_char)``
    triples, so a scan renders its bucket-hit rows with no detection
    object.
    """
    substituted = ", ".join([
        f'{{"position": {position}, "candidate": {_quote(cand_char)}, '
        f'"reference": {_quote(ref_char)}}}'
        for position, cand_char, ref_char in substitutions
    ])
    credited = ", ".join(map(_quote, sorted(sources)))
    line = (f'{{"idn": {_quote(idn)}, "unicode": {_quote(unicode)}, '
            f'"reference": {_quote(reference)}, "substitutions": [{substituted}], '
            f'"sources": [{credited}]')
    if invisibles:
        stripped = ", ".join([
            f'{{"position": {f.position}, "char": {_quote(f.char)}, '
            f'"category": {_quote(f.category)}}}'
            for f in invisibles
        ])
        line += f', "invisibles": [{stripped}]'
    return line + "}"


@dataclass(frozen=True)
class HomographDetection:
    """One detected IDN homograph."""

    idn: str                 # registered domain, ASCII/A-label form (e.g. xn--gogle-0ta.com)
    idn_unicode: str         # the same domain in Unicode form
    reference: str           # the targeted reference domain (e.g. google.com)
    substitutions: tuple[CharacterSubstitution, ...] = ()
    sources: frozenset[str] = frozenset()
    #: Invisible characters stripped before the match (empty on the classic
    #: equal-length path; see :mod:`repro.homoglyph.invisible`).
    invisibles: tuple[InvisibleFinding, ...] = ()

    @property
    def uses_uc(self) -> bool:
        """True when at least one substitution is covered by UC."""
        return SOURCE_UC in self.sources

    @property
    def uses_simchar(self) -> bool:
        """True when at least one substitution is covered by SimChar."""
        return SOURCE_SIMCHAR in self.sources

    @property
    def uses_invisible(self) -> bool:
        """True when the match went through invisible-character stripping."""
        return SOURCE_INVISIBLE in self.sources

    def describe(self) -> str:
        """One-line human readable summary."""
        parts = [s.describe() for s in self.substitutions]
        parts.extend(f.describe() for f in self.invisibles)
        subs = "; ".join(parts) or "identical rendering"
        return f"{self.idn_unicode} imitates {self.reference} ({subs})"

    def as_dict(self) -> dict:
        """JSON-friendly representation (one streaming-sink/golden line).

        The ``invisibles`` key is only present when there are findings, so
        classic detections serialise byte-identically to before the
        invisible source existed (golden fixtures enforce this).
        """
        payload = {
            "idn": self.idn,
            "unicode": self.idn_unicode,
            "reference": self.reference,
            "substitutions": [
                {
                    "position": s.position,
                    "candidate": s.candidate_char,
                    "reference": s.reference_char,
                }
                for s in self.substitutions
            ],
            "sources": sorted(self.sources),
        }
        if self.invisibles:
            payload["invisibles"] = [f.as_dict() for f in self.invisibles]
        return payload

    def as_json(self) -> str:
        """``json.dumps(self.as_dict(), ensure_ascii=False)`` (one
        streaming-sink line, without its newline; see :func:`detection_json`)."""
        return detection_json(
            self.idn, self.idn_unicode, self.reference,
            [(s.position, s.candidate_char, s.reference_char) for s in self.substitutions],
            self.sources, self.invisibles)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "HomographDetection":
        """Inverse of :meth:`as_dict`."""
        return cls(
            idn=payload["idn"],
            idn_unicode=payload["unicode"],
            reference=payload["reference"],
            substitutions=tuple(
                CharacterSubstitution(s["position"], s["candidate"], s["reference"])
                for s in payload.get("substitutions", ())
            ),
            sources=frozenset(payload.get("sources", ())),
            invisibles=tuple(
                InvisibleFinding.from_dict(f) for f in payload.get("invisibles", ())
            ),
        )


@dataclass
class DetectionReport:
    """Aggregated homograph detections for one measurement run."""

    detections: list[HomographDetection] = field(default_factory=list)

    def add(self, detection: HomographDetection) -> None:
        """Record a detection."""
        self.detections.append(detection)

    def extend(self, detections: Iterable[HomographDetection]) -> None:
        """Record several detections."""
        self.detections.extend(detections)

    def __len__(self) -> int:
        return len(self.detections)

    def __iter__(self):
        return iter(self.detections)

    # -- views used by the evaluation tables ------------------------------------

    def detected_idns(self) -> list[str]:
        """Unique detected IDN domains (a single IDN may target several references)."""
        return sorted({d.idn for d in self.detections})

    def references_targeted(self) -> list[str]:
        """Unique reference domains that have at least one homograph."""
        return sorted({d.reference for d in self.detections})

    def top_targets(self, limit: int = 5) -> list[tuple[str, int]]:
        """Reference domains with the most homographs (Table 9)."""
        counts = Counter()
        for detection in self.detections:
            counts[detection.reference] += 1
        return counts.most_common(limit)

    def count_by_database(self) -> dict[str, int]:
        """Unique IDNs detected per database source (Table 8).

        The ``Invisible`` row only appears when the invisible source
        contributed, keeping the classic three-row table byte-stable for
        runs on the default SimChar∪UC selection.
        """
        uc_idns = {d.idn for d in self.detections if d.uses_uc}
        simchar_idns = {d.idn for d in self.detections if d.uses_simchar}
        counts = {
            "UC": len(uc_idns),
            "SimChar": len(simchar_idns),
            "UC ∪ SimChar": len(uc_idns | simchar_idns),
        }
        invisible_idns = {d.idn for d in self.detections if d.uses_invisible}
        if invisible_idns:
            counts["Invisible"] = len(invisible_idns)
        return counts

    def detections_for_reference(self, reference: str) -> list[HomographDetection]:
        """All homographs of one reference domain."""
        return [d for d in self.detections if d.reference == reference]

    def homograph_map(self) -> dict[str, str]:
        """Mapping of detected IDN to (one of) its targeted reference domains."""
        mapping: dict[str, str] = {}
        for detection in self.detections:
            mapping.setdefault(detection.idn, detection.reference)
        return mapping

    def as_dicts(self) -> list[dict]:
        """Every detection as a JSON-friendly dict, in insertion order."""
        return [detection.as_dict() for detection in self.detections]

    def summary(self) -> dict:
        """Compact dictionary for benches and the CLI."""
        return {
            "detections": len(self.detections),
            "unique_idns": len(self.detected_idns()),
            "targeted_references": len(self.references_targeted()),
            "by_database": self.count_by_database(),
            "top_targets": self.top_targets(),
        }

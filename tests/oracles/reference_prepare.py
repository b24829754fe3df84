"""Reference preparation and artifact layout, one reference at a time.

``ShamFinder.prepare_references`` reads the registrable label of a plain
name (lowercase LDH ASCII) straight off its text, and
``repro.detection.index`` lays its offset directories out from the
separator bytes of each encoded section.  This module keeps the loops they replaced:
:func:`prepare_references` builds a full :class:`~repro.idn.domain.DomainName`
per reference and :func:`offset_directory` walks the records one by one.
Differential tests pin the production paths to them.
"""

from __future__ import annotations

from typing import Sequence

from repro.detection.algorithm import fold_label
from repro.detection.shamfinder import REFERENCE_SEPARATOR, PreparedReferences, ShamFinder
from repro.idn.domain import DomainName
from repro.idn.idna_codec import IDNAError

__all__ = ["prepare_references", "offset_directory"]


def prepare_references(
    finder: ShamFinder,
    reference: Sequence[str | DomainName],
) -> PreparedReferences:
    """Parse every reference with ``DomainName``, then bucket the labels."""
    reference_names: list[DomainName] = []
    for item in reference:
        try:
            reference_names.append(item if isinstance(item, DomainName) else DomainName(str(item)))
        except (IDNAError, ValueError):
            continue

    labels: dict[str, list[str]] = {}
    for ref in reference_names:
        labels.setdefault(fold_label(ref.registrable_unicode), []).append(ref.ascii)
    index = finder.matcher.build_skeleton_index(labels)
    return PreparedReferences(
        labels={label: REFERENCE_SEPARATOR.join(refs) for label, refs in labels.items()},
        index=index,
        domain_count=len(reference_names),
    )


def offset_directory(records: list[str]) -> list[int]:
    """END byte offsets of *records* within their joined section."""
    ends: list[int] = []
    position = 0
    for record in records:
        position += len(record.encode("utf-8"))
        ends.append(position)
        position += 1   # the joining separator byte
    return ends

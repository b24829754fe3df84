"""The ShamFinder framework (paper Section 3.1, Figure 1).

ShamFinder ties the pieces together:

* **Step 1** — collect registered domain names for a TLD (zone file or
  domain lists);
* **Step 2** — extract the IDNs (labels with the ``xn--`` prefix);
* **Step 3** — compare every IDN against a reference list of popular
  domains using the homoglyph database (UC ∪ SimChar) and report the
  homographs with their differential characters.

Step 3 runs per batch: one front-end sorts out the inputs the batch
kernel proves matchless, and :meth:`ShamFinder.join_label` runs
Algorithm 1 against each member of a label's skeleton bucket.  The join
makes no objects: its rows carry the reference domains, substitutions
and sources, a scan renders sink lines straight from them, and detection
objects are made only where a caller wants them.

The class also exposes the per-detection source attribution (which database
covered the substitutions), the reverting helper (Section 6.4), and a
timing probe used by the Section 4.2 computational-cost bench.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

import numpy as np

from ..homoglyph.database import (
    SOURCE_INVISIBLE,
    SOURCE_SIMCHAR,
    SOURCE_UC,
    HomoglyphDatabase,
)
from ..homoglyph.invisible import InvisibleTable
from ..homoglyph.registry import BuildContext, DatabaseRegistry, default_registry
from ..idn.domain import DomainName, unicode_from_decoded
from ..idn.idna_codec import IDNAError
from .algorithm import HomographMatcher, fold_label, substitution
from .batchfold import FAST_LABEL, MIN_KERNEL_BATCH, DecodedLabels, kernel_for
from .report import DetectionReport, HomographDetection
from .skeleton import PACK_SEPARATOR, CharacterClasses, SkeletonIndex

if TYPE_CHECKING:
    from ..homoglyph.simchar import SimCharBuilder
    from .index import MmapPreparedReferences
    from .revert import HomographReverter

__all__ = ["ShamFinder", "DetectionTiming", "PreparedReferences", "LabelMatches", "HitRow",
           "BatchJoin", "REFERENCE_SEPARATOR"]

#: Separator packing a label's reference domains into one string — the
#: same C0 byte the skeleton buckets pack with, imported so the artifact
#: layout has a single load-bearing constant.  Domains are LDH ASCII, so
#: the separator can never collide with content; packed groups load from
#: the index artifact with C-level ``str.split`` instead of per-entry
#: object construction.
REFERENCE_SEPARATOR = PACK_SEPARATOR

#: Matches every line of a newline-joined name list once: group 1 is the
#: registrable label of a *plain* name — labels of the batch kernel's
#: fast-parse rule (lowercase LDH, 1-63 octets, no hyphen at either end or
#: in positions 3-4, so no ``xn--`` either), at most 253 octets — and
#: empty for any other line.  A plain name is its own canonical ASCII and
#: Unicode form, so it needs no :class:`DomainName` parse.
_PLAIN_NAMES = re.compile(
    rf"^(?:(?=[^\n]{{1,253}}$)(?:{FAST_LABEL}\.)*?({FAST_LABEL})(?:\.{FAST_LABEL})?$"
    r"|[^\n]*)$",
    re.MULTILINE,
)


def _plain_registrable_labels(texts: list[str]) -> list[str]:
    """Per text, its registrable label if it is a plain name, else ``""``."""
    joined = "\n".join(texts)
    if joined.count("\n") != len(texts) - 1:
        return [""] * len(texts)   # a text holds a line break (or the list is empty)
    return _PLAIN_NAMES.findall(joined)


@dataclass(frozen=True)
class PreparedReferences:
    """The builder's form of a prepared reference list.

    The case-folded registrable label of each reference mapped back to the
    domains carrying it, plus the skeleton hash-join index over those
    labels.  It only feeds the ``refindex`` encoder
    (:func:`~.index.encode_index`); every query probes the encoded
    artifact (:class:`~.index.MmapPreparedReferences`, what
    :meth:`ShamFinder.prepare_references` returns).
    """

    #: case-folded registrable label → that label's reference domains in
    #: canonical ASCII form, packed with :data:`REFERENCE_SEPARATOR`
    labels: dict[str, str]
    #: skeleton hash-join index over the label keys
    index: SkeletonIndex
    #: number of reference domains that parsed (the paper's |M|)
    domain_count: int

    @classmethod
    def build(
        cls,
        reference: Iterable[str | DomainName],
        classes: CharacterClasses,
    ) -> "PreparedReferences":
        """Parse *reference* and bucket its labels by skeleton under *classes*.

        Invalid reference domains are dropped.  One regex pass over the
        whole list reads the registrable label of every plain name
        (lowercase LDH ASCII, no ``xn--``); only the other references are
        parsed as :class:`DomainName`.
        """
        items = reference if isinstance(reference, list) else list(reference)
        texts = list(map(str, items))
        plain = _plain_registrable_labels(texts)
        groups: dict[str, list[str]] = {}
        domain_count = 0
        for item, text, label in zip(items, texts, plain):
            if not label:
                try:
                    name = item if isinstance(item, DomainName) else DomainName(text)
                except (IDNAError, ValueError):
                    continue
                label, text = fold_label(name.registrable_unicode), name.ascii
            groups.setdefault(label, []).append(text)
            domain_count += 1
        labels = {label: REFERENCE_SEPARATOR.join(refs) for label, refs in groups.items()}
        index = SkeletonIndex(classes)
        index.extend(labels)
        return cls(labels=labels, index=index, domain_count=domain_count)


#: One label's skeleton-join outcome (:meth:`ShamFinder.join_label`): one
#: row per bucket member the label is a homograph of, ``(reference_label,
#: references, substitutions, sources, invisibles)``.  ``references`` are
#: the reference domains (canonical ASCII) carrying the member,
#: ``substitutions`` its ``(position, candidate_char, reference_char)``
#: triples, ``sources`` those a detection credits, and ``invisibles`` the
#: invisible findings stripped before the match (empty on the classic path).
LabelMatches = tuple

#: One input of a batch with a detection (:meth:`ShamFinder.hit_rows`):
#: ``(position, ascii, unicode, matches)``, the input's position in the
#: batch, the name's two forms and its label's matches kept to reference
#: domains under its own TLD.
HitRow = tuple


_new, _set_fields = object.__new__, object.__setattr__


@dataclass(frozen=True, eq=False)
class BatchJoin:
    """What :meth:`ShamFinder.join_batch` found for one batch of inputs."""

    #: Per input, True for a *fast miss*: no match, and an ASCII form
    #: equal to ``str(item)``.  Its Unicode form is ``str(item)`` too,
    #: unless :attr:`decoded` holds its registrable U-label.
    fast: np.ndarray
    #: The registrable U-labels the kernel decoded, by input position.
    decoded: DecodedLabels
    #: One ``(name, label, matches, error)`` per other input, in input
    #: order.  ``error`` is set, and ``name`` and ``label`` are
    #: ``None``, when the input is not a domain name; otherwise ``label``
    #: is the name's registrable U-label and ``name`` the parsed
    #: :class:`DomainName`, or for a bucket hit the kernel decoded, the
    #: input as given (``str(name)`` is the ASCII form either way).
    joined: list[tuple]


@dataclass(frozen=True)
class DetectionTiming:
    """Timing of a detection run (paper Section 4.2)."""

    reference_count: int
    idn_count: int
    total_seconds: float
    #: Candidate IDNs dropped because they are not domain names (bad labels,
    #: undecodable Punycode) — junk tolerated in zone data, but counted so a
    #: run over dirty input is auditable.
    skipped_count: int = 0

    @property
    def seconds_per_reference(self) -> float:
        """Average time spent per reference domain."""
        if self.reference_count == 0:
            return 0.0
        return self.total_seconds / self.reference_count


class ShamFinder:
    """End-to-end IDN homograph detector (the paper's framework object).

    Binds one homoglyph database (usually UC ∪ SimChar, see
    :meth:`with_default_databases`) to the Step III matcher and the
    Section 6.4 reverter.  The two detection idioms are:

    * one-shot: :meth:`detect` / :meth:`detect_with_timing` — prepare the
      reference list and match candidates in a single call;
    * prepared: :meth:`prepare_references` once, then
      :meth:`detect_prepared` per batch — the shape every higher layer
      (``StreamingScanner``, ``OnlineDetector``, the serving workers)
      builds on.  Prepared references are always the ``refindex``
      artifact attached in place, held in memory or mapped from a
      stored ``refindex-*.idx`` file (:mod:`repro.detection.index`).

    All detection paths produce byte-identical
    :class:`~.report.HomographDetection` results; the subsystem map in
    ``docs/ARCHITECTURE.md`` shows how they relate.
    """

    def __init__(
        self,
        database: HomoglyphDatabase,
        *,
        uc_database: HomoglyphDatabase | None = None,
        simchar_database: HomoglyphDatabase | None = None,
        invisible_table: InvisibleTable | None = None,
        source_config: str = "",
    ) -> None:
        self.database = database
        #: The sources' own databases by registry name, for
        #: :meth:`databases` and the Table 8 comparison only; a registry
        #: build derives each on first use.
        self._source_databases: Mapping[str, HomoglyphDatabase] = {
            name: db for name, db in (("uc", uc_database), ("simchar", simchar_database))
            if db is not None
        }
        #: Curated invisible-character table, set when the ``invisible``
        #: source is selected; enables the strip-and-rematch check in the
        #: matcher's skeleton path.
        self.invisible_table = invisible_table
        #: Fingerprint component naming the selected database sources —
        #: ``""`` for the historical default (SimChar ∪ UC), so existing
        #: reference-index artifacts keep their digests (see
        #: :mod:`repro.homoglyph.registry`).
        self.source_config = source_config
        self.matcher = HomographMatcher(database, invisible_table=invisible_table)

    @property
    def uc_database(self) -> HomoglyphDatabase | None:
        """The UC source's own database, if UC is among the sources."""
        return self._source_databases.get("uc")

    @property
    def simchar_database(self) -> HomoglyphDatabase | None:
        """The SimChar source's own database, if SimChar is among the sources."""
        return self._source_databases.get("simchar")

    @cached_property
    def reverter(self) -> HomographReverter:
        """The Section 6.4 reverter over :attr:`database`, built on first use."""
        from .revert import HomographReverter

        return HomographReverter(self.database)

    # -- construction ----------------------------------------------------------

    @classmethod
    def with_default_databases(
        cls,
        *,
        font=None,
        simchar_builder: SimCharBuilder | None = None,
        cache_dir=None,
        force_rebuild: bool = False,
        databases: Sequence[str] | None = None,
        registry: DatabaseRegistry | None = None,
    ) -> "ShamFinder":
        """Build a finder from registered database sources (default UC ∪ SimChar).

        *databases* selects the sources by name (``simchar``, ``uc``,
        ``invisible`` in the default registry; ``None`` means the historical
        SimChar ∪ UC).  When *cache_dir* is given (or
        ``SHAMFINDER_CACHE_DIR`` is set) the SimChar build goes through the
        persistent artifact cache, so a warm call loads the database in
        milliseconds instead of re-running the pairwise scan.
        ``force_rebuild=True`` ignores an existing entry but still
        refreshes it.
        """
        registry = registry if registry is not None else default_registry()
        built = registry.build(databases, context=BuildContext(
            font=font,
            simchar_builder=simchar_builder,
            cache_dir=cache_dir,
            force_rebuild=force_rebuild,
        ))
        finder = cls(built.database, invisible_table=built.invisible,
                     source_config=built.source_config)
        finder._source_databases = built.per_source
        return finder

    @classmethod
    def from_databases(cls, *databases: HomoglyphDatabase) -> "ShamFinder":
        """Build a finder from the union of arbitrary databases."""
        if not databases:
            raise ValueError("at least one database is required")
        union = databases[0]
        for other in databases[1:]:
            union = union.union(other)
        return cls(union)

    # -- Step 2: IDN extraction ---------------------------------------------------

    @staticmethod
    def extract_idns(domains: Iterable[str | DomainName]) -> list[DomainName]:
        """Extract the IDNs from a collection of registered domain names.

        Invalid names (undecodable Punycode, bad labels) are skipped, which
        mirrors how the paper's pipeline tolerates junk in zone data.
        """
        idns: list[DomainName] = []
        for item in domains:
            try:
                name = item if isinstance(item, DomainName) else DomainName(str(item))
            except (IDNAError, ValueError):
                continue
            if name.has_idn_registrable_label:
                idns.append(name)
        return idns

    # -- Step 3: homograph detection -------------------------------------------------

    def detect(
        self,
        idns: Sequence[str | DomainName],
        reference: Sequence[str | DomainName],
    ) -> DetectionReport:
        """Detect which IDNs are homographs of which reference domains.

        Both inputs are full domain names; comparison happens on the
        registrable label with the TLD removed, per the paper's Figure 2.
        """
        report, _timing = self.detect_with_timing(idns, reference)
        return report

    def detect_with_timing(
        self,
        idns: Sequence[str | DomainName],
        reference: Sequence[str | DomainName],
    ) -> tuple[DetectionReport, DetectionTiming]:
        """Like :meth:`detect` but also returns the wall-clock timing."""
        started = time.perf_counter()

        prepared = self.prepare_references(reference)
        detections, idn_count, skipped = self.detect_prepared(idns, prepared)
        report = DetectionReport()
        report.extend(detections)

        timing = DetectionTiming(
            reference_count=prepared.domain_count,
            idn_count=idn_count,
            total_seconds=time.perf_counter() - started,
            skipped_count=skipped,
        )
        return report, timing

    def prepare_references(
        self,
        reference: Iterable[str | DomainName],
    ) -> MmapPreparedReferences:
        """Parse and index a reference list for repeated detection calls.

        Invalid reference domains are dropped (as in :meth:`detect`);
        labels are case-folded once and bucketed by skeleton, so matching
        a candidate is a hash lookup.  The result is the ``refindex``
        artifact attached in memory (:func:`~.index.build_reference_index`).
        """
        from .index import build_reference_index   # index imports this module

        return build_reference_index(self, reference).prepared

    def detect_prepared(
        self,
        idns: Iterable[str | DomainName],
        prepared: MmapPreparedReferences,
    ) -> tuple[list[HomographDetection], int, int]:
        """Detection core over pre-indexed references.

        Returns ``(detections, idn_count, skipped_count)`` — what one
        streaming-scan chunk finds (:mod:`.stream`), as objects.  The batch
        goes through :meth:`hit_rows`; the fast misses count in
        ``idn_count`` exactly as parsing them would, and ``skipped_count``
        counts the inputs that are not domain names.
        """
        hits, idn_count, skipped = self.hit_rows(idns, prepared)
        detections: list[HomographDetection] = []
        for _position, ascii, unicode, matches in hits:
            detections.extend(self.detections_for(ascii, unicode, matches))
        return detections, idn_count, len(skipped)

    def hit_rows(
        self,
        idns: Iterable[str | DomainName],
        prepared: MmapPreparedReferences,
    ) -> tuple[list[HitRow], int, list[int]]:
        """:meth:`detect_prepared` without detection objects.

        Returns ``(hits, idn_count, skipped)``: one :data:`HitRow` per
        input with a detection, in input order, and the positions of the
        inputs that are not domain names.  Each label is joined under its
        own name's TLD, so a bucket member with no reference domain there
        is never compared.  A decoded bucket hit gets its Unicode form
        from its two forms, and only when it has a detection.
        """
        batch = self.join_batch(
            idns, prepared,
            lambda label, name: self.join_label(label, prepared, str(name).rpartition(".")[2]))
        hits: list[HitRow] = []
        skipped: list[int] = []
        for position, (name, label, matches, error) in zip(
                np.flatnonzero(~batch.fast).tolist(), batch.joined):
            if error is not None:
                skipped.append(position)
            elif not matches:
                continue
            elif isinstance(name, DomainName):
                hits.append((position, name.ascii, name.unicode, matches))
            else:
                hits.append((position, name, unicode_from_decoded(name, label), matches))
        return hits, len(batch.fast) - len(skipped), skipped

    def join_batch(
        self,
        items: Iterable[str | DomainName],
        prepared: MmapPreparedReferences,
        join: Callable[[str, str | DomainName], LabelMatches],
        *,
        cache_dir=None,
    ) -> BatchJoin:
        """Step III's batch front-end: every input's outcome, in order.

        Both :meth:`hit_rows` (``scan``, ``track``, the Section 5 study)
        and ``OnlineDetector.query_many`` (``query``, ``serve``) reach the
        skeleton join only through here.  The outcome is a
        :class:`BatchJoin`: the fast misses as a mask, the rest as joined
        rows.

        From :data:`~.batchfold.MIN_KERNEL_BATCH` inputs up, the
        domain-level kernel pass finds the fast misses among the raw
        strings.  A bucket hit whose registrable A-label that pass decoded
        is not parsed: its row holds the input as given and the U-label.
        The rest are parsed, and if that many were, the label-level pass
        runs over their labels.  *join* (``(label, name) -> matches``)
        runs only for labels neither pass proved matchless — a proved
        label gets ``()``, exactly what the join would return.  Smaller
        batches run the plain scalar loop.  *cache_dir* is where the
        kernel's fold-table sidecar lives.
        """
        items = items if isinstance(items, list) else list(items)
        fast = np.zeros(len(items), dtype=bool)
        decoded = DecodedLabels()
        kernel = None
        pending = range(len(items))
        if len(items) >= MIN_KERNEL_BATCH:
            kernel = kernel_for(self.matcher, prepared, cache_dir=cache_dir)
            fast, decoded = kernel.domain_misses(
                list(map(str, items)), invisible_table=self.invisible_table)
            pending = np.flatnonzero(~fast).tolist()

        rows: list[tuple] = []      # (name, label, error), in input order
        parsed: list[int] = []      # indexes into rows of the names parsed here
        for position in pending:
            item = items[position]
            label = decoded.get(position)
            if label is not None:
                rows.append((item, label, None))
                continue
            try:
                name = item if isinstance(item, DomainName) else DomainName(str(item))
            except (IDNAError, ValueError) as exc:
                rows.append((None, None, exc))
                continue
            parsed.append(len(rows))
            rows.append((name, name.registrable_unicode, None))

        proved = [False] * len(rows)
        if kernel is not None and len(parsed) >= MIN_KERNEL_BATCH:
            miss = kernel.certain_miss_mask(
                [rows[rank][1] for rank in parsed], invisible_table=self.invisible_table)
            for rank, is_miss in zip(parsed, miss.tolist()):
                proved[rank] = is_miss
        joined = [
            (name, label, () if error is not None or proved[rank] else join(label, name), error)
            for rank, (name, label, error) in enumerate(rows)
        ]
        return BatchJoin(fast, decoded, joined)

    def join_label(
        self,
        label: str,
        prepared: MmapPreparedReferences,
        tld: str | None = None,
    ) -> LabelMatches:
        """The skeleton join for one registrable label, as plain rows.

        Each member of the label's skeleton bucket is checked with
        Algorithm 1 (:meth:`~.algorithm.HomographMatcher.substitutions`);
        the ones that pass become :data:`LabelMatches` rows, in bucket
        order, followed by the strip-and-rematch matches of a label
        carrying invisible characters.  With *tld*, only reference domains
        under *tld* are kept, and a member with none there is skipped
        before the check; without one, only a member that passes is
        looked up.
        """
        folded = fold_label(label)
        references_for = prepared.references_for

        def kept(member: str) -> tuple[str, ...]:
            references = references_for(member)
            if tld is None:
                return references
            return tuple([ref for ref in references if ref.rpartition(".")[2] == tld])

        compare = self.matcher.substitutions
        joined = []
        for member in prepared.index.candidates_for(folded):
            if tld is not None:
                references = kept(member)
                if not references:
                    continue
            found = compare(folded, member)
            if found is not None:
                joined.append((member, references if tld is not None else kept(member),
                               *found, ()))
        if self.invisible_table is not None:
            for match in self.matcher._match_invisible(folded, prepared.index):
                references = kept(match.reference)
                if references:
                    triples = tuple([(s.position, s.candidate_char, s.reference_char)
                                     for s in match.substitutions])
                    joined.append((match.reference, references, triples,
                                   match.sources | {SOURCE_INVISIBLE}, match.invisibles))
        return tuple(joined)

    def detections_for(self, ascii: str, unicode: str,
                       matches: LabelMatches) -> list[HomographDetection]:
        """The detections of the name with forms *ascii* and *unicode*
        through its label's *matches*, under its own TLD only.

        Made as :class:`~.algorithm.MatchResult` is: without the frozen
        dataclass's per-field ``__init__``.
        """
        tld = ascii.rpartition(".")[2]
        detections = []
        for _member, references, substitutions, sources, invisibles in matches:
            made = None
            for ref in references:
                if ref.rpartition(".")[2] != tld:
                    continue
                if made is None:
                    made = tuple([substitution(*triple) for triple in substitutions])
                detection = _new(HomographDetection)
                _set_fields(detection, "__dict__", {
                    "idn": ascii, "idn_unicode": unicode, "reference": ref,
                    "substitutions": made, "sources": sources, "invisibles": invisibles})
                detections.append(detection)
        return detections

    # -- filtered views (Table 8 compares detection with UC only / SimChar only) -------

    def detect_with_database(
        self,
        idns: Sequence[str | DomainName],
        reference: Sequence[str | DomainName],
        database: HomoglyphDatabase,
    ) -> DetectionReport:
        """Run detection using a specific database (used for the Table 8 comparison)."""
        finder = ShamFinder(database)
        return finder.detect(idns, reference)

    # -- Section 6.4: reverting --------------------------------------------------------

    def revert_to_original(self, idn: str | DomainName) -> str | None:
        """Recover the most plausible original domain a homograph imitates."""
        name = idn if isinstance(idn, DomainName) else DomainName(str(idn))
        original_label = self.reverter.best_original(name.registrable_unicode)
        if original_label is None:
            return None
        return f"{original_label}.{name.tld}"

    # -- source attribution helpers ------------------------------------------------------

    def databases(self) -> dict[str, HomoglyphDatabase]:
        """The underlying databases keyed by their role."""
        result = {"union": self.database}
        if self.uc_database is not None:
            result[SOURCE_UC] = self.uc_database
        if self.simchar_database is not None:
            result[SOURCE_SIMCHAR] = self.simchar_database
        return result

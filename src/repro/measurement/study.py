"""End-to-end measurement study (paper Sections 5-6).

:class:`MeasurementStudy` wires every substrate together and reproduces
the paper's evaluation on a synthetic population:

1. merge the zone file and domainlists.io lists (Table 6);
2. classify the languages of registered IDNs (Table 7);
3. detect IDN homographs of the reference list with UC, SimChar and their
   union (Table 8) and rank the most-targeted references (Table 9);
4. probe NS/A records and scan web ports of the detected homographs
   (Table 10);
5. rank the active homographs by passive-DNS resolutions and inspect
   MX/web/SNS presence (Table 11);
6. classify active homograph websites and redirects (Tables 12-13);
7. check every detected homograph against the blacklist feeds (Table 14);
8. revert malicious homographs to the originals they imitate (Section 6.4).

Steps 4-8 run through the pluggable enrichment pipeline
(:mod:`repro.measurement.pipeline` + :mod:`repro.measurement.stages`):
:meth:`MeasurementStudy.run` is a thin composition of the detection step
and a :class:`PipelineRunner` over the default stage adapters, with
concurrent batches, optional per-stage JSONL sinks, and checkpoint/resume.
The pre-pipeline serial composition of the same steps is kept as a test
oracle (``tests/oracles/legacy_study.py``); both produce byte-identical
:meth:`StudyResults.summary` output.
"""

from __future__ import annotations

import os
from collections import Counter
from pathlib import Path
from typing import Callable

from ..detection.report import DetectionReport
from ..detection.shamfinder import DetectionTiming, ShamFinder
from ..detection.stream import ScanStats, StreamingScanner, is_idn_candidate, read_sink
from ..dns.passive_dns import PassiveDNSCollector
from ..dns.portscan import PortScanner, PortScanSummary
from ..dns.resolver import AuthoritativeStore, StubResolver
from ..idn.domain import DomainName
from ..idn.idna_codec import IDNAError
from ..langid.classifier import LanguageIdentifier
from ..web.classifier import ClassificationReport, WebsiteClassifier
from ..web.crawler import Crawler
from ..web.hosting import SiteCategory
from .domainlists import DomainPopulation
from .pipeline import (
    DetectionSummary,
    EnrichmentStage,
    PipelineRunner,
    StageEvent,
    select_stages,
)
from .results import PopularHomograph, StudyResults
from .stages import (
    BlacklistStage,
    ClassifyStage,
    DnsProbeStage,
    PopularityStage,
    PortScanStage,
    RevertStage,
)

__all__ = ["PopularHomograph", "StudyResults", "MeasurementStudy"]


class MeasurementStudy:
    """Runs the full Sections 5-6 pipeline over a synthetic population."""

    def __init__(self, population: DomainPopulation, finder: ShamFinder) -> None:
        self.population = population
        self.finder = finder

        # Publish the synthetic web into an authoritative DNS store and wire
        # the probing clients the study uses.
        self.store = AuthoritativeStore()
        population.web.publish_dns(self.store)
        self.resolver = StubResolver(self.store)
        self.passive_dns = PassiveDNSCollector()
        self.passive_dns.bulk_load(population.web.lookup_counts())
        self.scanner = PortScanner(population.web)
        self.crawler = Crawler(population.web)

    # -- individual stages ------------------------------------------------------

    def dataset_statistics(self) -> list[tuple[str, int, int]]:
        """Table 6: list sizes and IDN counts."""
        return self.population.dataset_table()

    def language_statistics(self, *, limit: int = 10) -> list[tuple[str, int, float]]:
        """Table 7: top languages of registered IDNs."""
        identifier = LanguageIdentifier()
        histogram: Counter = Counter()
        idns = self.extract_idns()
        for domain in idns:
            try:
                label = DomainName(domain).registrable_unicode
            except (IDNAError, ValueError):
                continue
            histogram[identifier.classify(label).name] += 1
        total = sum(histogram.values()) or 1
        return [
            (language, count, 100.0 * count / total)
            for language, count in histogram.most_common(limit)
        ]

    def extract_idns(self) -> list[str]:
        """Step 2 of the framework over the union of the two lists.

        Uses the same registrable-label test as the streaming pipeline
        (:func:`repro.detection.stream.is_idn_candidate`), so
        ``run(streaming=True)`` and ``run()`` see the identical candidate
        set.
        """
        return [
            domain for domain in self.population.all_domains
            if is_idn_candidate(domain)
        ]

    def detect_homographs(self) -> tuple[DetectionReport, DetectionTiming]:
        """Step 3 with the union database (also records timing, Section 4.2)."""
        idns = self.extract_idns()
        reference = self.population.reference.domains()
        return self.finder.detect_with_timing(idns, reference)

    def detect_homographs_streaming(
        self,
        *,
        chunk_size: int = 2000,
        jobs: int = 1,
    ) -> tuple[DetectionReport, DetectionTiming, ScanStats]:
        """Step 3 through the streaming scan pipeline (the zone-scale path).

        Chunked and optionally sharded over worker processes; returns the
        same detections as :meth:`detect_homographs` plus the scan's
        progress counters.
        """
        scanner = StreamingScanner(
            self.finder,
            self.population.reference.domains(),
            chunk_size=chunk_size,
            jobs=jobs,
        )
        report, stats = scanner.scan_to_report(self.population.all_domains)
        timing = DetectionTiming(
            reference_count=scanner.prepared.domain_count,
            idn_count=stats.idn_count,
            total_seconds=stats.elapsed_seconds,
            skipped_count=stats.skipped_count,
        )
        return report, timing, stats

    def detection_database_comparison(self) -> dict[str, int]:
        """Table 8: homographs found with UC, SimChar and the union."""
        report = self.detect_homographs()[0]
        return report.count_by_database()

    def probe_registrations(self, detected: list[str]) -> tuple[list[str], list[str], list[str]]:
        """NS/A probing of detected homographs (Section 6.1).

        Returns ``(with_ns, without_a, with_a)`` domain lists.
        """
        with_ns = [d for d in detected if self.resolver.has_ns(d)]
        without_a = [d for d in with_ns if not self.resolver.has_a(d)]
        with_a = [d for d in with_ns if self.resolver.has_a(d)]
        return with_ns, without_a, with_a

    def scan_ports(self, domains: list[str]) -> PortScanSummary:
        """Table 10: TCP/80 and TCP/443 scan of addressed homographs."""
        return self.scanner.scan_all(domains)

    def popular_homographs(self, active: list[str], *, limit: int = 10) -> list[PopularHomograph]:
        """Table 11: active homographs ranked by passive-DNS resolutions."""
        ranked = self.passive_dns.top_domains(limit, within=active)
        rows: list[PopularHomograph] = []
        for domain, resolutions in ranked:
            profile = self.population.web.get(domain)
            if profile is None:
                continue
            try:
                unicode_form = DomainName(domain).unicode
            except (IDNAError, ValueError):
                unicode_form = domain
            category = profile.category.value
            if profile.category is SiteCategory.FOR_SALE:
                category = "Sale"
            rows.append(PopularHomograph(
                domain_unicode=unicode_form,
                domain_ascii=domain,
                category=category,
                resolutions=resolutions,
                has_mx=profile.has_mx,
                had_mx_in_past=profile.had_mx_in_past,
                web_link=profile.linked_on_web,
                sns_link=profile.linked_on_sns,
            ))
        return rows

    def classify_active(self, active: list[str], detection: DetectionReport) -> ClassificationReport:
        """Tables 12-13: classify the active homograph websites."""
        classifier = WebsiteClassifier(
            self.population.web,
            crawler=self.crawler,
            blacklists=self.population.blacklists,
            reference_targets=detection.homograph_map(),
        )
        return classifier.classify_all(active)

    def blacklist_analysis(self, detection: DetectionReport) -> dict[str, dict[str, int]]:
        """Table 14: blacklist hits per homoglyph database."""
        by_database: dict[str, set[str]] = {"UC": set(), "SimChar": set(), "UC ∪ SimChar": set()}
        for hit in detection:
            if hit.uses_uc:
                by_database["UC"].add(hit.idn)
            if hit.uses_simchar:
                by_database["SimChar"].add(hit.idn)
            by_database["UC ∪ SimChar"].add(hit.idn)
        result: dict[str, dict[str, int]] = {}
        for database, idns in by_database.items():
            result[database] = self.population.blacklists.hit_counts(sorted(idns))
        return result

    def revert_analysis(self, detection: DetectionReport, *, top_reference: int = 1000) -> dict[str, str]:
        """Section 6.4: malicious homographs whose original is not a top domain."""
        top_labels = {
            domain.rsplit(".", 1)[0]
            for domain in self.population.reference.top(top_reference).domains()
        }
        malicious = sorted(self.population.blacklists.union_hits(detection.detected_idns()))
        labels = []
        for domain in malicious:
            try:
                labels.append(DomainName(domain).registrable_unicode)
            except (IDNAError, ValueError):
                continue
        return self.finder.reverter.targets_outside_reference(labels, top_labels)

    # -- enrichment pipeline -----------------------------------------------------

    def enrichment_stages(self) -> list[EnrichmentStage]:
        """The default stage adapters wired over this study's clients.

        New probes plug in here (or are passed straight to
        :class:`PipelineRunner`) as one adapter each.
        """
        return [
            DnsProbeStage(self.resolver),
            PortScanStage(self.scanner),
            PopularityStage(self.passive_dns, self.population.web),
            ClassifyStage(
                self.population.web,
                crawler=self.crawler,
                blacklists=self.population.blacklists,
            ),
            BlacklistStage(self.population.blacklists),
            RevertStage(self.finder.reverter, self.population.reference),
        ]

    # -- full pipeline -----------------------------------------------------------------

    def run(
        self,
        *,
        streaming: bool = False,
        chunk_size: int = 2000,
        jobs: int = 1,
        batch_size: int = 256,
        stages: list[str] | None = None,
        output_dir: str | os.PathLike | None = None,
        resume: bool = False,
        keep_detections: bool = True,
        progress: Callable[[StageEvent], None] | None = None,
    ) -> StudyResults:
        """Run detection plus the enrichment pipeline; paper-shaped tables.

        * ``streaming=True`` routes detection through the chunked/sharded
          scan pipeline; with an ``output_dir`` the detections additionally
          go through a durable JSONL sink (``detections.jsonl``) that the
          enrichment stages then consume chunk-by-chunk.
        * ``jobs`` bounds both the detection worker shards and the shared
          enrichment executor; ``batch_size`` is the intra-stage batch (and
          stage checkpoint) granularity.
        * ``stages`` selects a stage subset by name (dependencies are pulled
          in automatically); unrun stages leave their results at defaults.
        * With ``output_dir`` every stage persists ``stage_<name>.jsonl`` +
          checkpoint; ``resume=True`` continues an interrupted run.
        * ``keep_detections=False`` skips loading the sink back into
          :attr:`StudyResults.detection_report` (zone-scale runs).
        """
        if resume and output_dir is None:
            raise ValueError("resume=True requires an output_dir to resume from")

        results = StudyResults()
        results.dataset_table = self.dataset_statistics()
        results.idn_count = len(self.extract_idns())
        results.language_table = self.language_statistics()

        if streaming and output_dir is not None:
            output_dir = Path(output_dir)
            output_dir.mkdir(parents=True, exist_ok=True)
            sink = output_dir / "detections.jsonl"
            scanner = StreamingScanner(
                self.finder,
                self.population.reference.domains(),
                chunk_size=chunk_size,
                jobs=jobs,
            )
            stats = scanner.scan(self.population.all_domains, sink, resume=resume)
            results.scan_stats = stats
            results.detection_timing = DetectionTiming(
                reference_count=scanner.prepared.domain_count,
                idn_count=stats.idn_count,
                total_seconds=stats.elapsed_seconds,
                skipped_count=stats.skipped_count,
            )
            if keep_detections:
                # One sink pass serves both the report and its summary.
                results.detection_report = read_sink(sink)
                summary = DetectionSummary.from_report(results.detection_report)
            else:
                summary = DetectionSummary.from_sink(sink, chunk_size=chunk_size)
        elif streaming:
            detection, results.detection_timing, results.scan_stats = (
                self.detect_homographs_streaming(chunk_size=chunk_size, jobs=jobs)
            )
            results.detection_report = detection
            summary = DetectionSummary.from_report(detection)
        else:
            detection, results.detection_timing = self.detect_homographs()
            results.detection_report = detection
            summary = DetectionSummary.from_report(detection)

        results.detection_counts = summary.count_by_database()
        results.top_targets = summary.top_targets(5)
        results.detected_idn_count = len(summary.detected_idns)

        stage_objects = self.enrichment_stages()
        if stages is not None:
            stage_objects = select_stages(stage_objects, stages)
        runner = PipelineRunner(
            stage_objects,
            jobs=jobs,
            batch_size=batch_size,
            output_dir=Path(output_dir) / "stages" if output_dir is not None else None,
            resume=resume,
        )
        return runner.run(summary, results, progress=progress)

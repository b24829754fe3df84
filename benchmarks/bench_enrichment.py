"""Bench — batched-concurrent enrichment pipeline vs. the serial legacy path.

The paper's Sections 5-6 enrichment (NS/A probing, port scanning,
passive-DNS ranking, website classification, blacklist and revert
analysis) is network-bound: every probe is a round trip.  This bench
models that with a fixed per-probe RTT injected into the DNS store, the
host model and the crawler, then enriches a synthetic 10k-homograph
population twice:

* the serial legacy path (``MeasurementStudy`` stage methods, one domain
  at a time, exactly what ``tests/oracles/legacy_study.py`` composes), and
* the enrichment pipeline (``PipelineRunner`` over the default stage
  adapters, batched and overlapped on a shared 8-thread executor).

Both must produce identical tables, and the pipeline must win by at least
3x wall time — the concurrency headroom every future real-network probe
backend inherits.
"""

from __future__ import annotations

import time

from bench_util import print_table, record_bench

from repro.detection.report import DetectionReport, HomographDetection
from repro.detection.shamfinder import ShamFinder
from repro.homoglyph.database import SOURCE_UC, HomoglyphDatabase
from repro.measurement.domainlists import ZoneConfig, generate_population
from repro.measurement.pipeline import DetectionSummary, PipelineRunner
from repro.measurement.results import StudyResults
from repro.measurement.study import MeasurementStudy

HOMOGRAPH_COUNT = 10_000
PROBE_RTT_SECONDS = 0.0001          # 100 us simulated network round trip
JOBS = 8
MIN_SPEEDUP = 3.0


class LatencyStore:
    """Authoritative store proxy charging one RTT per record lookup."""

    def __init__(self, store) -> None:
        self._store = store

    @property
    def generation(self) -> int:
        return self._store.generation

    def lookup(self, name, rtype):
        time.sleep(PROBE_RTT_SECONDS)
        return self._store.lookup(name, rtype)

    def exists(self, name) -> bool:
        return self._store.exists(name)


class LatencyHostModel:
    """Host model proxy charging one RTT per port probe."""

    def __init__(self, web) -> None:
        self._web = web

    def open_ports(self, domain):
        time.sleep(PROBE_RTT_SECONDS)
        return self._web.open_ports(domain)


class LatencyCrawler:
    """Crawler proxy charging one RTT per page fetch."""

    def __init__(self, crawler) -> None:
        self._crawler = crawler

    def fetch(self, domain, **kwargs):
        time.sleep(PROBE_RTT_SECONDS)
        return self._crawler.fetch(domain, **kwargs)


def _population():
    config = ZoneConfig(
        total_domains=30_000,
        idn_fraction=0.35,
        homograph_count=HOMOGRAPH_COUNT,
        reference_size=2_000,
        seed=11,
    )
    return generate_population(config)


def _finder() -> ShamFinder:
    db = HomoglyphDatabase(name="bench")
    for latin, twins in {"a": "а", "o": "о", "e": "е", "i": "і", "c": "с"}.items():
        for twin in twins:
            db.add_pair(latin, twin, source=SOURCE_UC)
    return ShamFinder(db)


def _detections(population) -> DetectionReport:
    """Ground-truth detections straight from the injected homographs.

    The bench measures enrichment, not detection, so Step III is skipped.
    """
    report = DetectionReport()
    for homograph in population.homographs:
        report.add(HomographDetection(
            idn=homograph.domain_ascii,
            idn_unicode=homograph.domain_unicode,
            reference=homograph.reference,
            sources=frozenset({SOURCE_UC}),
        ))
    return report


def _latency_study(population, finder) -> MeasurementStudy:
    study = MeasurementStudy(population, finder)
    study.resolver.store = LatencyStore(study.store)
    study.scanner.host_model = LatencyHostModel(population.web)
    study.crawler = LatencyCrawler(study.crawler)
    return study


def test_concurrent_enrichment_speedup():
    population = _population()
    finder = _finder()
    report = _detections(population)

    # Serial legacy path: one probe at a time, full report in memory.
    serial_study = _latency_study(population, finder)
    start = time.perf_counter()
    detected = report.detected_idns()
    with_ns, without_a, with_a = serial_study.probe_registrations(detected)
    portscan = serial_study.scan_ports(with_a)
    active = portscan.reachable_domains()
    popular = serial_study.popular_homographs(active)
    classification = serial_study.classify_active(active, report)
    blacklist_table = serial_study.blacklist_analysis(report)
    reverted = serial_study.revert_analysis(report)
    serial_seconds = time.perf_counter() - start

    # Batched-concurrent pipeline on a fresh study (cold caches, same RTT).
    pipeline_study = _latency_study(population, finder)
    results = StudyResults()
    start = time.perf_counter()
    runner = PipelineRunner(pipeline_study.enrichment_stages(),
                            jobs=JOBS, batch_size=256)
    runner.run(DetectionSummary.from_report(report), results)
    pipeline_seconds = time.perf_counter() - start

    speedup = serial_seconds / pipeline_seconds
    print_table(
        f"Sections 5-6 enrichment: {HOMOGRAPH_COUNT:,} homographs, "
        f"{PROBE_RTT_SECONDS * 1e6:.0f} us simulated probe RTT",
        [
            ("serial legacy path", f"{serial_seconds:.3f} s", "1.0x"),
            (f"pipeline ({JOBS} threads)", f"{pipeline_seconds:.3f} s",
             f"{speedup:.1f}x"),
        ],
        headers=("path", "time", "speedup"),
    )
    print_table("per-stage wall time (concurrent)", [
        (timing.name, f"{timing.seconds:.3f} s", f"{timing.records:,} records")
        for timing in runner.timings
    ], headers=("stage", "time", "records"))

    # Identical tables on both paths.
    assert results.ns_count == len(with_ns)
    assert results.no_a_count == len(without_a)
    assert results.portscan.results == portscan.results
    assert results.popular_homographs == popular
    assert results.classification.sites == classification.sites
    assert results.blacklist_table == blacklist_table
    assert results.reverted_outside_reference == reverted

    record_bench("enrichment", {
        "homographs": HOMOGRAPH_COUNT,
        "jobs": JOBS,
        "serial_seconds": round(serial_seconds, 4),
        "pipeline_seconds": round(pipeline_seconds, 4),
        "pipeline_speedup": round(speedup, 2),
    })

    assert results.ns_count > 0 and results.portscan.reachable_count > 0
    assert speedup >= MIN_SPEEDUP

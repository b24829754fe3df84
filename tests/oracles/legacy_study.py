"""The pre-pipeline serial measurement study, kept as a test oracle.

:meth:`repro.measurement.study.MeasurementStudy.run` composes the
detection step with the enrichment pipeline; this composes the same
steps one after the other with the full detection report in memory, the
way the study ran before the pipeline existed.  Both must produce
byte-identical :meth:`StudyResults.summary` output.
"""

from __future__ import annotations

from repro.measurement.results import StudyResults
from repro.measurement.study import MeasurementStudy


def run_legacy(study: MeasurementStudy) -> StudyResults:
    """Run *study* serially: detect, then probe one domain at a time."""
    results = StudyResults()
    results.dataset_table = study.dataset_statistics()
    results.idn_count = len(study.extract_idns())
    results.language_table = study.language_statistics()

    detection, timing = study.detect_homographs()
    results.detection_report = detection
    results.detection_timing = timing
    results.detection_counts = detection.count_by_database()
    results.top_targets = detection.top_targets(5)

    detected = detection.detected_idns()
    results.detected_idn_count = len(detected)
    with_ns, without_a, with_a = study.probe_registrations(detected)
    results.ns_count = len(with_ns)
    results.no_a_count = len(without_a)

    results.portscan = study.scan_ports(with_a)
    active = results.portscan.reachable_domains()

    results.popular_homographs = study.popular_homographs(active)
    results.classification = study.classify_active(active, detection)
    results.redirect_intents = results.classification.redirect_intent_counts()
    results.blacklist_table = study.blacklist_analysis(detection)
    results.reverted_outside_reference = study.revert_analysis(detection)
    return results

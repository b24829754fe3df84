"""Equivalence suite: legacy study == pipeline study == streaming+resume.

The acceptance bar of the enrichment-pipeline refactor: the serial
pre-pipeline study (``oracles.legacy_study.run_legacy``) and every pipeline
configuration (in-memory, concurrent, sink-backed streaming, and a
killed-then-resumed run) must produce **byte-identical**
``StudyResults.summary()`` output and identical intermediate tables on the
golden population, and the per-stage JSONL sinks of a resumed run must be
byte-identical to an uninterrupted one.
"""

from __future__ import annotations

import json

import pytest

from oracles.legacy_study import run_legacy
from repro.measurement.results import StudyResults


def _summary_bytes(results) -> bytes:
    # No sort_keys: key insertion order must match too, the CLI prints it.
    return json.dumps(results.summary(), ensure_ascii=False, default=str).encode()


@pytest.fixture(scope="module")
def legacy_results(study):
    return run_legacy(study)


def _assert_equivalent(results, legacy):
    assert _summary_bytes(results) == _summary_bytes(legacy)
    assert results.popular_homographs == legacy.popular_homographs
    assert results.classification.sites == legacy.classification.sites
    assert results.portscan.results == legacy.portscan.results
    assert results.blacklist_table == legacy.blacklist_table
    assert results.reverted_outside_reference == legacy.reverted_outside_reference
    assert results.detected_idn_count == legacy.detected_idn_count


def test_pipeline_matches_legacy(study_results, legacy_results):
    # The session fixture runs the pipeline path; the legacy path must agree.
    _assert_equivalent(study_results, legacy_results)


def test_concurrent_pipeline_matches_legacy(study, legacy_results):
    results = study.run(jobs=4, batch_size=16)
    _assert_equivalent(results, legacy_results)
    assert {t.name for t in results.stage_timings} == {
        "dns", "portscan", "popularity", "classify", "blacklist", "revert",
    }


def test_streaming_sink_pipeline_matches_legacy(study, legacy_results, tmp_path):
    results = study.run(streaming=True, output_dir=tmp_path, jobs=2, batch_size=16)
    _assert_equivalent(results, legacy_results)
    assert results.scan_stats is not None
    assert (tmp_path / "detections.jsonl").exists()
    # Detections survive the sink round-trip.
    assert sorted(d.idn for d in results.detection_report) == \
        sorted(d.idn for d in legacy_results.detection_report)


def test_streaming_without_detection_report(study, legacy_results, tmp_path):
    results = study.run(streaming=True, output_dir=tmp_path, keep_detections=False)
    assert len(results.detection_report) == 0
    _assert_equivalent(results, legacy_results)


class _Killed(Exception):
    pass


def test_killed_then_resumed_run_is_byte_identical(study, legacy_results, tmp_path):
    clean_dir = tmp_path / "clean"
    study.run(streaming=True, output_dir=clean_dir, batch_size=8)

    resumable = tmp_path / "resumable"

    def bomb(event):
        if event.stage == "dns" and event.batches_done >= 1:
            raise _Killed

    with pytest.raises(_Killed):
        study.run(streaming=True, output_dir=resumable, batch_size=8, progress=bomb)

    results = study.run(streaming=True, output_dir=resumable, batch_size=8, resume=True)
    _assert_equivalent(results, legacy_results)
    assert any(t.resumed for t in results.stage_timings)

    clean_sinks = sorted((clean_dir / "stages").glob("stage_*.jsonl"))
    assert clean_sinks, "expected per-stage sinks"
    for clean in clean_sinks:
        resumed = resumable / "stages" / clean.name
        assert resumed.read_bytes() == clean.read_bytes(), clean.name


def test_stage_subset_pulls_dependencies(study):
    results = study.run(stages=["classify"])
    ran = {t.name for t in results.stage_timings}
    assert ran == {"dns", "portscan", "classify"}
    # Unselected stages leave their tables at defaults.
    assert results.blacklist_table == {}
    assert results.popular_homographs == []
    assert len(results.classification) > 0


def test_resume_without_output_dir_is_rejected(study):
    with pytest.raises(ValueError, match="output_dir"):
        study.run(resume=True)


def test_empty_results_summary_is_all_zero():
    # Satellite: summary() on a fresh StudyResults (e.g. a stage-subset run
    # that skipped the dataset step) must not crash on dataset_table[-1].
    summary = StudyResults().summary()
    assert summary["domains"] == 0
    assert summary["with_ns"] == 0
    assert summary["reachable"] == 0
    assert summary["blacklists"] == {}

"""Tests for the markdown report renderer."""

from oracles.legacy_study import run_legacy
from repro.measurement.reporting import render_markdown_report


def test_report_contains_every_table(study_results):
    report = render_markdown_report(study_results)
    for heading in ("Table 6", "Table 7", "Table 8", "Table 9", "Table 10",
                    "Table 11", "Table 12", "Table 13", "Table 14",
                    "Section 4.2", "Section 6.4"):
        assert heading in report


def test_report_is_valid_markdown_tables(study_results):
    report = render_markdown_report(study_results, title="Custom title")
    assert report.startswith("# Custom title")
    lines = report.splitlines()
    # Every table row has the same number of pipes as its header.
    for index, line in enumerate(lines):
        if set(line.replace("|", "").replace("-", "").strip()) == set() and line.startswith("|"):
            header = lines[index - 1]
            assert header.count("|") == line.count("|")


def test_report_renders_stage_timings(study_results):
    # The session results ran through the enrichment pipeline, so the
    # per-stage timing table is present and names every stage.
    report = render_markdown_report(study_results)
    assert "Enrichment pipeline" in report
    for stage in ("dns", "portscan", "popularity", "classify", "blacklist", "revert"):
        assert f"| {stage} |" in report


def test_report_without_stage_timings_omits_section(study):
    report = render_markdown_report(run_legacy(study))
    assert "Enrichment pipeline" not in report


def test_report_mentions_headline_values(study_results):
    report = render_markdown_report(study_results)
    assert "UC ∪ SimChar" in report
    assert "gmaıl.com" in report
    assert "hpHosts" in report
    # Counts are formatted with thousands separators for large numbers.
    assert "615,447" in report

"""CLI tests for the sub-commands that build databases or run the study.

These exercise the full default SimChar build, so they are slower than the
rest of the CLI tests (a few seconds each) but still well within unit-test
territory thanks to the laptop-scale repertoire.
"""

import json

import pytest

from oracles.legacy_study import run_legacy
from repro.cli import main
from repro.detection.shamfinder import ShamFinder
from repro.homoglyph.database import HomoglyphDatabase
from repro.measurement.domainlists import ZoneConfig, generate_population
from repro.measurement.study import MeasurementStudy


@pytest.mark.slow
def test_build_db_writes_union_database(tmp_path, capsys):
    output = tmp_path / "union.json"
    rc = main(["build-db", "--output", str(output)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["output"] == str(output)
    assert summary["pairs"] > 0
    assert summary["merged_pairs"] >= summary["pairs"]

    database = HomoglyphDatabase.load(output)
    assert database.are_homoglyphs("o", "о")
    assert database.are_homoglyphs("e", "é")


@pytest.mark.slow
def test_build_db_without_uc(tmp_path, capsys):
    output = tmp_path / "simchar.json"
    rc = main(["build-db", "--output", str(output), "--no-uc", "--threshold", "2"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["threshold"] == 2
    database = HomoglyphDatabase.load(output)
    # Without UC, every pair carries only the SimChar source.
    assert all(pair.sources == {"SimChar"} for pair in database)


@pytest.mark.slow
def test_build_db_cache_round_trip(tmp_path, capsys):
    output = tmp_path / "union.json"
    cache_dir = tmp_path / "cache"
    argv = ["build-db", "--output", str(output), "--cache-dir", str(cache_dir), "--jobs", "1"]

    assert main(argv) == 0
    cold = json.loads(capsys.readouterr().out)
    assert cold["cache"] == {"enabled": True, "hit": False, "dir": str(cache_dir)}
    assert cold["jobs"] == 1

    assert main(argv) == 0
    warm = json.loads(capsys.readouterr().out)
    assert warm["cache"]["hit"] is True
    assert warm["pairs"] == cold["pairs"]
    assert HomoglyphDatabase.load(output).pair_count == warm["merged_pairs"]

    assert main(argv + ["--force"]) == 0
    forced = json.loads(capsys.readouterr().out)
    assert forced["cache"]["hit"] is False


@pytest.mark.slow
def test_measure_text_output(capsys):
    rc = main(["measure", "--scale", "0.01", "--seed", "7"])
    assert rc == 0
    output = capsys.readouterr().out
    for heading in ("Table 6", "Table 7", "Table 8", "Table 9", "Table 10",
                    "Table 12", "Table 14"):
        assert heading in output


@pytest.mark.slow
def test_measure_json_output(capsys):
    rc = main(["measure", "--scale", "0.01", "--seed", "7", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert "detections" in payload and "blacklists" in payload
    assert payload["detections"]["UC ∪ SimChar"] >= payload["detections"]["UC"]
    assert [t["name"] for t in payload["stage_timings"]] == [
        "dns", "portscan", "popularity", "classify", "blacklist", "revert",
    ]


@pytest.mark.slow
def test_measure_streaming_pipeline_with_stage_subset(tmp_path, capsys):
    out_dir = tmp_path / "study"
    rc = main(["measure", "--scale", "0.01", "--seed", "7", "--json",
               "--streaming", "--jobs", "2", "--stages", "portscan,blacklist",
               "--output-dir", str(out_dir)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert {t["name"] for t in payload["stage_timings"]} == {
        "dns", "portscan", "blacklist",
    }
    assert (out_dir / "detections.jsonl").exists()
    assert (out_dir / "stages" / "stage_portscan.jsonl").exists()
    assert not (out_dir / "stages" / "stage_classify.jsonl").exists()

    # The same invocation with --resume skips everything already durable.
    rc = main(["measure", "--scale", "0.01", "--seed", "7", "--json",
               "--streaming", "--jobs", "2", "--stages", "portscan,blacklist",
               "--output-dir", str(out_dir), "--resume"])
    assert rc == 0
    resumed = json.loads(capsys.readouterr().out)
    assert all(t["resumed"] for t in resumed["stage_timings"])
    assert resumed["with_ns"] == payload["with_ns"]
    assert resumed["blacklists"] == payload["blacklists"]


@pytest.mark.slow
def test_measure_legacy_matches_pipeline(capsys):
    assert main(["measure", "--scale", "0.01", "--seed", "7", "--json"]) == 0
    piped = json.loads(capsys.readouterr().out)
    piped.pop("stage_timings")
    # The same study, run by the serial pre-pipeline oracle.
    study = MeasurementStudy(generate_population(ZoneConfig.paper_scaled(scale=0.01, seed=7)),
                             ShamFinder.with_default_databases())
    legacy = json.loads(json.dumps(run_legacy(study).summary(), ensure_ascii=False, default=str))
    assert legacy == piped

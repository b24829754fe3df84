"""Tests for the command-line interface.

The CLI sub-commands that need the full default SimChar build are exercised
through lighter paths (pre-built database files, small scales) to keep the
suite fast.
"""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import CLIError, _scan_progress, build_parser, main
from repro.detection.batchfold import FoldTable
from repro.detection.index import MmapPreparedReferences
from repro.detection.stream import ScanStats, StreamingScanner
from repro.idn.idna_codec import to_ascii_label


def test_parser_has_all_subcommands():
    parser = build_parser()
    for argv in (["build-db", "-o", "x.json"],
                 ["detect", "example.com"],
                 ["inspect", "example.com"],
                 ["measure"]):
        args = parser.parse_args(argv)
        assert args.command == argv[0]


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_detect_with_prebuilt_database(tmp_path, capsys, union_db):
    db_path = tmp_path / "db.json"
    union_db.save(db_path)
    rc = main([
        "detect",
        "xn--ggle-55da.com", "example.com",
        "--reference", "google.com", "amazon.com",
        "--database", str(db_path),
    ])
    assert rc == 0
    output = capsys.readouterr().out
    assert "google.com" in output
    assert "imitates" in output


def test_detect_json_output_and_files(tmp_path, capsys, union_db):
    db_path = tmp_path / "db.json"
    union_db.save(db_path)
    candidates = tmp_path / "candidates.txt"
    candidates.write_text("xn--facbook-dya.com\n\n", encoding="utf-8")
    reference = tmp_path / "reference.txt"
    reference.write_text("facebook.com\n", encoding="utf-8")
    rc = main([
        "detect",
        "--candidates-file", str(candidates),
        "--reference-file", str(reference),
        "--database", str(db_path),
        "--json",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["reference"] == "facebook.com"
    assert payload[0]["unicode"] == "facébook.com"
    assert payload[0]["sources"]


def test_detect_without_candidates_errors(capsys):
    rc = main(["detect"])
    assert rc == 2
    assert "no candidate domains" in capsys.readouterr().err


def test_detect_no_matches_message(tmp_path, capsys, union_db):
    db_path = tmp_path / "db.json"
    union_db.save(db_path)
    rc = main(["detect", "example.com", "--reference", "google.com",
               "--database", str(db_path)])
    assert rc == 0
    assert "no homographs" in capsys.readouterr().out


def test_inspect_plain_domain(capsys):
    rc = main(["inspect", "google.com"])
    assert rc == 0
    output = capsys.readouterr().out
    assert "ascii:     google.com" in output
    assert "idn:       False" in output


def test_inspect_invalid_domain(capsys):
    rc = main(["inspect", "bad domain!"])
    assert rc == 2
    assert "invalid domain" in capsys.readouterr().err


def test_parser_accepts_measure_pipeline_options():
    parser = build_parser()
    args = parser.parse_args([
        "measure", "--streaming", "--jobs", "4", "--batch-size", "64",
        "--stages", "dns,classify", "--output-dir", "out", "--resume",
    ])
    assert args.streaming and args.resume
    assert args.jobs == 4 and args.batch_size == 64
    assert args.stages == "dns,classify"


def test_measure_resume_requires_output_dir(capsys):
    rc = main(["measure", "--resume"])
    assert rc == 2
    assert "--output-dir" in capsys.readouterr().err


def test_parser_accepts_scan_options(tmp_path):
    parser = build_parser()
    args = parser.parse_args([
        "scan", "-i", "zone.txt", "-o", "out.jsonl",
        "--jobs", "4", "--chunk-size", "500", "--resume",
        "--checkpoint", "cp.json", "--all-domains", "--progress-every", "2",
    ])
    assert args.command == "scan"
    assert args.jobs == 4 and args.chunk_size == 500 and args.resume


def test_scan_subcommand_end_to_end(tmp_path, capsys, union_db):
    db_path = tmp_path / "db.json"
    union_db.save(db_path)
    input_path = tmp_path / "zone.txt"
    input_path.write_text(
        "xn--ggle-55da.com\nexample.com\n# comment\nxn--facbook-dya.com\n",
        encoding="utf-8",
    )
    output_path = tmp_path / "results.jsonl"
    rc = main([
        "scan", "-i", str(input_path), "-o", str(output_path),
        "--reference", "google.com", "facebook.com",
        "--database", str(db_path),
        "--chunk-size", "2",
    ])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["detection_count"] == 2
    assert stats["domains_seen"] == 3
    lines = [json.loads(line) for line in output_path.read_text("utf-8").splitlines()]
    assert {entry["reference"] for entry in lines} == {"google.com", "facebook.com"}
    assert (tmp_path / "results.jsonl.checkpoint").exists()


def test_scan_progress_prints_when_the_chunk_count_crosses_a_multiple(capsys):
    # One commit can cover several chunks, so a multiple of N may be passed
    # over rather than hit; it still prints, once per commit.
    progress = _scan_progress(5)
    for chunks in (3, 7, 9, 10, 12, 25, 26):
        progress(ScanStats(chunks_done=chunks, domains_seen=chunks * 10))
    printed = capsys.readouterr().err.splitlines()
    assert printed == [
        "chunk 7: 70 domains, 0 detections, 0 skipped",
        "chunk 10: 100 domains, 0 detections, 0 skipped",
        "chunk 25: 250 domains, 0 detections, 0 skipped",
    ]


def test_scan_progress_every_reaches_stderr(tmp_path, capsys, union_db):
    db_path = tmp_path / "db.json"
    union_db.save(db_path)
    input_path = tmp_path / "zone.txt"
    input_path.write_text("".join(f"plain{i}.com\n" for i in range(7)), encoding="utf-8")
    rc = main([
        "scan", "-i", str(input_path), "-o", str(tmp_path / "results.jsonl"),
        "--reference", "google.com", "--database", str(db_path),
        "--chunk-size", "1", "--progress-every", "3",
    ])
    assert rc == 0
    captured = capsys.readouterr()
    assert [line.split(":")[0] for line in captured.err.splitlines()] == ["chunk 3", "chunk 6"]
    stats = json.loads(captured.out)
    assert stats["chunks_done"] == stats["commits"] == 7


def test_parser_accepts_track_options():
    parser = build_parser()
    args = parser.parse_args([
        "track", "-s", "2019-05-01=day1.zone", "-s", "2019-05-02=day2.zone",
        "--state-dir", "state", "--jobs", "2", "--chunk-size", "100",
        "--resume", "--report", "report.md",
    ])
    assert args.command == "track"
    assert args.snapshot == ["2019-05-01=day1.zone", "2019-05-02=day2.zone"]
    assert args.jobs == 2 and args.resume


def test_track_rejects_malformed_snapshot_argument(tmp_path, capsys, union_db):
    db_path = tmp_path / "db.json"
    union_db.save(db_path)
    rc = main(["track", "-s", "no-separator", "--state-dir", str(tmp_path / "state"),
               "--database", str(db_path), "--reference", "google.com"])
    assert rc == 2
    assert "DATE=PATH" in capsys.readouterr().err


def test_track_subcommand_end_to_end(tmp_path, capsys, union_db):
    db_path = tmp_path / "db.json"
    union_db.save(db_path)

    def snapshot(date, domains):
        path = tmp_path / f"{date}.zone"
        path.write_text(
            "".join(f"{d}.\t172800\tIN\tNS\tns1.host.net.\n" for d in domains),
            encoding="utf-8",
        )
        return f"{date}={path}"

    day1 = snapshot("2019-05-01", ["example.com", "xn--ggle-55da.com"])
    day2 = snapshot("2019-05-02",
                    ["example.com", "xn--ggle-55da.com", "xn--facbook-dya.com"])
    state_dir = tmp_path / "state"
    report_path = tmp_path / "report.md"
    base = ["track", "-s", day1, "-s", day2, "--state-dir", str(state_dir),
            "--reference", "google.com", "facebook.com",
            "--database", str(db_path), "--report", str(report_path), "--json"]
    rc = main(base)
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stats"]["days_done"] == 2
    assert [day["new_homographs"] for day in payload["days"]] == [1, 1]
    assert {entry["idn"] for entry in payload["active"]} == {
        "xn--ggle-55da.com", "xn--facbook-dya.com"}
    assert (state_dir / "timeline.jsonl").exists()
    assert (state_dir / "state.json").exists()
    assert "Per-day zone churn" in report_path.read_text(encoding="utf-8")

    # A second resumed invocation skips both processed days.
    rc = main(base + ["--resume"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stats"]["days_resumed"] == 2
    assert payload["stats"]["days_done"] == 0


def test_scan_resume_refuses_changed_input(tmp_path, capsys, union_db):
    db_path = tmp_path / "db.json"
    union_db.save(db_path)
    input_path = tmp_path / "zone.txt"
    input_path.write_text("xn--ggle-55da.com\n", encoding="utf-8")
    output_path = tmp_path / "results.jsonl"
    base = ["scan", "-i", str(input_path), "-o", str(output_path),
            "--reference", "google.com", "--database", str(db_path)]
    assert main(base) == 0
    capsys.readouterr()
    input_path.write_text("xn--ggle-55da.com\nmore.com\n", encoding="utf-8")
    rc = main(base + ["--resume"])
    assert rc == 2
    assert "cannot resume" in capsys.readouterr().err


def test_scan_resume_refuses_type_corrupted_checkpoint(tmp_path, capsys, union_db):
    db_path = tmp_path / "db.json"
    union_db.save(db_path)
    input_path = tmp_path / "in.txt"
    input_path.write_text("xn--ggle-55da.com\nxn--facbook-dya.com\n", encoding="utf-8")
    reference_path = tmp_path / "refs.txt"
    reference_path.write_text("google.com\nfacebook.com\n", encoding="utf-8")
    output_path = tmp_path / "out.jsonl"
    base = ["scan", "-i", str(input_path), "-o", str(output_path),
            "--reference-file", str(reference_path), "--database", str(db_path)]
    assert main(base) == 0
    capsys.readouterr()
    checkpoint = tmp_path / "out.jsonl.checkpoint"
    text = checkpoint.read_text(encoding="utf-8")
    assert '"detections_written": 2' in text
    checkpoint.write_text(text.replace('"detections_written": 2', '"detections_written": "2"'),
                          encoding="utf-8")
    before = output_path.read_bytes()
    # Parsed as a number-typed field, the string once crashed resume with
    # a TypeError traceback; it must read as no usable checkpoint instead.
    assert main(base + ["--resume"]) == 2
    assert "no usable checkpoint" in capsys.readouterr().err
    assert output_path.read_bytes() == before


# -- query / serve ------------------------------------------------------------


def _saved_db(tmp_path, union_db):
    db_path = tmp_path / "db.json"
    union_db.save(db_path)
    return db_path


def test_query_text_and_exit_codes(tmp_path, capsys, union_db):
    db_path = _saved_db(tmp_path, union_db)
    rc = main(["query", "xn--ggle-55da.com", "example.com",
               "--reference", "google.com", "--database", str(db_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "homograph of google.com" in out
    assert "no homograph match" in out


def test_query_json_includes_detections_and_revert(tmp_path, capsys, union_db):
    db_path = _saved_db(tmp_path, union_db)
    rc = main(["query", "xn--ggle-55da.com", "--revert", "--json",
               "--reference", "google.com", "--database", str(db_path)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["is_homograph"] is True
    assert payload["detections"][0]["reference"] == "google.com"
    assert payload["revert"] == "google.com"


def test_query_invalid_domain_sets_exit_code(tmp_path, capsys, union_db):
    db_path = _saved_db(tmp_path, union_db)
    rc = main(["query", "..", "--reference", "google.com", "--database", str(db_path)])
    assert rc == 1
    assert "invalid" in capsys.readouterr().out


def test_query_stats_on_stderr(tmp_path, capsys, union_db):
    db_path = _saved_db(tmp_path, union_db)
    rc = main(["query", "xn--ggle-55da.com", "xn--GGLE-55da.com", "--stats",
               "--reference", "google.com", "--database", str(db_path)])
    assert rc == 0
    stats = json.loads(capsys.readouterr().err)
    assert stats["queries"] == 2
    assert stats["cache_hits"] == 1
    assert stats["index_mapped"] is False   # no --index-dir: held in memory


def test_query_index_dir_builds_and_reuses_artifact(tmp_path, capsys, union_db):
    db_path = _saved_db(tmp_path, union_db)
    index_dir = tmp_path / "index"
    base = ["query", "xn--ggle-55da.com", "--reference", "google.com",
            "--database", str(db_path), "--index-dir", str(index_dir), "--stats"]

    # Missing dir without --build-index: one-line error, no traceback.
    assert main(base) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--build-index" in err

    assert main(base + ["--build-index"]) == 0
    stats = json.loads(capsys.readouterr().err)
    assert stats["index_from_cache"] is False and stats["index_mapped"] is True
    assert list(index_dir.glob("refindex-*.idx"))

    assert main(base) == 0
    stats = json.loads(capsys.readouterr().err)
    assert stats["index_from_cache"] is True and stats["index_mapped"] is True


def test_query_missing_database_is_one_line_error(tmp_path, capsys):
    rc = main(["query", "example.com", "--reference", "google.com",
               "--database", str(tmp_path / "missing.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_detect_missing_font_is_one_line_error(tmp_path, capsys):
    rc = main(["detect", "example.com", "--reference", "google.com",
               "--font", str(tmp_path / "missing.hex")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read font file")
    assert err.count("\n") == 1


def test_serve_reads_file_and_emits_jsonl(tmp_path, capsys, union_db):
    db_path = _saved_db(tmp_path, union_db)
    input_path = tmp_path / "domains.txt"
    input_path.write_text(
        "xn--ggle-55da.com\n# comment\n\nexample.com\n", encoding="utf-8")
    rc = main(["serve", "-i", str(input_path), "--reference", "google.com",
               "--database", str(db_path), "--stats"])
    assert rc == 0
    captured = capsys.readouterr()
    lines = [json.loads(line) for line in captured.out.splitlines()]
    assert len(lines) == 2
    assert lines[0]["is_homograph"] is True
    assert lines[1]["is_homograph"] is False
    assert json.loads(captured.err)["queries"] == 2


def test_serve_missing_input_is_one_line_error(tmp_path, capsys, union_db):
    db_path = _saved_db(tmp_path, union_db)
    rc = main(["serve", "-i", str(tmp_path / "missing.txt"),
               "--reference", "google.com", "--database", str(db_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: cannot read")


def test_scan_reuses_index_dir(tmp_path, capsys, union_db):
    db_path = _saved_db(tmp_path, union_db)
    input_path = tmp_path / "zone.txt"
    input_path.write_text("xn--ggle-55da.com\nexample.com\n", encoding="utf-8")
    index_dir = tmp_path / "index"
    base = ["scan", "-i", str(input_path), "-o", str(tmp_path / "out.jsonl"),
            "--reference", "google.com", "--database", str(db_path),
            "--index-dir", str(index_dir)]

    assert main(base) == 2                      # missing dir: clear error
    assert "--build-index" in capsys.readouterr().err

    assert main(base + ["--build-index"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["detection_count"] == 1
    assert list(index_dir.glob("refindex-*.idx"))

    # Warm run: same results through the loaded artifact.
    assert main(["scan", "-i", str(input_path), "-o", str(tmp_path / "out2.jsonl"),
                 "--reference", "google.com", "--database", str(db_path),
                 "--index-dir", str(index_dir)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["detection_count"] == 1


def test_scan_and_track_with_an_index_dir_hold_a_mapped_index(tmp_path, capsys, union_db,
                                                              monkeypatch):
    held = []
    init = StreamingScanner.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        held.append(self.prepared)

    monkeypatch.setattr(StreamingScanner, "__init__", recording_init)
    db_path = _saved_db(tmp_path, union_db)
    input_path = tmp_path / "zone.txt"
    input_path.write_text("xn--ggle-55da.com\nexample.com\n", encoding="utf-8")
    zone = tmp_path / "day1.zone"
    zone.write_text("xn--ggle-55da.com.\t172800\tIN\tNS\tns1.host.net.\n", encoding="utf-8")
    common = ["--reference", "google.com", "--database", str(db_path),
              "--index-dir", str(tmp_path / "index")]

    for build in (["--build-index"], []):   # a fresh build, then a warm attach
        assert main(["scan", "-i", str(input_path), "-o", str(tmp_path / "out.jsonl"),
                     *common, *build]) == 0
        assert json.loads(capsys.readouterr().out)["detection_count"] == 1
    assert main(["track", "-s", f"2019-05-01={zone}", "--state-dir", str(tmp_path / "state"),
                 *common]) == 0
    capsys.readouterr()
    # Without --index-dir the same type holds the artifact bytes in memory.
    assert main(["scan", "-i", str(input_path), "-o", str(tmp_path / "out.jsonl"),
                 *common[:4]]) == 0
    assert json.loads(capsys.readouterr().out)["detection_count"] == 1
    assert len(held) == 4
    assert all(isinstance(prepared, MmapPreparedReferences) for prepared in held)
    assert [prepared.path is None for prepared in held] == [False, False, False, True]


def test_warm_index_dir_scan_and_track_read_the_fold_table_sidecar(tmp_path, capsys, union_db,
                                                                    monkeypatch):
    builds = []
    build = FoldTable.build.__func__

    def counting_build(cls, *args, **kwargs):
        builds.append(1)
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(FoldTable, "build", classmethod(counting_build))
    db_path = _saved_db(tmp_path, union_db)
    input_path = tmp_path / "zone.txt"
    # enough candidates for the batch kernel (MIN_KERNEL_BATCH)
    candidates = [to_ascii_label(f"gооgle{n}") + ".com" for n in range(12)] + ["xn--ggle-55da.com"]
    input_path.write_text("".join(f"{name}\n" for name in candidates), encoding="utf-8")
    index_dir = tmp_path / "index"
    common = ["--reference", "google.com", "--database", str(db_path),
              "--index-dir", str(index_dir)]

    assert main(["scan", "-i", str(input_path), "-o", str(tmp_path / "cold.jsonl"),
                 *common, "--build-index"]) == 0
    assert len(builds) == 1                      # cold: built once, saved as a sidecar
    assert list(index_dir.glob("foldtable-*.bin"))

    assert main(["scan", "-i", str(input_path), "-o", str(tmp_path / "warm.jsonl"),
                 *common]) == 0
    zone = tmp_path / "day1.zone"
    zone.write_text("".join(f"{name}.\t172800\tIN\tNS\tns1.host.net.\n" for name in candidates),
                    encoding="utf-8")
    assert main(["track", "-s", f"2019-05-01={zone}", "--state-dir", str(tmp_path / "state"),
                 *common]) == 0
    assert main(["query", *candidates, *common, "--json"]) == 0
    assert len(builds) == 1                      # warm: all three read the sidecar
    assert (tmp_path / "warm.jsonl").read_bytes() == (tmp_path / "cold.jsonl").read_bytes()
    capsys.readouterr()


def _stub_listening_server(monkeypatch, seen):
    """Make ``serve --listen`` return right after printing its listening line."""
    from repro.serving import server as serving_server

    async def start(self):
        seen.append(("start", gc.isenabled()))
        return "127.0.0.1", 0

    async def run(self):
        return None

    monkeypatch.setattr(serving_server.HomographServer, "start", start)
    monkeypatch.setattr(serving_server.HomographServer, "run", run)


def _serve_argv(tmp_path, union_db, *extra):
    return ["serve", "--listen", "127.0.0.1:0", "--reference", "google.com",
            "--database", str(_saved_db(tmp_path, union_db)),
            "--index-dir", str(tmp_path / "index"), "--build-index", *extra]


def test_serve_setup_runs_with_the_collector_paused(tmp_path, capsys, union_db, monkeypatch):
    import repro.cli as cli

    seen = []
    default_finder = cli._default_finder

    def finder(*args):
        seen.append(("set-up", gc.isenabled()))
        return default_finder(*args)

    monkeypatch.setattr(cli, "_default_finder", finder)
    _stub_listening_server(monkeypatch, seen)
    assert main(_serve_argv(tmp_path, union_db)) == 0
    assert seen == [("set-up", False), ("start", True)]
    assert gc.isenabled() and gc.get_freeze_count() == 0
    listening = json.loads(capsys.readouterr().err.splitlines()[0])
    assert set(listening) == {"listening", "workers", "fingerprint", "setup_ms"}
    setup = listening["setup_ms"]
    assert set(setup) == {"finder", "index", "total"}
    assert 0 <= setup["finder"] + setup["index"] <= setup["total"]


@pytest.mark.parametrize("error", [CLIError("no index"), RuntimeError("boom")])
def test_serve_setup_that_raises_restores_the_collector(tmp_path, capsys, union_db,
                                                        monkeypatch, error):
    import repro.cli as cli

    def failing(*args, **kwargs):
        assert not gc.isenabled()
        raise error

    monkeypatch.setattr(cli, "_resolve_index", failing)
    if isinstance(error, CLIError):
        assert main(_serve_argv(tmp_path, union_db)) == 2
        assert "error: no index" in capsys.readouterr().err
    else:
        with pytest.raises(RuntimeError, match="boom"):
            main(_serve_argv(tmp_path, union_db))
    assert gc.isenabled() and gc.get_freeze_count() == 0


def test_serve_workers_run_with_the_collector_enabled(tmp_path, capsys, union_db, monkeypatch):
    from repro.serving import server as serving_server

    pools, children = [], []
    warm = serving_server.WorkerPool.warm

    def recording_warm(self, *args, **kwargs):
        pools.append(self)
        warm(self, *args, **kwargs)
        children.append(self._executor.submit(gc.isenabled).result())

    monkeypatch.setattr(serving_server.WorkerPool, "warm", recording_warm)
    _stub_listening_server(monkeypatch, [])
    try:
        assert main(_serve_argv(tmp_path, union_db, "--workers", "1")) == 0
    finally:
        for pool in pools:
            pool.close()
    assert children == [True]
    assert gc.isenabled()


#: Modules only ``scan``/``track`` or a SimChar build run (with the
#: ``repro.fonts`` and ``repro.metrics`` packages).
_SCAN_OR_BUILD_ONLY = {
    "repro.detection.stream", "repro.detection.revert",
    "repro.homoglyph.simchar", "repro.homoglyph.latin", "repro.homoglyph.blocks",
    "repro.unicode.blocks", "repro.unicode.codepoint", "repro.unicode.scripts",
    "repro.unicode.ucd",
}


def test_serve_and_query_import_no_measurement_stack():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, repro.cli, repro.serving.server; print(*sorted(sys.modules))"
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120,
                            capture_output=True, text=True).stdout.split()
    assert "repro.cli" in loaded
    assert [name for name in loaded
            if name.startswith(("repro.measurement", "repro.dns", "repro.web"))] == []
    # Scan-only and SimChar-build-only code loads where it is used.
    assert [name for name in loaded if name in _SCAN_OR_BUILD_ONLY
            or name.startswith(("repro.fonts", "repro.metrics"))] == []


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc")
def test_cli_import_runs_numpy_on_one_openblas_thread_unless_the_user_says_otherwise():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {name: value for name, value in os.environ.items()
           if name not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import os, repro.cli, numpy; "
            "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])")

    def run(**extra):
        return subprocess.run([sys.executable, "-c", code], env={**env, **extra}, check=True,
                              timeout=120, capture_output=True, text=True).stdout.split()

    assert run() == ["1", "1"]
    assert run(OPENBLAS_NUM_THREADS="2")[1] == "2"

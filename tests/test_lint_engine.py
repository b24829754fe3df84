"""repro-lint engine behaviour: pragmas, baseline, exit codes, clean tree.

The contract under test (docs/LINT.md):

* pragma comments are parsed with :mod:`tokenize` (never from string
  literals), reasons are mandatory, and a pragma covers its own line
  plus the line below;
* the baseline matches on ``(rule, path, message)`` — not line numbers —
  demotes findings to non-fatal, and flags entries that no longer match
  anything as stale;
* the CLI exits 0 on clean, 1 on new findings, 2 on usage errors;
* the current ``src/`` tree is clean under the committed
  ``lint-baseline.json`` — the invariant CI enforces.
"""

import json
from pathlib import Path

from repro.lint import run_lint
from repro.lint.baseline import Baseline, BaselineEntry, BaselineError
from repro.lint.cli import main as lint_main
from repro.lint.pragmas import parse_pragmas

REPO_ROOT = Path(__file__).parent.parent
FIXTURES = Path(__file__).parent / "data" / "lint_fixtures"


# -- pragma parsing ---------------------------------------------------------

def test_allow_pragma_parsed_with_reason():
    pragmas = parse_pragmas(
        "x = label.lower()  # lint: allow-fold-safety(stored, never indexed)\n"
    )
    allow = pragmas.allow_for("fold-safety", 1)
    assert allow is not None
    assert allow.reason == "stored, never indexed"
    assert not pragmas.malformed


def test_allow_pragma_covers_the_line_below():
    pragmas = parse_pragmas(
        "# lint: allow-fold-safety(next line)\n"
        "x = label.lower()\n"
    )
    assert pragmas.allow_for("fold-safety", 2) is not None
    assert pragmas.allow_for("fold-safety", 3) is None
    assert pragmas.allow_for("atomic-write", 2) is None


def test_allow_pragma_without_reason_is_malformed():
    pragmas = parse_pragmas("x = 1  # lint: allow-fold-safety()\n")
    assert pragmas.allow_for("fold-safety", 1) is None
    assert any("requires a reason" in message for _, message in pragmas.malformed)


def test_unrecognised_pragma_is_malformed():
    pragmas = parse_pragmas("x = 1  # lint: allow_fold_safety(typo)\n")
    assert any("unrecognised" in message for _, message in pragmas.malformed)


def test_pragma_inside_string_literal_is_ignored():
    pragmas = parse_pragmas(
        'doc = "# lint: allow-fold-safety(not a comment)"\n'
    )
    assert pragmas.allow_for("fold-safety", 1) is None
    assert not pragmas.malformed


def test_guarded_by_declaration_parsed():
    pragmas = parse_pragmas(
        "self._cache = {}  # guarded-by: _cache_lock\n"
        "self._current = None  # guarded-by: _reload_lock [writes]\n"
    )
    assert pragmas.guards[1].lock == "_cache_lock"
    assert pragmas.guards[1].writes_only is False
    assert pragmas.guards[2].lock == "_reload_lock"
    assert pragmas.guards[2].writes_only is True


def test_fingerprint_markers_parsed():
    pragmas = parse_pragmas(
        "# lint: fingerprint(CacheKey)\n"
        "def key_for(builder):\n"
        "    pass\n"
    )
    assert pragmas.marker_for_def(2) == "CacheKey"
    assert pragmas.marker_for_def(4) is None


# -- baseline ---------------------------------------------------------------

def _fold_finding():
    result = run_lint([FIXTURES / "fold_position.py"], rules=["fold-safety"])
    assert len(result.new) == 1
    return result.new[0]


def test_baseline_round_trip(tmp_path):
    entry = BaselineEntry(rule="fold-safety", path="a.py", message="m",
                          justification="because")
    path = tmp_path / "baseline.json"
    Baseline(entries=[entry]).save(path)
    loaded = Baseline.load(path)
    assert loaded.entries == [entry]
    assert loaded.covers(("fold-safety", "a.py", "m"))
    assert not loaded.covers(("fold-safety", "a.py", "other"))


def test_baseline_rejects_empty_justification(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({
        "version": 1,
        "entries": [{"rule": "r", "path": "p", "message": "m",
                     "justification": "   "}],
    }))
    try:
        Baseline.load(path)
    except BaselineError as exc:
        assert "justification" in str(exc)
    else:
        raise AssertionError("empty justification accepted")


def test_baseline_rejects_unknown_version(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"version": 99, "entries": []}))
    try:
        Baseline.load(path)
    except BaselineError as exc:
        assert "version" in str(exc)
    else:
        raise AssertionError("unknown version accepted")


def test_baseline_demotes_matching_finding_ignoring_line():
    finding = _fold_finding()
    baseline = Baseline(entries=[BaselineEntry(
        rule=finding.rule, path=finding.path, message=finding.message,
        justification="grandfathered for the test",
    )])
    result = run_lint([FIXTURES / "fold_position.py"], rules=["fold-safety"],
                      baseline=baseline)
    assert result.ok
    assert len(result.baselined) == 1
    assert not result.stale_baseline


def test_stale_baseline_entry_is_reported_not_fatal():
    baseline = Baseline(entries=[BaselineEntry(
        rule="fold-safety", path="tests/data/lint_fixtures/fold_position.py",
        message="a finding that no longer exists", justification="obsolete",
    )])
    result = run_lint([FIXTURES / "silent_except.py"], rules=["broad-except"],
                      baseline=baseline)
    assert result.stale_baseline == [(
        "fold-safety", "tests/data/lint_fixtures/fold_position.py",
        "a finding that no longer exists",
    )]
    # stale entries never turn a red run green or a green run red
    assert not result.ok  # silent_except still fires


# -- CLI exit codes ---------------------------------------------------------

def test_cli_exit_zero_on_clean_file(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text('"""Nothing to see."""\nVALUE = 1\n')
    assert lint_main([str(clean), "--no-baseline"]) == 0
    assert "0 new finding(s)" in capsys.readouterr().out


def test_cli_exit_one_on_new_finding(capsys):
    code = lint_main([str(FIXTURES / "silent_except.py"), "--no-baseline"])
    assert code == 1
    assert "[broad-except]" in capsys.readouterr().out


def test_cli_exit_two_on_unknown_rule(capsys):
    code = lint_main([str(FIXTURES), "--select", "no-such-rule"])
    assert code == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_exit_two_on_missing_path(capsys):
    assert lint_main(["definitely/not/a/path"]) == 2
    assert "no such path" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_name in ("fold-safety", "fingerprint-completeness", "atomic-write",
                      "spawn-safety", "lock-discipline", "broad-except"):
        assert rule_name in out


def test_cli_write_baseline_then_clean(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "bad.py"
    bad.write_text(
        '"""Fixture."""\n'
        "def f(label):\n"
        "    return label.lower()[0]\n"
    )
    baseline_path = tmp_path / "baseline.json"
    assert lint_main([str(bad), "--baseline", str(baseline_path),
                      "--write-baseline"]) == 0
    # The written TODO justification is a placeholder the maintainer must
    # edit; the file still loads, so the next run is green.
    assert lint_main([str(bad), "--baseline", str(baseline_path)]) == 0
    capsys.readouterr()


def test_cli_write_baseline_merge_preserves_justifications(
        tmp_path, capsys, monkeypatch):
    """Re-running --write-baseline never reverts a hand-written
    justification to the TODO placeholder for unchanged findings."""
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "bad.py"
    bad.write_text(
        '"""Fixture."""\n'
        "def f(label):\n"
        "    return label.lower()[0]\n"
    )
    baseline_path = tmp_path / "baseline.json"
    assert lint_main([str(bad), "--baseline", str(baseline_path),
                      "--write-baseline"]) == 0

    payload = json.loads(baseline_path.read_text(encoding="utf-8"))
    payload["entries"][0]["justification"] = "stored for reporting only"
    baseline_path.write_text(json.dumps(payload), encoding="utf-8")

    assert lint_main([str(bad), "--baseline", str(baseline_path),
                      "--write-baseline"]) == 0
    assert "1 justification(s) preserved" in capsys.readouterr().out
    merged = Baseline.load(baseline_path)
    assert [entry.justification for entry in merged.entries] \
        == ["stored for reporting only"]


def test_cli_refuses_to_merge_over_a_corrupt_baseline(
        tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "bad.py"
    bad.write_text('"""Fixture."""\nVALUE = 1\n')
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text("not json {", encoding="utf-8")
    assert lint_main([str(bad), "--baseline", str(baseline_path),
                      "--write-baseline"]) == 2
    assert "refusing to overwrite" in capsys.readouterr().err
    assert baseline_path.read_text(encoding="utf-8") == "not json {"


# -- the tree itself --------------------------------------------------------

def test_src_tree_is_clean(monkeypatch, capsys):
    """The invariant CI enforces: repro-lint over src/ with the committed
    baseline reports zero new findings.  A rule change that starts firing
    on the current tree fails here first, with the full report attached."""
    monkeypatch.chdir(REPO_ROOT)
    code = lint_main(["src"])
    out = capsys.readouterr().out
    assert code == 0, f"repro-lint went red on src/:\n{out}"


def test_tests_and_benchmarks_are_clean_under_the_layer_subset(
        monkeypatch, capsys):
    """The CI invariant for the non-src trees: the layer-aware rule
    subset (rules whose invariants apply to test/benchmark code) is
    clean over tests/ and benchmarks/, with the intentionally-bad
    fixture trees excluded via --exclude."""
    monkeypatch.chdir(REPO_ROOT)
    code = lint_main([
        "tests", "benchmarks",
        "--select", "fold-safety,import-layering,exception-contract,spawn-safety",
        "--exclude", "tests/data",
        "--no-baseline", "--no-cache",
    ])
    out = capsys.readouterr().out
    assert code == 0, f"repro-lint went red on tests/benchmarks:\n{out}"


def test_no_fold_safety_pragmas_remain_in_src():
    """The dataflow rewrite made every one of v1's 41 allow-fold-safety
    pragmas redundant and they were deleted; this count only ever
    shrinks (it is pinned at zero — a new pragma needs a new argument)."""
    count = 0
    carriers = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        pragmas = parse_pragmas(path.read_text(encoding="utf-8"))
        for line, allows in pragmas.allows.items():
            for allow in allows:
                if allow.rule == "fold-safety":
                    count += 1
                    carriers.append(f"{path}:{line}")
    assert count == 0, (
        "allow-fold-safety pragmas reappeared in src/ — the taint "
        f"dataflow should prove these sites safe instead: {carriers}"
    )


def test_committed_baseline_is_small_and_justified():
    """The baseline is empty: findings are fixed or pragma-justified next
    to the code, never grandfathered."""
    baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
    assert baseline.entries == []

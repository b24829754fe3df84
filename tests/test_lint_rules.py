"""Each repro-lint rule fires on its seeded historical regression.

Every fixture under ``tests/data/lint_fixtures/`` re-creates one bug this
repo actually shipped (or nearly shipped) and later fixed by hand:

* ``fold_position.py`` — position-indexing a ``.lower()``-folded label
  (the U+0130 length-change bug ``fold_label`` exists to prevent);
* ``fingerprint_missing.py`` — a cache-key field not threaded through
  the fingerprint function (PR 7's source_config omission);
* ``nonatomic_write.py`` — an artifact written in place instead of
  through ``durable.atomic_write``;
* ``spawn_lambda.py`` — a lambda initializer / closure task function
  that breaks under the spawn start method (PR 8);
* ``unguarded_cache.py`` — a declared-guarded cache read outside its
  lock;
* ``silent_except.py`` — ``except Exception: pass``;
* ``fold_rename.py`` — the rename that escaped fold-safety v1's
  name-matching (``s = candidate_label; s.lower()``), caught by the
  taint dataflow;
* ``project_demo/`` — a miniature ``src/repro`` tree seeding one
  violation per *project* rule: an upward import, an import of ``cli``,
  library-layer ``print``/``sys.exit``/``CLIError``, and a public
  function nothing references.

The companion guarantee — that the rules stay *silent* on the current
tree — is ``test_src_tree_is_clean`` in ``test_lint_engine.py``.
"""

import shutil
from pathlib import Path

import pytest

from repro.lint import run_lint

FIXTURES = Path(__file__).parent / "data" / "lint_fixtures"
DEMO = FIXTURES / "project_demo"

# fixture file -> (rule expected to fire, fragment of the message)
SEEDED = {
    "fold_position.py": ("fold-safety", "position indexing"),
    "fold_rename.py": ("fold-safety", "label-tainted"),
    "fingerprint_missing.py": ("fingerprint-completeness", "threshold"),
    "nonatomic_write.py": ("atomic-write", "durable.atomic_write"),
    "spawn_lambda.py": ("spawn-safety", "spawn start method"),
    "unguarded_cache.py": ("lock-discipline", "self._cache"),
    "silent_except.py": ("broad-except", "silently"),
}

# project rule -> [(path fragment, message fragment), ...] expected from
# linting the project_demo tree with that rule alone.
SEEDED_PROJECT = {
    "import-layering": [
        ("idn/folding.py", "upward import"),
        ("measurement/report.py", "nothing imports the cli layer"),
    ],
    "exception-contract": [
        ("idn/exiting.py", "print()"),
        ("idn/exiting.py", "sys.exit"),
        ("idn/exiting.py", "CLIError"),
    ],
    "dead-export": [
        ("homoglyph/orphan.py", "never referenced"),
    ],
}


def _run_demo(root, rules=None):
    return run_lint([root], rules=rules, root=root, reference_roots=())


@pytest.mark.parametrize("fixture,expected", sorted(SEEDED.items()))
def test_rule_fires_on_seeded_regression(fixture, expected):
    rule_name, fragment = expected
    result = run_lint([FIXTURES / fixture], rules=[rule_name])
    assert not result.ok, f"{rule_name} stayed silent on {fixture}"
    assert all(f.rule == rule_name for f in result.new)
    assert any(fragment in f.message for f in result.new), (
        f"no {rule_name} message mentioning {fragment!r}: "
        f"{[f.message for f in result.new]}"
    )


def test_no_rule_cross_fires_on_other_fixtures():
    """Each fixture trips exactly its own rule — no false positives from
    the other five on intentionally-bad-but-unrelated code."""
    for fixture, (rule_name, _) in SEEDED.items():
        result = run_lint([FIXTURES / fixture])
        fired = {f.rule for f in result.new}
        assert fired == {rule_name}, (
            f"{fixture}: expected only {rule_name}, got {sorted(fired)}"
        )


@pytest.mark.parametrize("rule_name", sorted(SEEDED_PROJECT))
def test_project_rule_fires_on_demo_tree(rule_name):
    result = _run_demo(DEMO, rules=[rule_name])
    assert not result.ok, f"{rule_name} stayed silent on project_demo/"
    assert all(f.rule == rule_name for f in result.new)
    for path_fragment, message_fragment in SEEDED_PROJECT[rule_name]:
        assert any(
            path_fragment in f.path and message_fragment in f.message
            for f in result.new
        ), (
            f"no {rule_name} finding at *{path_fragment} mentioning "
            f"{message_fragment!r}: {[f.render() for f in result.new]}"
        )


def test_project_demo_fires_exactly_the_seeded_findings():
    """The demo tree trips each project rule exactly where intended and
    nothing else — the project rules' no-false-positives guarantee."""
    result = _run_demo(DEMO)
    fired = sorted((f.rule, f.path.rpartition("/")[2]) for f in result.new)
    assert fired == [
        ("dead-export", "orphan.py"),
        ("exception-contract", "exiting.py"),
        ("exception-contract", "exiting.py"),
        ("exception-contract", "exiting.py"),
        ("import-layering", "folding.py"),
        ("import-layering", "report.py"),
    ], [f.render() for f in result.new]


def test_every_registered_rule_has_a_seeded_fixture():
    from repro.lint.engine import all_rules

    covered = {rule for rule, _ in SEEDED.values()} | set(SEEDED_PROJECT)
    assert covered == set(all_rules()), (
        "rules without a seeded-regression fixture: add one to "
        "tests/data/lint_fixtures/ (and to SEEDED or SEEDED_PROJECT above)"
    )


@pytest.mark.parametrize("fixture", sorted(SEEDED))
def test_allow_pragma_silences_each_rule(fixture, tmp_path):
    """The documented escape hatch works for every rule: the same seeded
    regression plus an allow-pragma above the flagged line is clean."""
    rule_name, _ = SEEDED[fixture]
    baseline_result = run_lint([FIXTURES / fixture], rules=[rule_name])
    source = (FIXTURES / fixture).read_text(encoding="utf-8")
    lines = source.splitlines(keepends=True)
    # Append a trailing pragma to every flagged line (covers its own line).
    for finding in baseline_result.new:
        index = finding.line - 1
        lines[index] = (lines[index].rstrip("\n")
                        + f"  # lint: allow-{rule_name}(fixture test)\n")
    patched = tmp_path / fixture
    patched.write_text("".join(lines), encoding="utf-8")

    result = run_lint([patched], rules=[rule_name])
    assert result.ok, [f.render() for f in result.new]
    assert result.pragma_suppressed == len(baseline_result.new)


def test_fingerprint_exempt_field_is_not_required(tmp_path):
    source = (FIXTURES / "fingerprint_missing.py").read_text(encoding="utf-8")
    source = source.replace(
        "    threshold: int = 32",
        "    # lint: fingerprint-exempt(fixture: constant, not a builder input)\n"
        "    threshold: int = 32",
    )
    patched = tmp_path / "fingerprint_exempt.py"
    patched.write_text(source, encoding="utf-8")
    result = run_lint([patched], rules=["fingerprint-completeness"])
    assert result.ok, [f.render() for f in result.new]


def test_lock_discipline_accepts_guarded_access(tmp_path):
    source = (FIXTURES / "unguarded_cache.py").read_text(encoding="utf-8")
    source = source.replace(
        "    def lookup(self, domain: str):\n        return self._cache.get(domain)",
        "    def lookup(self, domain: str):\n"
        "        with self._lock:\n"
        "            return self._cache.get(domain)",
    )
    patched = tmp_path / "guarded_cache.py"
    patched.write_text(source, encoding="utf-8")
    result = run_lint([patched], rules=["lock-discipline"])
    assert result.ok, [f.render() for f in result.new]


def test_atomic_write_accepts_durable_atomic_write(tmp_path):
    patched = tmp_path / "atomic_write_ok.py"
    patched.write_text(
        '"""Fixed form of nonatomic_write.py: durable.atomic_write."""\n'
        "import json\n"
        "\n"
        "from repro import durable\n"
        "\n"
        "\n"
        "def save_index(idx_path: str, payload: dict) -> None:\n"
        '    durable.atomic_write(idx_path, json.dumps(payload).encode("utf-8"))\n',
        encoding="utf-8",
    )
    result = run_lint([patched], rules=["atomic-write"])
    assert result.ok, [f.render() for f in result.new]


def test_atomic_write_flags_hand_rolled_temp_and_replace(tmp_path):
    """The temp + os.replace idiom outside repro.durable is a finding."""
    patched = tmp_path / "hand_rolled.py"
    patched.write_text(
        "import os\n"
        "\n"
        "\n"
        "def save_checkpoint(checkpoint_path: str, text: str) -> None:\n"
        '    with open(checkpoint_path + ".tmp", "w", encoding="utf-8") as handle:\n'
        "        handle.write(text)\n"
        '    os.replace(checkpoint_path + ".tmp", checkpoint_path)\n',
        encoding="utf-8",
    )
    result = run_lint([patched], rules=["atomic-write"])
    assert [f.rule for f in result.new] == ["atomic-write"]


def test_spawn_safety_accepts_module_level_functions(tmp_path):
    patched = tmp_path / "spawn_ok.py"
    patched.write_text(
        '"""Fixed form of spawn_lambda.py: module-level worker functions."""\n'
        "from multiprocessing import Pool\n"
        "\n"
        "\n"
        "def _init_worker() -> None:\n"
        "    pass\n"
        "\n"
        "\n"
        "def fold_one(domain: str) -> str:\n"
        "    return domain\n"
        "\n"
        "\n"
        "def scan(domains: list) -> list:\n"
        "    with Pool(2, initializer=_init_worker) as pool:\n"
        "        return pool.map(fold_one, domains)\n",
        encoding="utf-8",
    )
    result = run_lint([patched], rules=["spawn-safety"])
    assert result.ok, [f.render() for f in result.new]


def test_broad_except_accepts_reraise_and_warn(tmp_path):
    patched = tmp_path / "except_ok.py"
    patched.write_text(
        '"""Fixed forms of silent_except.py: re-raise or surface."""\n'
        "import warnings\n"
        "\n"
        "\n"
        "def enrich_reraise(record: dict) -> dict:\n"
        "    try:\n"
        '        record["asn"] = int(record["asn_raw"])\n'
        "    except Exception as exc:\n"
        '        raise ValueError("bad asn") from exc\n'
        "    return record\n"
        "\n"
        "\n"
        "def enrich_warn(record: dict) -> dict:\n"
        "    try:\n"
        '        record["asn"] = int(record["asn_raw"])\n'
        "    except Exception as exc:\n"
        '        warnings.warn(f"bad asn: {exc}", stacklevel=2)\n'
        "    return record\n",
        encoding="utf-8",
    )
    result = run_lint([patched], rules=["broad-except"])
    assert result.ok, [f.render() for f in result.new]


def test_fold_safety_accepts_compare_only_folds(tmp_path):
    """Case-insensitive *comparison* never position-indexes, so the
    dataflow-backed rule proves it safe — the class of call sites that
    needed 41 allow-pragmas under the name-matching v1."""
    patched = tmp_path / "fold_compare.py"
    patched.write_text(
        '"""Compare-only folds of label-tainted values are safe."""\n'
        "\n"
        "\n"
        "def same_label(label: str, other: str) -> bool:\n"
        "    return label.lower() == other.lower()\n"
        "\n"
        "\n"
        "def lookup(table: dict, label: str):\n"
        "    key = label.casefold()\n"
        "    return table.get(key)\n"
        "\n"
        "\n"
        "def is_punycode(label: str) -> bool:\n"
        "    return label.lower().startswith('xn--')\n",
        encoding="utf-8",
    )
    result = run_lint([patched], rules=["fold-safety"])
    assert result.ok, [f.render() for f in result.new]


# -- project rules: fixed forms and the pragma escape hatch -----------------

def _demo_copy(tmp_path):
    root = tmp_path / "demo"
    shutil.copytree(DEMO, root)
    return root


def test_import_layering_accepts_downward_imports(tmp_path):
    root = _demo_copy(tmp_path)
    (root / "src" / "repro" / "idn" / "folding.py").write_text(
        '"""Fixed form: idn (layer 1) imports unicode (layer 0) only."""\n'
        "from repro.unicode.blocks import block_tag\n"
        "\n"
        "\n"
        "def fold_label(label: str) -> str:\n"
        "    return block_tag(label) + label\n",
        encoding="utf-8",
    )
    (root / "src" / "repro" / "measurement" / "report.py").write_text(
        '"""Fixed form: measurement renders its own banner."""\n'
        "\n"
        "\n"
        "def render_report(rows: list) -> str:\n"
        "    return '\\n'.join(str(row) for row in rows)\n",
        encoding="utf-8",
    )
    result = _run_demo(root, rules=["import-layering"])
    assert result.ok, [f.render() for f in result.new]


def test_exception_contract_accepts_stderr_and_raised_values(tmp_path):
    root = _demo_copy(tmp_path)
    exiting = root / "src" / "repro" / "idn" / "exiting.py"
    source = exiting.read_text(encoding="utf-8")
    source = source.replace("print(f\"loading {path}\")",
                            "print(f\"loading {path}\", file=sys.stderr)")
    source = source.replace("sys.exit(2)",
                            "raise FileNotFoundError(path)")
    source = source.replace("raise CLIError(\"missing tld\")",
                            "raise ValueError(\"missing tld\")")
    exiting.write_text(source, encoding="utf-8")
    result = _run_demo(root, rules=["exception-contract"])
    assert result.ok, [f.render() for f in result.new]


def test_dead_export_accepts_a_referenced_symbol(tmp_path):
    root = _demo_copy(tmp_path)
    orphan = root / "src" / "repro" / "homoglyph" / "orphan.py"
    # An identifier-valued string (the __all__ idiom) is a reference.
    orphan.write_text(orphan.read_text(encoding="utf-8")
                      + '\n__all__ = ["orphan_export"]\n',
                      encoding="utf-8")
    result = _run_demo(root, rules=["dead-export"])
    assert result.ok, [f.render() for f in result.new]


@pytest.mark.parametrize("rule_name", sorted(SEEDED_PROJECT))
def test_allow_pragma_silences_each_project_rule(rule_name, tmp_path):
    """The pragma escape hatch works for cross-module findings too: the
    suppression is looked up in the *flagged* file's pragma map."""
    root = _demo_copy(tmp_path)
    baseline_result = _run_demo(root, rules=[rule_name])
    assert baseline_result.new
    for finding in baseline_result.new:
        flagged = root / finding.path
        lines = flagged.read_text(encoding="utf-8").splitlines(keepends=True)
        index = finding.line - 1
        lines[index] = (lines[index].rstrip("\n")
                        + f"  # lint: allow-{rule_name}(fixture test)\n")
        flagged.write_text("".join(lines), encoding="utf-8")

    result = _run_demo(root, rules=[rule_name])
    assert result.ok, [f.render() for f in result.new]
    assert result.pragma_suppressed == len(baseline_result.new)


def test_fold_safety_accepts_fold_label_and_non_label_receivers(tmp_path):
    patched = tmp_path / "fold_ok.py"
    patched.write_text(
        '"""Fold-safety-clean code: fold_label, or receivers that are not labels."""\n'
        "from repro.idn.idna_codec import fold_label\n"
        "\n"
        "\n"
        "def highlight_confusable(label: str, position: int) -> str:\n"
        "    return fold_label(label)[position]\n"
        "\n"
        "\n"
        "def normalise_flag(flag: str) -> str:\n"
        "    return flag.lower()\n",
        encoding="utf-8",
    )
    result = run_lint([patched], rules=["fold-safety"])
    assert result.ok, [f.render() for f in result.new]

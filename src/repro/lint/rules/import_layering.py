"""import-layering: the package DAG in docs/LINT.md is load-bearing.

The repo is layered — pure data layers (``unicode``, ``idn``,
``homoglyph``) feed the detection core, which feeds the measurement and
serving applications, which feed the CLI — and every subsystem doc
reasons in terms of that DAG.  Nothing enforced it: one convenience
import from ``idn`` into ``detection``'s reporting helpers would invert
the layering silently and make the lower layer untestable in isolation.

This project rule reads the layer map from the ```` ```layers ````
fenced block in ``docs/LINT.md`` (the single source of truth; a
byte-identical fallback is compiled in and a test pins the two against
each other) and flags, per import site:

* **upward imports** — a module importing a package at a higher layer;
* **imports of ``cli``** — nothing imports the CLI, ever (it is the
  top of the DAG and the only layer allowed to ``sys.exit``);
* **escapes from ``lint``** — the lint package is marked ``isolated``
  and imports nothing from the rest of the repo, so it stays runnable
  on a broken tree;
* **unmapped packages** — a top-level package missing from the map, so
  the map cannot silently rot as subsystems are added;
* **import cycles** — strongly connected components in the resolved
  module graph, reported once per cycle.

Same-layer and downward imports are free.  Only intra-repo imports are
considered (the module graph resolves ``repro.*`` absolute and relative
imports; stdlib and third-party imports are out of scope).
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable

from repro.lint.engine import Finding, ProjectRule, register
from repro.lint.project import ProjectUnderLint

#: Fallback layer map, byte-equivalent to the ```layers block in
#: docs/LINT.md (``tests/test_lint_project.py`` pins the equivalence).
#: package -> layer number; ISOLATED packages import nothing else.
DEFAULT_LAYERS: dict[str, int] = {
    "durable": 0, "parallel": 0, "unicode": 0,
    "fonts": 1, "idn": 1, "langid": 1,
    "dns": 2, "metrics": 2,
    "homoglyph": 3, "web": 3,
    "detection": 4,
    "applications": 5, "countermeasure": 5, "humanstudy": 5,
    "measurement": 6, "serving": 6,
    "repro": 7,
    "cli": 8,
}

DEFAULT_ISOLATED: frozenset[str] = frozenset({"lint"})

_LAYERS_BLOCK = re.compile(r"```layers\n(.*?)```", re.DOTALL)


def parse_layer_map(text: str) -> tuple[dict[str, int], frozenset[str]] | None:
    """Parse the ```layers fenced block out of a docs/LINT.md body.

    Lines are ``<layer-number>: pkg pkg ...`` or ``isolated: pkg ...``;
    returns ``None`` when no block is present (callers fall back to the
    compiled-in map).
    """
    match = _LAYERS_BLOCK.search(text)
    if match is None:
        return None
    layers: dict[str, int] = {}
    isolated: set[str] = set()
    for raw_line in match.group(1).splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        head, _, tail = line.partition(":")
        packages = tail.split()
        if head.strip() == "isolated":
            isolated.update(packages)
        elif head.strip().isdigit():
            for package in packages:
                layers[package] = int(head)
    return layers, frozenset(isolated)


def load_layer_map(root: Path) -> tuple[dict[str, int], frozenset[str]]:
    """The layer map from *root*'s docs/LINT.md, else the fallback."""
    doc_path = root / "docs" / "LINT.md"
    try:
        text = doc_path.read_text(encoding="utf-8")
    except OSError:
        return dict(DEFAULT_LAYERS), DEFAULT_ISOLATED
    parsed = parse_layer_map(text)
    if parsed is None:
        return dict(DEFAULT_LAYERS), DEFAULT_ISOLATED
    return parsed


def package_of(module: str) -> str:
    """Top-level package of a dotted repro module name.

    ``repro.detection.stream`` -> ``detection``; root modules
    (``repro``, ``repro.cli``) -> ``repro`` / ``cli``.
    """
    parts = module.split(".")
    if len(parts) == 1:
        return "repro"
    return parts[1]


@register
class ImportLayeringRule(ProjectRule):
    name = "import-layering"
    description = (
        "upward imports against the docs/LINT.md layer DAG, imports of "
        "cli, escapes from the isolated lint package, and import cycles"
    )

    def check_project(self, project: ProjectUnderLint) -> Iterable[Finding]:
        layers, isolated = load_layer_map(project.root)
        edges = project.resolved_imports()

        for module in sorted(edges):
            record = project.modules[module]
            source_package = package_of(module)
            source_layer = layers.get(source_package)
            if source_layer is None and source_package not in isolated:
                site = record.summary.imports[0] \
                    if record.summary.imports else None
                yield project.finding(
                    self.name, record,
                    site.line if site else 1, site.col if site else 1,
                    f"package '{source_package}' is not in the layer map "
                    "(docs/LINT.md ```layers block); add it at its layer "
                    "so the DAG stays enforced",
                )
                continue
            for target, site in edges[module]:
                target_package = package_of(target)
                if target_package == source_package:
                    continue
                if source_package in isolated:
                    yield project.finding(
                        self.name, record, site.line, site.col,
                        f"isolated package '{source_package}' imports "
                        f"'{target}': {source_package} must stay "
                        "self-contained (docs/LINT.md layer map)",
                    )
                    continue
                if target_package == "cli":
                    yield project.finding(
                        self.name, record, site.line, site.col,
                        f"'{module}' imports '{target}': nothing imports "
                        "the cli layer (it is the top of the DAG)",
                    )
                    continue
                if target_package in isolated:
                    continue
                target_layer = layers.get(target_package)
                if target_layer is None:
                    yield project.finding(
                        self.name, record, site.line, site.col,
                        f"package '{target_package}' is not in the layer "
                        "map (docs/LINT.md ```layers block); add it at its "
                        "layer so the DAG stays enforced",
                    )
                    continue
                if source_layer is not None and target_layer > source_layer:
                    yield project.finding(
                        self.name, record, site.line, site.col,
                        f"upward import: '{module}' (layer {source_layer}, "
                        f"{source_package}) imports '{target}' (layer "
                        f"{target_layer}, {target_package}); dependencies "
                        "must point down the docs/LINT.md layer DAG",
                    )

        for cycle in project.import_cycles():
            first = cycle[0]
            record = project.modules[first]
            site = next(
                (s for target, s in edges.get(first, []) if target in cycle),
                None,
            )
            yield project.finding(
                self.name, record,
                site.line if site else 1, site.col if site else 1,
                "import cycle: " + " -> ".join(cycle + [first]),
            )

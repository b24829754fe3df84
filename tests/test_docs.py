"""Documentation health checks (the CI docs job).

Two guarantees:

* every relative markdown link in ``README.md`` and ``docs/`` points at
  a file that exists, and every ``#anchor`` matches a real heading in
  the target file (GitHub's anchor derivation);
* every module under ``repro`` imports cleanly and carries a module
  docstring, and the key public entry points render under :mod:`pydoc`
  (a broken docstring or import error fails here, not in a user's
  ``help()`` call);
* every constant the docs quote with its value, as `` `NAME` (N) ``,
  has that value in the code.
"""

from __future__ import annotations

import importlib
import pkgutil
import pydoc
import re
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")],
    key=lambda p: p.name,
)

_INLINE_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_CODE_FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
#: A constant quoted with its value: `` `NAME` (N) ``, possibly across a line break.
_DOC_CONSTANT = re.compile(r"`([A-Z_][A-Z0-9_]*)`\s+\((\d+)\)")


def github_anchor(heading: str) -> str:
    """GitHub's heading → anchor derivation (enough of it for our docs)."""
    text = re.sub(r"`([^`]*)`", r"\1", heading.strip()).lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def markdown_anchors(path: Path) -> set[str]:
    body = _CODE_FENCE.sub("", path.read_text(encoding="utf-8"))
    return {github_anchor(m.group(1)) for m in _HEADING.finditer(body)}


def markdown_links(path: Path) -> list[str]:
    body = _CODE_FENCE.sub("", path.read_text(encoding="utf-8"))
    return [m.group(1) for m in _INLINE_LINK.finditer(body)]


def test_doc_tree_exists() -> None:
    names = {p.name for p in DOC_FILES}
    assert {"README.md", "ARCHITECTURE.md", "OPERATIONS.md", "CLI.md"} <= names


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_markdown_links_resolve(doc: Path) -> None:
    broken: list[str] = []
    for target in markdown_links(doc):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, anchor = target.partition("#")
        resolved = (doc.parent / path_part).resolve() if path_part else doc
        if not resolved.is_relative_to(REPO_ROOT):
            continue  # GitHub-web-relative links (the CI badge)
        if not resolved.exists():
            broken.append(f"{target}: no such file")
            continue
        if anchor and resolved.suffix == ".md" and anchor not in markdown_anchors(resolved):
            broken.append(f"{target}: no heading for #{anchor} in {resolved.name}")
    assert not broken, f"broken links in {doc.name}: {broken}"


def _all_repro_modules() -> list[str]:
    return sorted(
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    )


@pytest.mark.parametrize("module_name", _all_repro_modules())
def test_module_imports_with_docstring(module_name: str) -> None:
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), f"{module_name} has no module docstring"


def test_doc_constants_match_the_code() -> None:
    defined: dict[str, set] = {}
    for module_name in _all_repro_modules():
        for name, value in vars(importlib.import_module(module_name)).items():
            if isinstance(value, int) and not isinstance(value, bool):
                defined.setdefault(name, set()).add(value)
    quoted, wrong = 0, []
    for doc in DOC_FILES:
        for match in _DOC_CONSTANT.finditer(doc.read_text(encoding="utf-8")):
            name, value = match.group(1), int(match.group(2))
            quoted += 1
            if defined.get(name) != {value}:
                wrong.append(f"{doc.name}: `{name}` ({value}), code has {defined.get(name)}")
    assert quoted, "no `NAME` (N) constant quoted in the docs"
    assert not wrong, wrong


@pytest.mark.parametrize(
    "target",
    [
        "repro.detection.shamfinder.ShamFinder",
        "repro.detection.service.OnlineDetector",
        "repro.detection.index.ReferenceIndexStore",
        "repro.detection.stream.StreamingScanner",
        "repro.measurement.longitudinal.LongitudinalTracker",
        "repro.measurement.study.MeasurementStudy",
        "repro.serving.server.HomographServer",
        "repro.cli.build_parser",
    ],
)
def test_public_entry_points_render_under_pydoc(target: str) -> None:
    obj = pydoc.locate(target)
    assert obj is not None, f"pydoc cannot locate {target}"
    rendered = pydoc.render_doc(obj)
    assert rendered.strip(), f"pydoc renders nothing for {target}"
    assert (getattr(obj, "__doc__", None) or "").strip(), f"{target} has no docstring"

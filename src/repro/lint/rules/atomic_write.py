"""atomic-write: artifact files are written only through ``repro.durable``.

The bug class: readers of ``refindex-*.idx``, ``foldtable-*`` sidecars,
checkpoints, and sink/timeline stores tolerate a *missing* file but must
never observe a torn half-write.  ``src/repro/durable.py`` owns every
crash-safety decision — :func:`~repro.durable.atomic_write` for whole
files, :class:`~repro.durable.CheckpointedLog` for append logs with
torn-tail recovery — so a direct ``open(path, "w")`` on an artifact path
anywhere else would silently reintroduce torn-read corruption under the
exact crash the checkpoint machinery exists to survive.

Heuristic: outside ``src/repro/durable.py``, a write-mode ``open``/
``os.fdopen``/``Path.open``/``write_text``/``write_bytes`` whose path
expression (or the name its handle is bound to) mentions an
artifact-flavoured token (``idx``, ``checkpoint``, ``sink``,
``foldtable``, ``timeline``, ``state``) is a finding, unless it carries
``# lint: allow-atomic-write(<reason>)``.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.engine import Finding, ModuleUnderLint, Rule, register
from repro.lint.rules.common import call_name, expression_words, string_constants

#: Identifier/literal words that mark a path expression as an artifact.
ARTIFACT_WORDS = frozenset({
    "idx", "checkpoint", "checkpoints", "foldtable", "sink", "sinks",
    "timeline", "state",
})

#: The one module allowed to write artifacts directly.
DURABLE_MODULE = "repro/durable.py"

_WRITE_METHODS = frozenset({"write_text", "write_bytes"})


def _mode_can_write(mode: ast.expr | None) -> bool:
    """True when the mode argument can open for (over)write.

    A conditional mode like ``"a" if resumed else "w"`` counts: some
    executions truncate.
    """
    if mode is None:
        return False  # default "r"
    return any("w" in constant for constant in string_constants(mode))


def _keyword(node: ast.Call, name: str) -> ast.expr | None:
    for keyword in node.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def _written_path(node: ast.Call) -> ast.expr | None:
    """The path expression when *node* opens something for write."""
    callee = call_name(node)
    if isinstance(node.func, ast.Attribute):
        if node.func.attr in _WRITE_METHODS:
            return node.func.value
        if node.func.attr == "open" and callee != "os.fdopen":
            # Method-style Path.open: the receiver is the path and the
            # mode is the first argument.
            mode = node.args[0] if node.args else _keyword(node, "mode")
            return node.func.value if _mode_can_write(mode) else None
    if callee in ("open", "io.open", "os.fdopen") and node.args:
        mode = node.args[1] if len(node.args) >= 2 else _keyword(node, "mode")
        return node.args[0] if _mode_can_write(mode) else None
    return None


def _path_words(node: ast.AST) -> set[str]:
    words = expression_words(node)
    for constant in string_constants(node):
        lowered_constant = constant.lower()
        for word in ARTIFACT_WORDS:
            if word in lowered_constant:
                words.add(word)
    return words


@register
class AtomicWriteRule(Rule):
    name = "atomic-write"
    description = (
        "direct write-mode open() on artifact paths (*.idx, checkpoints, "
        "sinks, foldtables) outside repro.durable"
    )

    def check(self, module: ModuleUnderLint) -> Iterable[Finding]:
        if ("/" + module.rel_path).endswith("/" + DURABLE_MODULE):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            path_expr = _written_path(node)
            if path_expr is None:
                continue
            words = _path_words(path_expr)
            words |= self._binding_words(node, module)
            if not (words & ARTIFACT_WORDS):
                continue
            yield module.finding(
                self.name, node,
                f"write-mode open on artifact path {ast.unparse(path_expr)!r} "
                "outside repro.durable: a crash mid-write leaves a torn "
                "artifact for readers; write it with durable.atomic_write "
                "(or a durable.CheckpointedLog for append logs), or justify "
                "with # lint: allow-atomic-write(<reason>)",
            )

    @staticmethod
    def _binding_words(node: ast.Call, module: ModuleUnderLint) -> set[str]:
        """Words of the name the opened handle is bound to.

        ``sink = open(output_path, "w")`` names the artifact on the left
        of the ``=``, not in the path expression — fold those in too.
        """
        parent = module.parents.get(node)
        if isinstance(parent, ast.Assign):
            words: set[str] = set()
            for target in parent.targets:
                words |= expression_words(target)
            return words
        if isinstance(parent, ast.withitem) and parent.optional_vars is not None:
            return expression_words(parent.optional_vars)
        return set()

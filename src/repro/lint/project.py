"""Whole-project analysis: module graph, symbol table, incremental cache.

``repro-lint`` v1 analysed one file at a time, so every invariant that
spans modules — the import-layer DAG, the CLI exception contract, public
symbols nobody uses — was invisible to it.  This module adds the
project layer:

* :func:`summarise` extracts a :class:`ModuleSummary` from one parsed
  file in a single AST walk: resolved intra-repo imports (relative
  imports included), the top-level symbol table (defs, classes,
  constants, ``__init__`` re-exports), every referenced identifier,
  best-effort call edges, and the exception-contract facts
  (``CLIError`` raises, ``sys.exit``, stdout prints);
* :class:`ProjectUnderLint` holds one :class:`FileRecord` per linted
  file — a live :class:`~repro.lint.engine.ModuleUnderLint` when the
  file was (re-)parsed, or a summary restored from the cache when it
  was not — plus the cross-file indexes project rules consume
  (``modules`` by dotted name, resolved import edges, the global
  referenced-name set);
* :class:`LintCache` persists per-file results to ``.lint-cache.json``
  keyed on the file's sha256 **and** an engine key (cache format,
  analysis version, schema version, Python minor version, selected rule
  names), so a warm run re-analyses only files whose content — or whose
  engine — changed.  Any key mismatch or corruption degrades to an
  empty cache, never to stale results.

Project *rules* (subclasses of :class:`~repro.lint.engine.ProjectRule`)
are re-evaluated on every run from the summaries — only the per-file
parse and per-file rule results are cached, because a cross-module
finding can change when *other* files change.

The cache file format is documented in ``docs/LINT.md``.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from repro.lint.engine import Finding, LintResult, ModuleUnderLint
from repro.lint.pragmas import PragmaMap

#: Bumped when analysis semantics change (new summary fields, different
#: rule behaviour on identical source): invalidates every cache entry.
ANALYSIS_VERSION = 3

#: Cache file format version (the on-disk JSON envelope).
CACHE_FORMAT_VERSION = 1

DEFAULT_CACHE_NAME = ".lint-cache.json"

#: Directories harvested for referenced names when they exist under the
#: project root (so ``repro-lint src`` knows a symbol is used by a test).
DEFAULT_REFERENCE_ROOT_NAMES = ("tests", "benchmarks", "examples", "scripts")


def file_sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def module_name_for(path: Path) -> str | None:
    """Dotted module name for *path* when it sits inside a ``repro`` tree.

    Works for the real ``src/repro`` layout and for fixture mini-projects
    (``.../project_demo/src/repro/...``); files outside any ``repro``
    directory — tests, benchmarks, standalone fixtures — return ``None``
    and participate only as reference providers and per-file rule
    targets.
    """
    parts = list(path.parts)
    package_index = -1
    for index, part in enumerate(parts[:-1]):
        if part == "repro":
            package_index = index
    if package_index < 0:
        return None
    module_parts = parts[package_index:-1]
    stem = parts[-1]
    if stem.endswith(".py"):
        stem = stem[:-3]
    if stem != "__init__":
        module_parts = module_parts + [stem]
    return ".".join(module_parts)


@dataclass(frozen=True)
class ImportSite:
    """One intra-repo import statement, already made absolute."""

    module: str
    names: tuple[str, ...]
    line: int
    col: int

    def as_dict(self) -> dict[str, object]:
        return {"module": self.module, "names": list(self.names),
                "line": self.line, "col": self.col}


@dataclass(frozen=True)
class ExportSite:
    """One public top-level symbol of a module."""

    name: str
    kind: str  # "function" | "class" | "constant" | "re-export"
    line: int
    col: int
    decorated: bool

    def as_dict(self) -> dict[str, object]:
        return {"name": self.name, "kind": self.kind, "line": self.line,
                "col": self.col, "decorated": self.decorated}


@dataclass(frozen=True)
class ContractSite:
    """One exception-contract fact (consumed by ``exception-contract``)."""

    kind: str  # "cli-error" | "sys-exit" | "print-stdout"
    detail: str
    line: int
    col: int

    def as_dict(self) -> dict[str, object]:
        return {"kind": self.kind, "detail": self.detail, "line": self.line,
                "col": self.col}


@dataclass
class ModuleSummary:
    """Everything project rules need to know about one file."""

    module: str | None
    is_package: bool
    imports: list[ImportSite] = field(default_factory=list)
    exports: list[ExportSite] = field(default_factory=list)
    referenced: frozenset[str] = frozenset()
    contracts: list[ContractSite] = field(default_factory=list)
    #: best-effort call edges: (enclosing qualname, dotted callee).
    calls: list[tuple[str, str]] = field(default_factory=list)

    def as_dict(self) -> dict[str, object]:
        return {
            "module": self.module,
            "is_package": self.is_package,
            "imports": [site.as_dict() for site in self.imports],
            "exports": [site.as_dict() for site in self.exports],
            "referenced": sorted(self.referenced),
            "contracts": [site.as_dict() for site in self.contracts],
            "calls": [list(edge) for edge in self.calls],
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, object]) -> "ModuleSummary":
        module = raw.get("module")
        imports = [
            ImportSite(module=_as_str(item.get("module")),
                       names=_as_str_tuple(item.get("names")),
                       line=_as_int(item.get("line")),
                       col=_as_int(item.get("col")))
            for item in _dict_items(raw.get("imports"))
        ]
        exports = [
            ExportSite(name=_as_str(item.get("name")),
                       kind=_as_str(item.get("kind")),
                       line=_as_int(item.get("line")),
                       col=_as_int(item.get("col")),
                       decorated=bool(item.get("decorated")))
            for item in _dict_items(raw.get("exports"))
        ]
        contracts = [
            ContractSite(kind=_as_str(item.get("kind")),
                         detail=_as_str(item.get("detail")),
                         line=_as_int(item.get("line")),
                         col=_as_int(item.get("col")))
            for item in _dict_items(raw.get("contracts"))
        ]
        referenced_raw = raw.get("referenced")
        referenced = frozenset(
            str(name) for name in referenced_raw
        ) if isinstance(referenced_raw, list) else frozenset()
        calls_raw = raw.get("calls")
        calls: list[tuple[str, str]] = []
        if isinstance(calls_raw, list):
            for edge in calls_raw:
                if isinstance(edge, list) and len(edge) == 2:
                    calls.append((str(edge[0]), str(edge[1])))
        return cls(
            module=str(module) if isinstance(module, str) else None,
            is_package=bool(raw.get("is_package")),
            imports=imports,
            exports=exports,
            referenced=referenced,
            contracts=contracts,
            calls=calls,
        )


def _dict_items(raw: object) -> Iterator[dict[str, object]]:
    if isinstance(raw, list):
        for item in raw:
            if isinstance(item, dict):
                yield item


def _as_int(value: object, default: int = 1) -> int:
    return value if isinstance(value, int) and not isinstance(value, bool) \
        else default


def _as_str(value: object) -> str:
    return value if isinstance(value, str) else ""


def _as_str_tuple(value: object) -> tuple[str, ...]:
    if isinstance(value, list):
        return tuple(str(item) for item in value)
    return ()


# ---------------------------------------------------------------------------
# summary extraction


def _dotted(node: ast.AST) -> str:
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return ""


def _is_main_guard(node: ast.stmt) -> bool:
    if not isinstance(node, ast.If):
        return False
    test = node.test
    return (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and test.left.id == "__name__"
    )


def _is_type_checking_guard(node: ast.stmt) -> bool:
    if not isinstance(node, ast.If):
        return False
    test = node.test
    return (
        (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING")
        or (isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")
    )


class _SummaryVisitor:
    """One recursive walk collecting every summary fact."""

    def __init__(self, module: str | None, is_package: bool) -> None:
        self.module = module
        self.is_package = is_package
        self.imports: list[ImportSite] = []
        self.exports: list[ExportSite] = []
        self.referenced: set[str] = set()
        self.contracts: list[ContractSite] = []
        self.calls: list[tuple[str, str]] = []

    def run(self, tree: ast.Module) -> ModuleSummary:
        for statement in tree.body:
            self._top_level_exports(statement)
        self._visit_body(tree.body, qualname="<module>", in_main_guard=False,
                         collect_imports=True)
        return ModuleSummary(
            module=self.module,
            is_package=self.is_package,
            imports=self.imports,
            exports=self.exports,
            referenced=frozenset(self.referenced),
            contracts=self.contracts,
            calls=self.calls,
        )

    # -- symbol table -------------------------------------------------------

    def _top_level_exports(self, statement: ast.stmt) -> None:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._export(statement.name, "function", statement,
                         decorated=bool(statement.decorator_list))
        elif isinstance(statement, ast.ClassDef):
            self._export(statement.name, "class", statement,
                         decorated=bool(statement.decorator_list))
        elif isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name):
                    self._export(target.id, "constant", statement,
                                 decorated=False)
        elif isinstance(statement, ast.AnnAssign):
            if isinstance(statement.target, ast.Name):
                self._export(statement.target.id, "constant", statement,
                             decorated=False)
        elif isinstance(statement, ast.ImportFrom) and self.is_package:
            # A package __init__ re-exporting names is part of the
            # public symbol table (the repro/__init__.py idiom).
            for alias in statement.names:
                if alias.name == "*":
                    continue
                self._export(alias.asname or alias.name, "re-export",
                             statement, decorated=False)

    def _export(self, name: str, kind: str, node: ast.stmt,
                decorated: bool) -> None:
        if name.startswith("_"):
            return
        self.exports.append(ExportSite(
            name=name, kind=kind, line=node.lineno, col=node.col_offset + 1,
            decorated=decorated,
        ))

    # -- the walk -----------------------------------------------------------

    def _visit_body(self, statements: Sequence[ast.stmt], qualname: str,
                    in_main_guard: bool, collect_imports: bool) -> None:
        for statement in statements:
            self._visit_statement(statement, qualname, in_main_guard,
                                  collect_imports)

    def _visit_statement(self, statement: ast.stmt, qualname: str,
                         in_main_guard: bool, collect_imports: bool) -> None:
        if isinstance(statement, ast.Import):
            for alias in statement.names:
                self.referenced.add(alias.name.split(".")[-1])
                if alias.asname:
                    self.referenced.add(alias.asname)
                if collect_imports and (alias.name == "repro"
                                        or alias.name.startswith("repro.")):
                    self.imports.append(ImportSite(
                        module=alias.name, names=(),
                        line=statement.lineno, col=statement.col_offset + 1,
                    ))
            return
        if isinstance(statement, ast.ImportFrom):
            names = tuple(alias.name for alias in statement.names)
            for alias in statement.names:
                self.referenced.add(alias.name.split(".")[-1])
                if alias.asname:
                    self.referenced.add(alias.asname)
            base = self._absolute_import_base(statement)
            if collect_imports and base is not None:
                self.imports.append(ImportSite(
                    module=base, names=names,
                    line=statement.lineno, col=statement.col_offset + 1,
                ))
            return
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = statement.name if qualname == "<module>" \
                else f"{qualname}.{statement.name}"
            for decorator in statement.decorator_list:
                self._visit_expression(decorator, qualname, in_main_guard)
            self._visit_signature(statement, qualname, in_main_guard)
            # Function bodies run later (or never): imports inside them
            # are the lazy cycle-breaking idiom, not graph edges.
            self._visit_body(statement.body, inner, in_main_guard,
                             collect_imports=False)
            return
        if isinstance(statement, ast.ClassDef):
            inner = statement.name if qualname == "<module>" \
                else f"{qualname}.{statement.name}"
            for decorator in statement.decorator_list:
                self._visit_expression(decorator, qualname, in_main_guard)
            for base_expr in statement.bases:
                self._visit_expression(base_expr, qualname, in_main_guard)
            self._visit_body(statement.body, inner, in_main_guard,
                             collect_imports)
            return
        if _is_type_checking_guard(statement) and isinstance(statement, ast.If):
            # `if TYPE_CHECKING:` imports never execute: names count as
            # references, but they are not runtime import edges.
            self._visit_expression(statement.test, qualname, in_main_guard)
            self._visit_body(statement.body, qualname, in_main_guard,
                             collect_imports=False)
            self._visit_body(statement.orelse, qualname, in_main_guard,
                             collect_imports)
            return
        if _is_main_guard(statement) and isinstance(statement, ast.If):
            self._visit_expression(statement.test, qualname, in_main_guard)
            self._visit_body(statement.body, qualname, in_main_guard=True,
                             collect_imports=False)
            self._visit_body(statement.orelse, qualname, in_main_guard,
                             collect_imports)
            return
        if isinstance(statement, ast.Raise):
            self._contract_for_raise(statement, in_main_guard)
        for child in ast.iter_child_nodes(statement):
            if isinstance(child, ast.expr):
                self._visit_expression(child, qualname, in_main_guard)
            elif isinstance(child, ast.stmt):
                self._visit_statement(child, qualname, in_main_guard,
                                      collect_imports)
            elif isinstance(child, (ast.excepthandler, ast.withitem,
                                    ast.match_case)):
                for grandchild in ast.iter_child_nodes(child):
                    if isinstance(grandchild, ast.expr):
                        self._visit_expression(grandchild, qualname,
                                               in_main_guard)
                    elif isinstance(grandchild, ast.stmt):
                        self._visit_statement(grandchild, qualname,
                                              in_main_guard, collect_imports)

    def _visit_signature(self, statement: ast.FunctionDef | ast.AsyncFunctionDef,
                         qualname: str, in_main_guard: bool) -> None:
        """Defaults and annotations are evaluated at def time: the names
        they mention (DEFAULT_* constants, type aliases) are references."""
        arguments = statement.args
        for default in list(arguments.defaults) + [
                d for d in arguments.kw_defaults if d is not None]:
            self._visit_expression(default, qualname, in_main_guard)
        parameters = (list(arguments.posonlyargs) + list(arguments.args)
                      + list(arguments.kwonlyargs))
        for extra in (arguments.vararg, arguments.kwarg):
            if extra is not None:
                parameters.append(extra)
        for parameter in parameters:
            if parameter.annotation is not None:
                self._visit_expression(parameter.annotation, qualname,
                                       in_main_guard)
        if statement.returns is not None:
            self._visit_expression(statement.returns, qualname, in_main_guard)

    def _visit_expression(self, expression: ast.expr, qualname: str,
                          in_main_guard: bool) -> None:
        for node in ast.walk(expression):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load):
                    self.referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                self.referenced.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    self.referenced.add(node.value)
            elif isinstance(node, ast.Call):
                callee = _dotted(node.func)
                if callee:
                    self.calls.append((qualname, callee))
                self._contract_for_call(node, in_main_guard)
            elif isinstance(node, ast.Lambda):
                self._visit_expression(node.body, qualname, in_main_guard)

    # -- contract facts -----------------------------------------------------

    def _contract_for_raise(self, statement: ast.Raise,
                            in_main_guard: bool) -> None:
        if in_main_guard or statement.exc is None:
            return
        exc = statement.exc
        name = _dotted(exc.func) if isinstance(exc, ast.Call) else _dotted(exc)
        short = name.rpartition(".")[2]
        if short == "CLIError":
            self.contracts.append(ContractSite(
                kind="cli-error", detail=name,
                line=statement.lineno, col=statement.col_offset + 1,
            ))
        elif short == "SystemExit":
            self.contracts.append(ContractSite(
                kind="sys-exit", detail=f"raise {name}",
                line=statement.lineno, col=statement.col_offset + 1,
            ))

    def _contract_for_call(self, call: ast.Call, in_main_guard: bool) -> None:
        if in_main_guard:
            return
        callee = _dotted(call.func)
        if callee in ("sys.exit", "os._exit"):
            self.contracts.append(ContractSite(
                kind="sys-exit", detail=f"{callee}()",
                line=call.lineno, col=call.col_offset + 1,
            ))
            return
        if callee == "print":
            # print() with no file= (or an explicit file=sys.stdout)
            # writes stdout; print(file=sys.stderr) and friends do not.
            file_keyword = next(
                (kw for kw in call.keywords if kw.arg == "file"), None)
            if file_keyword is None:
                detail = "print()"
            elif ast.unparse(file_keyword.value) == "sys.stdout":
                detail = "print(file=sys.stdout)"
            else:
                return
            self.contracts.append(ContractSite(
                kind="print-stdout", detail=detail,
                line=call.lineno, col=call.col_offset + 1,
            ))

    def _absolute_import_base(self, statement: ast.ImportFrom) -> str | None:
        if statement.level == 0:
            module = statement.module or ""
            if module == "repro" or module.startswith("repro."):
                return module
            return None
        if self.module is None:
            return None
        parts = self.module.split(".")
        # Inside a package __init__, level 1 refers to the package itself.
        drop = statement.level - 1 if self.is_package else statement.level
        if drop > len(parts):
            return None
        base_parts = parts[:len(parts) - drop] if drop else parts
        if statement.module:
            base_parts = base_parts + statement.module.split(".")
        if not base_parts or base_parts[0] != "repro":
            return None
        return ".".join(base_parts)


def summarise(tree: ast.Module, module: str | None,
              is_package: bool) -> ModuleSummary:
    """Extract the :class:`ModuleSummary` of one parsed file."""
    return _SummaryVisitor(module, is_package).run(tree)


def harvest_referenced_names(tree: ast.Module) -> frozenset[str]:
    """The referenced-name set alone (for reference-root files)."""
    visitor = _SummaryVisitor(module=None, is_package=False)
    visitor._visit_body(tree.body, qualname="<module>", in_main_guard=False,
                        collect_imports=False)
    return frozenset(visitor.referenced)


# ---------------------------------------------------------------------------
# suppression view (live pragmas or cache)


@dataclass
class SuppressionIndex:
    """Which (rule, line) findings are pragma-suppressed in one file."""

    lines: dict[str, set[int]] = field(default_factory=dict)

    @classmethod
    def from_pragmas(cls, pragmas: PragmaMap) -> "SuppressionIndex":
        lines: dict[str, set[int]] = {}
        for line, allows in pragmas.allows.items():
            for allow in allows:
                lines.setdefault(allow.rule, set()).add(line)
        return cls(lines=lines)

    @classmethod
    def from_dict(cls, raw: object) -> "SuppressionIndex":
        lines: dict[str, set[int]] = {}
        if isinstance(raw, dict):
            for rule, values in raw.items():
                if isinstance(values, list):
                    lines[str(rule)] = {int(value) for value in values}
        return cls(lines=lines)

    def as_dict(self) -> dict[str, list[int]]:
        return {rule: sorted(values) for rule, values in sorted(self.lines.items())}

    def covers(self, rule: str, line: int) -> bool:
        """A pragma covers its own line and the line directly below."""
        covered = self.lines.get(rule)
        if not covered:
            return False
        return line in covered or (line - 1) in covered


# ---------------------------------------------------------------------------
# the incremental cache


class LintCache:
    """sha256-keyed per-file result cache behind ``.lint-cache.json``."""

    def __init__(self, path: Path | None, key: dict[str, object]) -> None:
        self.path = path
        self.key = key
        self.entries: dict[str, dict[str, object]] = {}
        self.references: dict[str, dict[str, object]] = {}
        self._dirty = False

    @classmethod
    def disabled(cls) -> "LintCache":
        return cls(path=None, key={})

    @property
    def enabled(self) -> bool:
        return self.path is not None

    @classmethod
    def engine_key(cls, rule_names: Sequence[str]) -> dict[str, object]:
        from repro.lint.engine import SCHEMA_VERSION

        return {
            "cache_format": CACHE_FORMAT_VERSION,
            "analysis": ANALYSIS_VERSION,
            "schema": SCHEMA_VERSION,
            "python": f"{sys.version_info[0]}.{sys.version_info[1]}",
            "rules": sorted(rule_names),
        }

    @classmethod
    def load(cls, path: Path, rule_names: Sequence[str]) -> "LintCache":
        key = cls.engine_key(rule_names)
        cache = cls(path=path, key=key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return cache
        if not isinstance(payload, dict) or payload.get("key") != key:
            # Different engine/rules/python: every entry is invalid.
            cache._dirty = True
            return cache
        files = payload.get("files")
        if isinstance(files, dict):
            cache.entries = {
                str(rel): entry for rel, entry in files.items()
                if isinstance(entry, dict)
            }
        references = payload.get("references")
        if isinstance(references, dict):
            cache.references = {
                str(rel): entry for rel, entry in references.items()
                if isinstance(entry, dict)
            }
        return cache

    def lookup(self, rel_path: str, sha256: str) -> dict[str, object] | None:
        entry = self.entries.get(rel_path)
        if entry is not None and entry.get("sha256") == sha256:
            return entry
        return None

    def store(self, rel_path: str, entry: dict[str, object]) -> None:
        self.entries[rel_path] = entry
        self._dirty = True

    def lookup_reference(self, rel_path: str, sha256: str) -> frozenset[str] | None:
        entry = self.references.get(rel_path)
        if entry is not None and entry.get("sha256") == sha256:
            referenced = entry.get("referenced")
            if isinstance(referenced, list):
                return frozenset(str(name) for name in referenced)
        return None

    def store_reference(self, rel_path: str, sha256: str,
                        referenced: frozenset[str]) -> None:
        self.references[rel_path] = {
            "sha256": sha256, "referenced": sorted(referenced),
        }
        self._dirty = True

    def save(self) -> None:
        """Atomic write (temp + ``os.replace``), best-effort on failure."""
        if self.path is None or not self._dirty:
            return
        payload = {
            "version": CACHE_FORMAT_VERSION,
            "key": self.key,
            "files": self.entries,
            "references": self.references,
        }
        temp_path = self.path.with_name(self.path.name + ".tmp")
        try:
            temp_path.write_text(
                json.dumps(payload, indent=1, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            os.replace(temp_path, self.path)
        except OSError:
            # An unwritable cache store must never fail the lint run.
            try:
                temp_path.unlink()
            except OSError:
                pass


# ---------------------------------------------------------------------------
# the project


@dataclass
class FileRecord:
    """One linted file: live AST or cache-restored summary."""

    path: Path
    rel_path: str
    sha256: str
    summary: ModuleSummary
    suppressions: SuppressionIndex
    #: present only when the file was parsed this run.
    module_under_lint: ModuleUnderLint | None = None
    #: per-file rule findings, post-pragma (filled by the engine).
    findings: list[Finding] = field(default_factory=list)
    pragma_suppressed: int = 0
    from_cache: bool = False


class ProjectUnderLint:
    """Every linted file parsed (or cache-restored) once, plus indexes."""

    def __init__(self, root: Path, records: Sequence[FileRecord],
                 extra_referenced: frozenset[str] = frozenset()) -> None:
        self.root = root
        self.records = list(records)
        #: dotted module name -> record, for in-package files only.
        self.modules: dict[str, FileRecord] = {}
        for record in self.records:
            if record.summary.module is not None:
                self.modules[record.summary.module] = record
        self.extra_referenced = extra_referenced
        self._referenced: frozenset[str] | None = None
        self._edges: dict[str, list[tuple[str, ImportSite]]] | None = None

    # -- reference index ----------------------------------------------------

    @property
    def referenced_names(self) -> frozenset[str]:
        """Every identifier referenced anywhere in the project or the
        reference roots (tests/benchmarks/...)."""
        if self._referenced is None:
            names: set[str] = set(self.extra_referenced)
            for record in self.records:
                names |= record.summary.referenced
            self._referenced = frozenset(names)
        return self._referenced

    # -- module graph -------------------------------------------------------

    def resolved_imports(self) -> dict[str, list[tuple[str, ImportSite]]]:
        """module name -> [(imported module name, site), ...], resolved
        against the modules actually present in the project."""
        if self._edges is None:
            edges: dict[str, list[tuple[str, ImportSite]]] = {}
            for name, record in self.modules.items():
                targets: list[tuple[str, ImportSite]] = []
                for site in record.summary.imports:
                    targets.extend(
                        (target, site)
                        for target in self._resolve_site(site)
                        if target != name
                    )
                edges[name] = targets
            self._edges = edges
        return self._edges

    def _resolve_site(self, site: ImportSite) -> Iterator[str]:
        """Modules one import statement depends on.

        ``from pkg import submodule`` depends on ``pkg.submodule``, not
        on ``pkg`` itself — adding the parent ``__init__`` edge would
        report the standard re-export pattern (`__init__` imports
        ``.submodule``, siblings do ``from . import submodule``) as a
        cycle Python happily executes.  The ``pkg`` edge is kept only
        when a plain symbol is imported from it (or for bare
        ``import pkg``), because that does execute ``pkg/__init__``'s
        re-export machinery.
        """
        symbol_alias = not site.names
        for alias in site.names:
            submodule = f"{site.module}.{alias}"
            if submodule in self.modules:
                yield submodule
            else:
                symbol_alias = True
        if symbol_alias and site.module in self.modules:
            yield site.module

    def import_cycles(self) -> list[list[str]]:
        """Strongly connected components of size > 1 (true import cycles),
        each returned sorted with the alphabetically-first module first."""
        edges = self.resolved_imports()
        index_counter = [0]
        stack: list[str] = []
        on_stack: set[str] = set()
        indices: dict[str, int] = {}
        low_links: dict[str, int] = {}
        cycles: list[list[str]] = []

        def strongconnect(node: str) -> None:
            indices[node] = low_links[node] = index_counter[0]
            index_counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            for target, _site in edges.get(node, ()):
                if target not in indices:
                    strongconnect(target)
                    low_links[node] = min(low_links[node], low_links[target])
                elif target in on_stack:
                    low_links[node] = min(low_links[node], indices[target])
            if low_links[node] == indices[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    cycles.append(sorted(component))

        for node in sorted(self.modules):
            if node not in indices:
                strongconnect(node)
        return sorted(cycles)

    # -- findings -----------------------------------------------------------

    def finding(self, rule: str, record: FileRecord, line: int, col: int,
                message: str) -> Finding:
        return Finding(rule=rule, path=record.rel_path, line=max(line, 1),
                       col=max(col, 1), message=message)


def discover_reference_roots(root: Path,
                             linted: Iterable[Path]) -> list[Path]:
    """The default reference roots under *root* that are not already
    being linted (linted files contribute their references directly)."""
    linted_resolved = {path.resolve() for path in linted}
    roots: list[Path] = []
    for name in DEFAULT_REFERENCE_ROOT_NAMES:
        candidate = root / name
        if candidate.is_dir() and candidate.resolve() not in linted_resolved:
            roots.append(candidate)
    return roots


# ---------------------------------------------------------------------------
# engine glue


def cache_entry_for(record: FileRecord) -> dict[str, object]:
    """The JSON cache entry persisting one file's per-file results."""
    return {
        "sha256": record.sha256,
        "findings": [finding.as_dict() for finding in record.findings],
        "pragma_suppressed": record.pragma_suppressed,
        "allows": record.suppressions.as_dict(),
        "summary": record.summary.as_dict(),
    }


def record_from_cache(path: Path, rel_path: str, sha256: str,
                      entry: Mapping[str, object]) -> FileRecord:
    """Rebuild a :class:`FileRecord` from its cache entry (no parse)."""
    findings = [
        Finding(rule=_as_str(item.get("rule")), path=_as_str(item.get("path")),
                line=_as_int(item.get("line")), col=_as_int(item.get("col")),
                message=_as_str(item.get("message")))
        for item in _dict_items(entry.get("findings"))
    ]
    summary_raw = entry.get("summary")
    summary = ModuleSummary.from_dict(summary_raw) \
        if isinstance(summary_raw, Mapping) else ModuleSummary(None, False)
    return FileRecord(
        path=path, rel_path=rel_path, sha256=sha256,
        summary=summary,
        suppressions=SuppressionIndex.from_dict(entry.get("allows")),
        findings=findings,
        pragma_suppressed=_as_int(entry.get("pragma_suppressed"), default=0),
        from_cache=True,
    )


def collect_reference_names(
    *,
    cache: LintCache,
    root_path: Path,
    paths: Sequence[Path],
    reference_roots: Sequence[Path] | None,
    exclude: Sequence[Path],
    records: Sequence[FileRecord],
    result: LintResult,
    root: Path | None,
) -> frozenset[str]:
    """Referenced names from the reference roots, via the cache.

    Files already linted this run are skipped (their references are in
    the project itself); unparseable reference files contribute nothing
    but are cached so they are not re-attempted every run.
    """
    from repro.lint.engine import iter_python_files, relative_display_path

    if reference_roots is None:
        roots = discover_reference_roots(root_path, paths)
    else:
        roots = [Path(path) for path in reference_roots]
    linted = {record.path.resolve() for record in records}
    names: set[str] = set()
    for ref_root in roots:
        for ref_file in iter_python_files([ref_root], exclude=exclude):
            if ref_file.resolve() in linted:
                continue
            rel = relative_display_path(ref_file, root)
            data = ref_file.read_bytes()
            sha256 = file_sha256(data)
            cached = cache.lookup_reference(rel, sha256)
            if cached is not None:
                names |= cached
                result.reference_files_reused += 1
                continue
            result.reference_files_parsed += 1
            try:
                tree = ast.parse(data.decode("utf-8"))
            except (SyntaxError, UnicodeDecodeError):
                cache.store_reference(rel, sha256, frozenset())
                continue
            referenced = harvest_referenced_names(tree)
            cache.store_reference(rel, sha256, referenced)
            names |= referenced
    return frozenset(names)

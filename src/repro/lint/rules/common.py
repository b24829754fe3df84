"""Small AST helpers shared by the rule modules."""

from __future__ import annotations

import ast
import re
from typing import Iterator

_SNAKE_SPLIT = re.compile(r"[^A-Za-z0-9]+")


def identifier_words(name: str) -> set[str]:
    """Lower-cased word fragments of an identifier (``redirect_target`` ->
    ``{"redirect", "target"}``); camelCase is split too."""
    spaced = re.sub(r"(?<=[a-z0-9])(?=[A-Z])", " ", name)
    return {part.lower() for part in _SNAKE_SPLIT.split(spaced) if part}


def expression_words(node: ast.AST) -> set[str]:
    """Every identifier word appearing anywhere in *node*'s subtree."""
    words: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            words |= identifier_words(child.id)
        elif isinstance(child, ast.Attribute):
            words |= identifier_words(child.attr)
        elif isinstance(child, ast.arg):
            words |= identifier_words(child.arg)
    return words


def string_constants(node: ast.AST) -> Iterator[str]:
    """Every string literal in *node*'s subtree (f-string parts included)."""
    for child in ast.walk(node):
        if isinstance(child, ast.Constant) and isinstance(child.value, str):
            yield child.value


def call_name(node: ast.Call) -> str:
    """Dotted name of a call's callee (``os.fdopen`` -> ``"os.fdopen"``)."""
    return dotted_name(node.func)


def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for nested Name/Attribute chains, ``""`` otherwise."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return ""


def enclosing_function(
    node: ast.AST, parents: dict[ast.AST, ast.AST]
) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
    """The innermost function definition containing *node*, if any."""
    current = parents.get(node)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return current
        current = parents.get(current)
    return None


def enclosing_class(
    node: ast.AST, parents: dict[ast.AST, ast.AST]
) -> ast.ClassDef | None:
    """The innermost class definition containing *node*, if any."""
    current = parents.get(node)
    while current is not None:
        if isinstance(current, ast.ClassDef):
            return current
        current = parents.get(current)
    return None


def is_dataclass_def(node: ast.ClassDef) -> bool:
    """True when *node* carries a ``@dataclass``/``@dataclasses.dataclass``."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = dotted_name(target)
        if name in ("dataclass", "dataclasses.dataclass"):
            return True
    return False


def dataclass_fields(node: ast.ClassDef) -> list[ast.AnnAssign]:
    """The field declarations of a dataclass body (ClassVar excluded)."""
    fields: list[ast.AnnAssign] = []
    for statement in node.body:
        if not isinstance(statement, ast.AnnAssign):
            continue
        if not isinstance(statement.target, ast.Name):
            continue
        annotation = ast.unparse(statement.annotation)
        if "ClassVar" in annotation:
            continue
        fields.append(statement)
    return fields

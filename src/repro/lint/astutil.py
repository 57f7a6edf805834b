"""Small AST helpers shared by the lint rules."""

from __future__ import annotations

import ast


def dotted_name(node: ast.expr) -> str | None:
    """Render ``a.b.c`` attribute/name chains as a dotted string.

    Returns ``None`` for anything that is not a pure name chain (calls,
    subscripts, literals...).
    """
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def is_name(node: ast.expr, *names: str) -> bool:
    """Whether *node* is a bare ``Name`` matching one of *names*."""
    return isinstance(node, ast.Name) and node.id in names

"""R11 — vector-contract: columnar protocols must export all mutated state.

The vector engine backend (``repro.sim.backends``) replaces per-node
``begin_slot``/``end_slot`` calls with a columnar kernel that advances
*every* node's state as numpy columns.  The handshake is duck-typed: a
protocol advertises ``vector_kind`` and the kernel snapshots its state
through ``vector_export()`` before the run and writes it back through
``vector_import(state)`` after.  The replay-mode kernel is Tier-A
bit-identical to the exact engine — but only for the state that crosses
that boundary.  Any attribute a step method mutates *without* exporting
it is hidden state: the exact engine updates it every slot, the kernel
never touches it, and the two backends silently diverge in exactly the
measurements the paper's slot-budget theorems are about.

This whole-program rule checks every class that assigns ``vector_kind``
in its body:

- ``vector_export``/``vector_import`` must both exist (possibly
  inherited; the call graph walks project-resolvable bases);
- field symmetry: every ``state["key"]`` that ``vector_import`` reads
  must be a key ``vector_export`` returns (the reverse is allowed —
  exports like the ``draw`` method are consumed by the kernel, not
  restored);
- hidden state: every ``self.<attr>`` assigned, augmented, or mutated
  in place (``append``/``update``/…) inside a step-like method
  (``begin_slot``, ``end_slot``, ``step``, message handlers) — or any
  helper method reachable from one through ``self.*`` calls — must be
  an attribute ``vector_export`` reads.

One carve-out keeps the polarity honest: a mutation guarded by an
``if`` whose test reads an *exported* attribute is allowed.  That is
the sanctioned escape hatch — ``CogCast`` appends to ``self.log`` only
under ``if self.keep_log:``, and because ``keep_log`` is exported the
kernel sees the flag and falls back to the exact engine for logging
runs instead of dropping the log.

Fix it by exporting the attribute (add it to the ``vector_export``
dict and, if it must survive a restore, to ``vector_import``), by
gating the mutation behind an exported capability flag the kernel can
honour, or by dropping ``vector_kind`` from a protocol that is not
actually columnar.  The runtime counterpart of this rule is
``repro sanitize <experiment>`` with the exact-vs-``vector-replay``
check: hidden state that slips past the static pass shows up there as
the first divergent record.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.analysis import ProjectContext
from repro.lint.analysis.callgraph import class_in_project, method_on_class
from repro.lint.findings import Finding
from repro.lint.registry import ProjectRule, register

#: Methods the engines drive every slot — the protocol's step surface.
STEP_METHODS = (
    "begin_slot",
    "end_slot",
    "step",
    "on_message",
    "handle_message",
)

#: In-place mutators: a call ``self.x.append(...)`` mutates ``self.x``.
MUTATOR_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "extendleft",
        "insert",
        "pop",
        "popitem",
        "remove",
        "reverse",
        "rotate",
        "setdefault",
        "sort",
        "update",
    }
)

#: Bases that provably add no step-surface of their own.
_INERT_BASES = frozenset({"object", "ABC", "abc.ABC", "Generic"})


def _self_attr(node: ast.AST) -> str | None:
    """Root attribute of a ``self.x`` / ``self.x[i]`` / ``self.x.y`` chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            value = node.value
            while isinstance(value, ast.Subscript):
                value = value.value
            if isinstance(value, ast.Name) and value.id == "self":
                return node.attr
            node = value
        else:
            node = node.value
    return None


def _self_reads(node: ast.AST) -> frozenset[str]:
    """Attributes read directly off ``self`` anywhere in *node*."""
    return frozenset(
        child.attr
        for child in ast.walk(node)
        if isinstance(child, ast.Attribute)
        and isinstance(child.value, ast.Name)
        and child.value.id == "self"
    )


def _flatten_targets(target: ast.expr) -> Iterator[ast.expr]:
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _flatten_targets(element)
    else:
        yield target


class _Mutation:
    """One ``self`` attribute write, with the guards that dominate it."""

    __slots__ = ("attr", "line", "col", "guards")

    def __init__(self, attr: str, line: int, col: int, guards: frozenset[str]):
        self.attr = attr
        self.line = line
        self.col = col
        self.guards = guards


def _mutator_calls(node: ast.AST) -> Iterator[tuple[str, int, int]]:
    """``self.x.append(...)``-style in-place mutations inside *node*."""
    for child in ast.walk(node):
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Attribute)
            and child.func.attr in MUTATOR_METHODS
        ):
            attr = _self_attr(child.func.value)
            if attr is not None:
                yield attr, child.lineno, child.col_offset


def _self_mutations(
    function: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[_Mutation]:
    """Every ``self`` attribute write in *function*, guard-annotated.

    Guards are the self-attributes read by every enclosing ``if``/
    ``while`` test; a mutation dominated by a test on an exported flag
    is the kernel-visible fallback idiom R11 must not flag.
    """
    found: list[_Mutation] = []

    def record(attr: str | None, line: int, col: int, guards: frozenset[str]) -> None:
        if attr is not None and not attr.startswith("__"):
            found.append(_Mutation(attr, line, col, guards))

    def scan_expr(node: ast.AST, guards: frozenset[str]) -> None:
        for attr, line, col in _mutator_calls(node):
            record(attr, line, col, guards)

    def visit(statements: list[ast.stmt], guards: frozenset[str]) -> None:
        for statement in statements:
            if isinstance(statement, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    statement.targets
                    if isinstance(statement, ast.Assign)
                    else [statement.target]
                )
                for target in targets:
                    for leaf in _flatten_targets(target):
                        record(
                            _self_attr(leaf), leaf.lineno, leaf.col_offset, guards
                        )
                scan_expr(statement, guards)
            elif isinstance(statement, ast.Delete):
                for target in statement.targets:
                    record(
                        _self_attr(target),
                        target.lineno,
                        target.col_offset,
                        guards,
                    )
            elif isinstance(statement, (ast.If, ast.While)):
                scan_expr(statement.test, guards)
                inner = guards | _self_reads(statement.test)
                visit(statement.body, inner)
                visit(statement.orelse, inner)
            elif isinstance(statement, ast.For):
                scan_expr(statement.iter, guards)
                visit(statement.body, guards)
                visit(statement.orelse, guards)
            elif isinstance(statement, ast.With):
                for item in statement.items:
                    scan_expr(item.context_expr, guards)
                visit(statement.body, guards)
            elif isinstance(statement, ast.Try):
                visit(statement.body, guards)
                for handler in statement.handlers:
                    visit(handler.body, guards)
                visit(statement.orelse, guards)
                visit(statement.finalbody, guards)
            elif isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            else:
                scan_expr(statement, guards)

    visit(function.body, frozenset())
    return found


def _vector_kind(node: ast.ClassDef) -> str | None:
    """The string assigned to ``vector_kind`` in the class body, if any."""
    for statement in node.body:
        value = None
        if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
            target = statement.targets[0]
            if isinstance(target, ast.Name) and target.id == "vector_kind":
                value = statement.value
        elif isinstance(statement, ast.AnnAssign):
            if (
                isinstance(statement.target, ast.Name)
                and statement.target.id == "vector_kind"
            ):
                value = statement.value
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            return value.value
    return None


def _export_keys(function: ast.FunctionDef | ast.AsyncFunctionDef) -> frozenset[str] | None:
    """String keys of the dict literal(s) ``vector_export`` returns.

    ``None`` when no return is a dict literal — the keys are then
    unknowable statically and the symmetry check stands down.
    """
    keys: set[str] = set()
    saw_dict = False
    for node in ast.walk(function):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
            saw_dict = True
            for key in node.value.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.add(key.value)
    return frozenset(keys) if saw_dict else None


def _import_reads(
    function: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[tuple[str, int, int]]:
    """``state["key"]`` subscript reads of ``vector_import``'s parameter."""
    positional = function.args.posonlyargs + function.args.args
    if len(positional) < 2:
        return []
    state_name = positional[1].arg
    reads = []
    for node in ast.walk(function):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == state_name
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            reads.append((node.slice.value, node.lineno, node.col_offset))
    return reads


@register
class VectorContractRule(ProjectRule):
    """Flag columnar protocols whose export contract misses mutated state."""

    rule_id = "R11"
    title = "vector-contract"
    invariant = (
        "every protocol advertising a vector_kind exports exactly the "
        "state its step methods mutate, so the columnar kernel and the "
        "exact engine cannot silently diverge"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for module_name in sorted(project.modules):
            context = project.modules[module_name]
            for statement in context.tree.body:
                if isinstance(statement, ast.ClassDef):
                    kind = _vector_kind(statement)
                    if kind is not None:
                        yield from self._check_class(
                            project, module_name, statement, kind
                        )

    # ------------------------------------------------------------------

    def _check_class(
        self,
        project: ProjectContext,
        module_name: str,
        node: ast.ClassDef,
        kind: str,
    ) -> Iterator[Finding]:
        graph, imports = project.callgraph, project.imports
        class_qualname = f"{module_name}:{node.name}"
        path = project.modules[module_name].path
        export_qualname = method_on_class(
            graph, imports, class_qualname, "vector_export"
        )
        import_qualname = method_on_class(
            graph, imports, class_qualname, "vector_import"
        )

        if self._bases_all_resolved(project, class_qualname):
            for name, resolved in (
                ("vector_export", export_qualname),
                ("vector_import", import_qualname),
            ):
                if resolved is None:
                    yield self.project_finding(
                        path,
                        node.lineno,
                        node.col_offset,
                        f"'{node.name}' advertises vector_kind '{kind}' but "
                        f"defines no {name}(); the columnar kernel cannot "
                        "snapshot/restore its state — implement the "
                        "export/import pair or drop vector_kind",
                    )
        if export_qualname is None:
            return

        export_info = graph.functions[export_qualname]
        exported_attrs = _self_reads(export_info.node)
        export_keys = _export_keys(export_info.node)

        if import_qualname is not None and export_keys is not None:
            import_info = graph.functions[import_qualname]
            reported: set[str] = set()
            for key, line, col in _import_reads(import_info.node):
                if key not in export_keys and key not in reported:
                    reported.add(key)
                    yield self.project_finding(
                        import_info.path,
                        line,
                        col,
                        f"vector_import() on '{node.name}' reads "
                        f"state['{key}'] that vector_export() never exports; "
                        "restoring from a kernel snapshot will fail or "
                        f"resurrect stale state — export '{key}' or drop "
                        "the read",
                    )

        yield from self._hidden_state(
            project, node, kind, class_qualname, exported_attrs
        )

    def _hidden_state(
        self,
        project: ProjectContext,
        node: ast.ClassDef,
        kind: str,
        class_qualname: str,
        exported_attrs: frozenset[str],
    ) -> Iterator[Finding]:
        """Walk step methods (and their ``self.*`` helpers) for mutations."""
        graph, imports = project.callgraph, project.imports
        flagged: set[str] = set()
        for entry in STEP_METHODS:
            entry_qualname = method_on_class(graph, imports, class_qualname, entry)
            if entry_qualname is None:
                continue
            visited: set[str] = set()
            queue: list[tuple[str, tuple[str, ...]]] = [(entry_qualname, (entry,))]
            while queue:
                qualname, chain = queue.pop(0)
                if qualname in visited or len(chain) > 8:
                    continue
                visited.add(qualname)
                info = graph.functions[qualname]
                for mutation in _self_mutations(info.node):
                    if mutation.attr in exported_attrs:
                        continue
                    if mutation.guards & exported_attrs:
                        continue  # gated behind an exported capability flag
                    if mutation.attr in flagged:
                        continue
                    flagged.add(mutation.attr)
                    witness = " -> ".join(f"{name}()" for name in chain)
                    yield self.project_finding(
                        info.path,
                        mutation.line,
                        mutation.col,
                        f"'{node.name}' (vector_kind '{kind}') mutates "
                        f"'self.{mutation.attr}' via {witness} but never "
                        "exports it in vector_export(); the columnar kernel "
                        "will not replay this state and the backends diverge "
                        "— export the attribute or gate the mutation behind "
                        "an exported flag",
                    )
                for site in info.calls:
                    if (
                        site.resolved is not None
                        and site.resolved in graph.functions
                        and site.dotted.startswith("self.")
                        and "." not in site.dotted[len("self.") :]
                    ):
                        queue.append(
                            (site.resolved, chain + (site.dotted[len("self.") :],))
                        )

    @staticmethod
    def _bases_all_resolved(project: ProjectContext, class_qualname: str) -> bool:
        """Whether every base of the class is visible to the linter.

        The missing-method check only fires when it is: a class
        inheriting ``vector_export`` from a module outside the linted
        file set *has* the method at runtime, and flagging it would
        break the no-false-positives polarity.
        """
        info = project.callgraph.classes.get(class_qualname)
        if info is None:
            return False
        for base in info.bases:
            if base in _INERT_BASES:
                continue
            if "." in base:
                return False
            resolved = class_in_project(
                project.callgraph, project.imports, base, info.module
            )
            if resolved is None:
                return False
            if not VectorContractRule._bases_all_resolved(project, resolved):
                return False
        return True

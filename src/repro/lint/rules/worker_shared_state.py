"""R12 — worker-shared-state: nothing live crosses the fork boundary.

``repro.perf.pmap_trials`` (and ``map_trials`` / ``Campaign.run(jobs=)``
above it) promise that worker count never changes results.  R7 checks
the *submitted callable* for ambient effects; this rule checks the
*arguments* at the submission site.  A module-level list, dict, open
file handle, or live ``MetricsRegistry``/``TelemetrySink`` instance
captured into a submission — positionally, through
``functools.partial``, or as the receiver of a bound method — is
pickled and **copied** into each worker.  Every worker then mutates its
own private copy: the parent's object never sees the writes
(silently-lost telemetry), and any identity-keyed logic diverges
between ``jobs=1`` (shared object) and ``jobs=N`` (N copies).  This is
the precondition the sharded campaign service needs machine-checked.

The rule is deliberately narrow to stay polarity-safe (no false
positives): it only flags *module-level* names whose binding is
provably a mutable container literal/constructor, an ``open(...)``
handle, or a live observability object, and only when such a name
appears inside a submission call's argument list in the same module.
Locals, parameters, and immutable module constants never fire, and
names captured only inside ``lambda`` bodies are skipped — lambdas are
unpicklable, so the executor already runs them serially in-process.

Fix it by passing plain data derived from the seed (ints, tuples,
frozen specs): workers return values (results, registry snapshots)
and the parent merges them after the map (``MetricsRegistry.merge``)
and emits telemetry itself, so no worker shares a sink.
The runtime counterpart is ``repro sanitize`` with the ``jobs``
perturbation: captured shared state shows up as a ``jobs=1`` vs
``jobs=N`` bit-diff.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.analysis import ProjectContext
from repro.lint.astutil import dotted_name
from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import ProjectRule, register
from repro.lint.rules.parallel_purity import ParallelPurityRule

#: Constructors whose result is a shared-mutable container.
MUTABLE_FACTORIES = frozenset(
    {"Counter", "OrderedDict", "defaultdict", "deque", "dict", "list", "set"}
)

#: Observability objects that must live on the harness side of a fork.
LIVE_CLASS_NAMES = frozenset({"EventTrace", "MetricsRegistry", "TelemetrySink"})


def _describe_mutable(value: ast.expr) -> str | None:
    """A human label when *value* provably builds shared-mutable state."""
    if isinstance(value, (ast.List, ast.ListComp)):
        return "module-level list"
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "module-level dict"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "module-level set"
    if isinstance(value, ast.Call):
        dotted = dotted_name(value.func)
        if dotted is None:
            return None
        last = dotted.rsplit(".", 1)[-1]
        if last == "open":
            return "open file handle"
        if last in MUTABLE_FACTORIES:
            return f"module-level {last}()"
        if last in LIVE_CLASS_NAMES:
            return f"live {last} instance"
    return None


def module_mutables(context: ModuleContext) -> dict[str, tuple[str, int]]:
    """Module-level names provably bound to live/mutable objects."""
    found: dict[str, tuple[str, int]] = {}
    for statement in context.tree.body:
        if isinstance(statement, ast.Assign):
            targets = statement.targets
            value = statement.value
        elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
            targets = [statement.target]
            value = statement.value
        else:
            continue
        description = _describe_mutable(value)
        if description is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                found[target.id] = (description, statement.lineno)
    return found


def _captured_names(call: ast.Call) -> Iterator[ast.Name]:
    """Every name loaded inside *call*'s arguments, skipping lambdas."""
    roots: list[ast.AST] = list(call.args) + [kw.value for kw in call.keywords]
    stack = roots
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Lambda):
            continue  # unpicklable: runs serially, nothing crosses a fork
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _local_names(function: ast.AST) -> frozenset[str]:
    """Names bound locally in *function* (params, assignments, loops)."""
    names: set[str] = set()
    if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
        arguments = function.args
        for arg in (
            arguments.posonlyargs
            + arguments.args
            + arguments.kwonlyargs
            + ([arguments.vararg] if arguments.vararg else [])
            + ([arguments.kwarg] if arguments.kwarg else [])
        ):
            names.add(arg.arg)
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    return frozenset(names)


@register
class WorkerSharedStateRule(ProjectRule):
    """Flag live/mutable module state captured at fan-out submissions."""

    rule_id = "R12"
    title = "worker-shared-state"
    invariant = (
        "no module-level mutable object, open handle, or live metrics/"
        "telemetry instance is captured into a pmap_trials / map_trials "
        "/ Campaign submission, so jobs=1 and jobs=N share nothing "
        "across the fork boundary"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for info, site in project.call_sites():
            api, submitted = ParallelPurityRule._submission(site)
            if not api:
                continue
            context = project.module_for(info)
            mutables = module_mutables(context)
            if not mutables:
                continue
            locals_ = _local_names(info.node)
            reported: set[str] = set()
            for name in _captured_names(site.node):
                if name.id in locals_ or name.id in reported:
                    continue
                binding = mutables.get(name.id)
                if binding is None:
                    continue
                reported.add(name.id)
                description, defined_line = binding
                yield self.project_finding(
                    info.path,
                    name.lineno,
                    name.col_offset,
                    f"'{name.id}' ({description}, bound at line "
                    f"{defined_line}) is captured at a {api}() submission; "
                    "each worker mutates a pickled private copy, so its "
                    "writes are lost and jobs=1 vs jobs=N diverge — pass "
                    "plain seed-derived data and merge worker results "
                    "after the map",
                )

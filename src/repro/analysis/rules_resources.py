"""RPR007: resource samplers are started via ``with``.

A :class:`~repro.obs.resources.ResourceSampler` owns a background
sampling thread; ``__enter__`` starts it and ``__exit__`` joins it.
Constructing one outside a ``with`` statement (or an
``ExitStack.enter_context`` call) risks a sampler that never stops: the
thread keeps waking to fold RSS readings into dead watches after the
measured run is over, taking GIL time from the code that follows --
silently skewing the very measurements the sampler exists to make
trustworthy. Mirrors RPR005 (span-hygiene) for the resource dimension.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.base import FileContext, Rule, Violation, register_rule

__all__ = ["ResourceSpanLeakRule"]

#: The canonical class the rule tracks.
_SAMPLER_CLASS = "ResourceSampler"
_CANONICAL_SUFFIXES = (
    f"repro.obs.resources.{_SAMPLER_CLASS}",
    f"repro.obs.{_SAMPLER_CLASS}",
)

#: Enclosing function names whose returned sampler is delegation (a
#: factory the caller is expected to enter), mirroring RPR005.
_DELEGATION_NAMES = ("resource_sampler", "sampler")


@register_rule
class ResourceSpanLeakRule(Rule):
    id = "RPR007"
    name = "resource-span-leak"
    summary = "ResourceSampler created outside a `with` statement"
    invariant = (
        "every resource sampler's background thread is started and joined "
        "by a context manager, so sampling never outlives the run it measures"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        allowed: set[int] = set()
        self._collect_allowed(ctx.tree, allowed, in_delegation=False)
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and self._is_sampler_call(node, ctx)
                and id(node) not in allowed
            ):
                yield ctx.violation(
                    self, node,
                    "ResourceSampler(...) outside a `with` statement: enter "
                    "samplers as `with ResourceSampler(...) as sampler:` (or "
                    "stack.enter_context(...)) so the sampling thread is "
                    "always joined",
                )

    @staticmethod
    def _is_sampler_call(node: ast.Call, ctx: FileContext) -> bool:
        func = node.func
        if isinstance(func, ast.Name) and func.id == _SAMPLER_CLASS:
            return True
        resolved = ctx.imports.resolve(func)
        if resolved is not None:
            return resolved.endswith(_CANONICAL_SUFFIXES)
        return isinstance(func, ast.Attribute) and func.attr == _SAMPLER_CLASS

    def _collect_allowed(
        self, node: ast.AST, allowed: set[int], in_delegation: bool
    ) -> None:
        """Mark sampler calls that are with-items, enter_context args,
        or returns inside delegation-named factories."""
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.context_expr, ast.Call):
                    allowed.add(id(item.context_expr))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "enter_context"
        ):
            for arg in node.args:
                if isinstance(arg, ast.Call):
                    allowed.add(id(arg))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_delegation = node.name in _DELEGATION_NAMES
        elif isinstance(node, ast.Return) and in_delegation:
            if isinstance(node.value, ast.Call):
                allowed.add(id(node.value))
        for child in ast.iter_child_nodes(node):
            self._collect_allowed(child, allowed, in_delegation)

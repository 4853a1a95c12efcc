"""RPR005: spans and samplers are entered via ``with``.

Three obs callables return context managers whose ``__exit__`` does the
work that makes a measurement trustworthy:

* ``Tracer.span`` stamps the duration and unwinds the span stack in its
  ``finally``. A span that is never entered leaks an un-timed span into
  the tree, and the trace's per-phase rollups -- the Figure 7
  TTime/ETime decomposition -- stop adding up.
* :class:`~repro.obs.resources.ResourceSampler` joins its background
  sampling thread. A sampler that is never exited keeps waking to fold
  RSS readings into dead watches, taking GIL time from the code that
  follows.
* :class:`~repro.obs.profiler.StackSampler` joins its thread, banks the
  sampled wall clock and releases the process's single active-sampler
  slot. A leaked one blocks every later ``repro profile`` run in the
  process.

A call is entered when it is a ``with`` item or an
``ExitStack.enter_context`` argument. Delegation is allowed too: a
``return`` of the call inside a function whose name is one of the
entry's delegation names (``Telemetry.span`` forwarding to its tracer,
a ``sampler()`` factory) is the facade pattern, not a leak.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass

from repro.analysis.base import FileContext, Rule, Violation, register_rule

__all__ = ["TRACKED", "Tracked", "WithOnlyRule"]


@dataclass(frozen=True)
class Tracked:
    """One callable whose result must be entered as a context manager."""

    #: The method or class name as written at the call site.
    name: str
    #: Modules that export the class; empty for a method, which is
    #: matched by attribute name on any receiver.
    modules: tuple[str, ...]
    #: Enclosing function names whose ``return`` of the call is delegation.
    delegation: tuple[str, ...]
    #: What entering guarantees, for the message.
    guarantee: str

    @property
    def label(self) -> str:
        return self.name if self.modules else f".{self.name}"

    def matches(self, call: ast.Call, ctx: FileContext) -> bool:
        """Whether ``call`` (already known to use :attr:`name`) is this one."""
        if not self.modules:
            return isinstance(call.func, ast.Attribute)
        resolved = ctx.imports.resolve(call.func)
        return resolved is None or resolved.endswith(
            tuple(f"{module}.{self.name}" for module in self.modules)
        )

    def entered(self, how: str | None, function: str | None) -> bool:
        """A ``with`` item, or a ``return`` from a delegation function."""
        return how == "with" or (how == "return" and function in self.delegation)


TRACKED = (
    Tracked(
        name="span",
        modules=(),
        delegation=("span", "stopwatch"),
        guarantee="the duration is stamped and the span stack unwinds",
    ),
    Tracked(
        name="ResourceSampler",
        modules=("repro.obs.resources", "repro.obs"),
        delegation=("resource_sampler", "sampler"),
        guarantee="the sampling thread is always joined",
    ),
    Tracked(
        name="StackSampler",
        modules=("repro.obs.profiler", "repro.obs"),
        delegation=("stack_sampler", "profiler", "sampler"),
        guarantee=(
            "the sampling thread is always joined and the active-sampler "
            "slot released"
        ),
    ),
)

_BY_NAME = {tracked.name: tracked for tracked in TRACKED}


@register_rule
class WithOnlyRule(Rule):
    id = "RPR005"
    name = "with-only"
    summary = "span or sampler created outside a `with` statement"
    invariant = (
        "every span and sampler is opened and closed by a context manager, "
        "so durations are stamped, the span stack unwinds and no sampling "
        "thread outlives the run it measures"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        found: list[Violation] = []
        self._visit(ctx.tree, ctx, None, {}, found)
        return iter(found)

    def _visit(
        self,
        node: ast.AST,
        ctx: FileContext,
        function: str | None,
        entries: dict[int, str],
        found: list[Violation],
    ) -> None:
        """One pre-order walk: a parent records how its child calls are
        entered (``with`` or ``return``) before the children are checked."""
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            tracked = _BY_NAME.get(name)
            if (
                tracked is not None
                and tracked.matches(node, ctx)
                and not tracked.entered(entries.get(id(node)), function)
            ):
                found.append(ctx.violation(
                    self, node,
                    f"{tracked.label}(...) outside a `with` statement: enter "
                    "it as a `with` item (or stack.enter_context(...)) so "
                    f"{tracked.guarantee}",
                ))
            if name == "enter_context":
                entries.update((id(arg), "with") for arg in node.args)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            entries.update((id(item.context_expr), "with") for item in node.items)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Return) and node.value is not None:
            entries[id(node.value)] = "return"
        for child in ast.iter_child_nodes(node):
            self._visit(child, ctx, function, entries, found)

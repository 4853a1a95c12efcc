"""Rule base classes and the rule registry for ``reprolint``.

A :class:`Rule` inspects one parsed file (wrapped in a
:class:`FileContext`) and yields :class:`Violation` records. Rules are
registered with :func:`register_rule` and instantiated by
:func:`default_rules`, so downstream code (and tests) can compose rule
sets freely -- the engine never hard-codes the rule list.

Rule identifiers follow ``RPRnnn``. Identifiers below 900 are invariant
rules; the 900 range is reserved for the engine itself (``RPR900``
unused-suppression-pragma).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import ClassVar

from repro.analysis.names import ImportMap
from repro.errors import ConfigurationError

__all__ = [
    "RULE_REGISTRY",
    "UNUSED_PRAGMA_RULE",
    "FileContext",
    "Rule",
    "Violation",
    "default_rules",
    "register_rule",
]

#: Engine-level rule id for a suppression pragma that suppressed nothing.
UNUSED_PRAGMA_RULE = "RPR900"


@dataclass(frozen=True, order=True)
class Violation:
    """One rule finding, anchored to a file position.

    ``end_line`` is the last physical line of the flagged statement: a
    suppression pragma anywhere in ``[line, end_line]`` silences the
    violation, so multi-line calls can carry the pragma on any of their
    lines.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str = field(compare=False)
    end_line: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.end_line < self.line:
            object.__setattr__(self, "end_line", self.line)

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_payload(self) -> dict:
        """JSON-serialisable form, for the incremental cache."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "end_line": self.end_line,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Violation":
        return cls(
            path=payload["path"],
            line=payload["line"],
            col=payload["col"],
            rule=payload["rule"],
            message=payload["message"],
            end_line=payload["end_line"],
        )


class FileContext:
    """One file's parse state, shared by every rule that inspects it."""

    def __init__(self, path: str | Path, source: str, tree: ast.Module):
        self.path = Path(path)
        self.display = str(path)
        self.source = source
        self.tree = tree

    @cached_property
    def is_library(self) -> bool:
        """Whether this file belongs to the installable library.

        Library-only rules (seeded-RNG, error-taxonomy, wall-clock
        discipline) apply to ``src/repro`` but not to tests or
        benchmarks, which may legitimately raise builtins or read the
        clock.
        """
        return "src/repro" in self.path.as_posix()

    @cached_property
    def imports(self) -> ImportMap:
        return ImportMap.from_tree(self.tree)

    def violation(
        self, rule: "Rule | str", node: ast.AST, message: str
    ) -> Violation:
        """Build a violation anchored at ``node``."""
        rule_id = rule if isinstance(rule, str) else rule.id
        return Violation(
            path=self.display,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=rule_id,
            message=message,
            end_line=getattr(node, "end_lineno", None) or getattr(node, "lineno", 1),
        )


class Rule:
    """Base class: one invariant, one ``RPRnnn`` identifier.

    Subclasses set the class attributes (used by ``--list-rules``, the
    docs and the JSON output) and implement :meth:`check`.
    """

    #: "RPRnnn" identifier, unique across the registry.
    id: ClassVar[str]
    #: Short kebab-case name, e.g. "seeded-rng".
    name: ClassVar[str]
    #: One-line description of what the rule flags.
    summary: ClassVar[str]
    #: The repo invariant the rule protects (shown by ``--list-rules``).
    invariant: ClassVar[str]
    #: Only inspect files under ``src/repro`` when True.
    library_only: ClassVar[bool] = False

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError

    def run(self, ctx: FileContext) -> Iterator[Violation]:
        """Apply scoping, then delegate to :meth:`check`."""
        if self.library_only and not ctx.is_library:
            return
        yield from self.check(ctx)


#: id -> rule class, populated by :func:`register_rule` at import time.
RULE_REGISTRY: dict[str, type[Rule]] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator: add ``cls`` to the registry, keyed by its id."""
    existing = RULE_REGISTRY.get(cls.id)
    if existing is not None and existing is not cls:
        raise ConfigurationError(f"duplicate rule id {cls.id}: {existing} vs {cls}")
    RULE_REGISTRY[cls.id] = cls
    return cls


def default_rules() -> list[Rule]:
    """One instance of every registered rule, in id order."""
    # Importing the package registers the built-in rules; this import is
    # intentionally lazy so base.py itself has no rule dependencies.
    import repro.analysis  # noqa: F401

    return [RULE_REGISTRY[rule_id]() for rule_id in sorted(RULE_REGISTRY)]

"""Import-aware name resolution for AST rules.

Rules match call sites by *canonical dotted name* --
``numpy.random.default_rng`` -- regardless of how the module spelled the
import (``import numpy as np``, ``from numpy import random as npr``,
``from numpy.random import default_rng``). :class:`ImportMap` records
what each local name binds to; :meth:`ImportMap.resolve` unwinds an
attribute chain back to that binding.

``from datetime import datetime`` maps the local ``datetime`` to the
canonical ``datetime.datetime``, so ``datetime.now()`` and
``datetime.datetime.now()`` both resolve to ``datetime.datetime.now``.

Relative imports and ``from x import *`` bind nothing: one file alone
cannot say what they name.
"""

from __future__ import annotations

import ast

__all__ = ["ImportMap"]

#: from-imports of these names resolve to a canonical class path, so the
#: two import spellings converge on one dotted name.
_CLASS_CANONICAL = {
    ("datetime", "datetime"): "datetime.datetime",
    ("datetime", "date"): "datetime.date",
}


class ImportMap:
    """Maps local names to the canonical dotted path they import."""

    def __init__(self, aliases: dict[str, str]):
        self.aliases = aliases

    @classmethod
    def from_tree(cls, tree: ast.Module) -> "ImportMap":
        aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        aliases[alias.asname] = alias.name
                    else:
                        # ``import numpy.random`` binds the top name only.
                        top = alias.name.split(".", 1)[0]
                        aliases[top] = top
            elif isinstance(node, ast.ImportFrom):
                if node.level or not node.module:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    canonical = _CLASS_CANONICAL.get(
                        (node.module, alias.name), f"{node.module}.{alias.name}"
                    )
                    aliases[alias.asname or alias.name] = canonical
        return cls(aliases)

    def resolve(self, node: ast.expr) -> str | None:
        """Canonical dotted name of ``node``, or None if not import-rooted.

        ``np.random.default_rng`` -> ``numpy.random.default_rng`` under
        ``import numpy as np``; a bare local name that was never
        imported resolves to None.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.aliases.get(node.id)
        if base is None:
            return None
        return ".".join([base, *reversed(parts)])

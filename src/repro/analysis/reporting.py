"""Lint report rendering: human text and machine JSON.

The JSON document is versioned and stable (violations in path/line/col
order, keys sorted), so CI can diff two runs or gate on
``.violations | length`` without worrying about ordering noise::

    {
      "version": 3,
      "files_checked": 170,
      "violations": [
        {"file": "src/repro/x.py", "line": 12, "col": 4,
         "rule": "RPR001", "message": "..."}
      ],
      "errors": [],
      "cache": {"hits": 168, "misses": 2},
      "baselined": 0
    }

Version 2 added the ``cache`` and ``baselined`` summary fields; version
3 dropped the per-violation ``call_path``, which only whole-program
rules filled.
"""

from __future__ import annotations

import json
from collections.abc import Sequence

from repro.analysis.base import Rule
from repro.analysis.engine import LintReport

__all__ = ["JSON_FORMAT_VERSION", "format_json", "format_rules", "format_text"]

#: Format marker for the JSON output document.
JSON_FORMAT_VERSION = 3


def format_text(report: LintReport) -> str:
    """``path:line:col: RPRnnn message`` lines plus a summary tail."""
    lines = [violation.format() for violation in report.violations]
    for error in report.errors:
        lines.append(f"error: {error}")
    n = len(report.violations)
    if report.errors:
        lines.append(f"{len(report.errors)} error(s) while linting")
    if n:
        files = len({v.path for v in report.violations})
        lines.append(
            f"{n} violation(s) in {files} file(s) "
            f"({report.files_checked} checked)"
        )
    else:
        lines.append(f"clean: {report.files_checked} file(s) checked")
    if report.baselined:
        lines.append(f"{report.baselined} pre-existing finding(s) baselined")
    if report.cache_hits or report.cache_misses:
        lines.append(
            f"incremental cache: {report.cache_hits} hit(s), "
            f"{report.cache_misses} miss(es)"
        )
    return "\n".join(lines)


def format_json(report: LintReport) -> str:
    """The versioned JSON document described in the module docstring."""
    payload = {
        "version": JSON_FORMAT_VERSION,
        "files_checked": report.files_checked,
        "violations": [
            {
                "file": violation.path,
                "line": violation.line,
                "col": violation.col,
                "rule": violation.rule,
                "message": violation.message,
            }
            for violation in report.violations
        ],
        "errors": list(report.errors),
        "cache": {"hits": report.cache_hits, "misses": report.cache_misses},
        "baselined": report.baselined,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def format_rules(rules: Sequence[Rule]) -> str:
    """The ``--list-rules`` table: id, name, scope, invariant."""
    lines = []
    for rule in rules:
        scope = "src/repro" if rule.library_only else "all code"
        lines.append(f"{rule.id}  {rule.name}  [{scope}]")
        lines.append(f"    flags: {rule.summary}")
        lines.append(f"    protects: {rule.invariant}")
    return "\n".join(lines)

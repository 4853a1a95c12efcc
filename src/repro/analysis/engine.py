"""The ``reprolint`` engine: file collection, pragmas, rule dispatch.

:func:`lint_paths` walks the given files/directories in sorted order,
parses each ``*.py`` once and runs every applicable rule over the
shared :class:`~repro.analysis.base.FileContext`. Each file is decided
on its own. Per-line suppression pragmas apply::

    rng = np.random.default_rng()  # repro: allow[RPR001] -- caller seeds later

A pragma names one or more rules (``allow[RPR002,RPR003]``) and
suppresses matching violations whose flagged statement covers the
pragma's line. A pragma that suppresses nothing is itself reported as
``RPR900`` (unused-suppression-pragma), so stale allowances cannot
accumulate.

With ``cache_path`` set, each file's result (its violations, RPR900
included, or its parse error) is cached keyed on content SHA-256 and
the active rule-set signature; a warm run re-parses only changed files
(:mod:`repro.analysis.cache`).

Exit-code semantics (:attr:`LintReport.exit_code`) are CI-ready:
0 clean, 1 violations found, 2 engine errors (unreadable or unparsable
input, or nothing to analyze).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.base import (
    UNUSED_PRAGMA_RULE,
    FileContext,
    Rule,
    Violation,
    default_rules,
)
from repro.analysis.cache import AnalysisCache, content_hash

__all__ = [
    "LintReport",
    "Pragma",
    "find_pragmas",
    "lint_paths",
    "lint_source",
    "rule_signature",
]

#: Bump to invalidate incremental caches when engine semantics change.
_ENGINE_CACHE_SALT = "reprolint-v3"

#: Matches suppression comments: allow[...] with one or more rule ids
#: and an optional ``-- justification`` tail.
_PRAGMA_RE = re.compile(r"repro:\s*allow\[\s*(RPR\d{3}(?:\s*,\s*RPR\d{3})*)\s*\]")


@dataclass(frozen=True)
class Pragma:
    """One suppression comment: the line it sits on and the rules it allows."""

    line: int
    rules: frozenset[str]


def find_pragmas(source: str) -> list[Pragma]:
    """Extract suppression pragmas from real comment tokens.

    Tokenising (rather than regexing raw lines) means pragma text inside
    string literals -- such as this engine's own docstrings and the
    linter's test fixtures -- is never misread as a live pragma.
    """
    pragmas: list[Pragma] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _PRAGMA_RE.search(token.string)
            if match:
                rules = frozenset(
                    rule.strip() for rule in match.group(1).split(",")
                )
                pragmas.append(Pragma(line=token.start[0], rules=rules))
    except tokenize.TokenError:
        pass  # a parse error is reported by the per-file pass
    return pragmas


@dataclass
class LintReport:
    """Aggregated lint outcome over a set of files."""

    violations: list[Violation] = field(default_factory=list)
    files_checked: int = 0
    errors: list[str] = field(default_factory=list)
    #: Incremental-cache counters (zero when no cache was used).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Findings suppressed by a ratchet baseline (set by the CLI layer).
    baselined: int = 0

    @property
    def exit_code(self) -> int:
        if self.errors:
            return 2
        return 1 if self.violations else 0

    def extend(self, other: "LintReport") -> None:
        self.violations.extend(other.violations)
        self.files_checked += other.files_checked
        self.errors.extend(other.errors)
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.baselined += other.baselined


def rule_signature(rules: Sequence[Rule]) -> str:
    """Cache signature: engine salt plus the active rule ids."""
    return f"{_ENGINE_CACHE_SALT};rules:{','.join(sorted(r.id for r in rules))}"


def _analyze_file(
    path: str | Path, source: str, rules: Sequence[Rule]
) -> tuple[str | None, list[Violation]]:
    """The per-file pass: ``(parse error, violations)`` for one source.

    Violations are what survives pragma suppression, plus one RPR900
    per pragma that suppressed nothing.
    """
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        return f"{path}:{error.lineno or 0}: syntax error: {error.msg}", []

    ctx = FileContext(path, source, tree)
    pragmas = find_pragmas(source)
    used: set[int] = set()
    violations: list[Violation] = []
    for violation in sorted(v for rule in rules for v in rule.run(ctx)):
        pragma = _matching_pragma(violation, pragmas)
        if pragma is not None:
            used.add(pragma.line)
        else:
            violations.append(violation)
    for pragma in pragmas:
        if pragma.line not in used:
            violations.append(
                Violation(
                    path=str(path),
                    line=pragma.line,
                    col=0,
                    rule=UNUSED_PRAGMA_RULE,
                    message=(
                        "suppression pragma allows "
                        f"[{', '.join(sorted(pragma.rules))}] but "
                        "suppresses nothing on this line -- remove it"
                    ),
                )
            )
    return None, violations


def _matching_pragma(
    violation: Violation, pragmas: Iterable[Pragma]
) -> Pragma | None:
    for pragma in pragmas:
        if (
            violation.rule in pragma.rules
            and violation.line <= pragma.line <= violation.end_line
        ):
            return pragma
    return None


def lint_source(
    source: str,
    path: str | Path,
    rules: Sequence[Rule] | None = None,
) -> LintReport:
    """Lint one in-memory source text as if it lived at ``path``."""
    active_rules = list(rules) if rules is not None else default_rules()
    report = LintReport(files_checked=1)
    error, violations = _analyze_file(path, source, active_rules)
    if error is not None:
        report.errors.append(error)
    report.violations.extend(violations)
    report.violations.sort()
    return report


def collect_files(paths: Sequence[str | Path]) -> tuple[list[Path], list[str]]:
    """Expand files/directories into a sorted, deduplicated ``*.py`` list."""
    files: list[Path] = []
    errors: list[str] = []
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.is_file():
            candidates = [path]
        else:
            errors.append(f"{path}: no such file or directory")
            continue
        for candidate in candidates:
            if candidate.suffix == ".py" and candidate not in seen:
                seen.add(candidate)
                files.append(candidate)
    return files, errors


def lint_paths(
    paths: Sequence[str | Path],
    rules: Sequence[Rule] | None = None,
    cache_path: str | Path | None = None,
) -> LintReport:
    """Lint every ``*.py`` under ``paths`` and aggregate one report."""
    active_rules = list(rules) if rules is not None else default_rules()
    files, errors = collect_files(paths)
    report = LintReport(errors=errors)
    if not files:
        report.errors.append(
            "0 files analyzed: no Python files found under "
            + ", ".join(str(p) for p in paths)
        )
        return report

    cache: AnalysisCache | None = None
    if cache_path is not None:
        cache = AnalysisCache.load(cache_path, rule_signature(active_rules))

    for file in files:
        try:
            source = file.read_text(encoding="utf-8")
        except OSError as error:
            report.errors.append(f"{file}: {error}")
            continue
        report.files_checked += 1
        digest = content_hash(source) if cache is not None else ""
        entry = cache.lookup(file, digest) if cache is not None else None
        if entry is not None:
            parse_error = entry["error"]
            violations = [Violation.from_payload(v) for v in entry["violations"]]
        else:
            parse_error, violations = _analyze_file(file, source, active_rules)
            if cache is not None:
                cache.store(
                    file,
                    digest,
                    {
                        "error": parse_error,
                        "violations": [v.to_payload() for v in violations],
                    },
                )
        if parse_error is not None:
            report.errors.append(parse_error)
        report.violations.extend(violations)

    if cache is not None:
        report.cache_hits = cache.hits
        report.cache_misses = cache.misses
        cache.save()
    report.violations.sort()
    return report

"""``repro.analysis`` -- reprolint, the repo's invariant linter.

An AST-based static-analysis pass with repo-specific rules: the
determinism, error-taxonomy and telemetry invariants that keep the
paper's numbers reproducible used to live in commit messages; this
package makes them machine-checked. Run it as ``repro lint`` or through
:func:`lint_paths`.

Rules
-----
========  =======================  ==================================
RPR001    seeded-rng               RNG without an explicit seed
RPR002    ordered-accumulation     float sums over unordered iterables
RPR003    wall-clock               wall-clock reads / cache-key purity
RPR004    error-taxonomy           bare builtin raises in the library
RPR005    with-only                spans/samplers not entered via ``with``
RPR006    picklable-spec           unpicklable process-pool specs
RPR008    unbounded-wait           executor waits without a timeout
RPR009    eventlog-progress        console writes in the sweep machinery
RPR010    profile-artifact-mutation  in-place writes to ``.profiles``
RPR900    unused-pragma            stale ``repro: allow[...]`` comment
========  =======================  ==================================

Every rule decides one file at a time. Row-level reproducibility across
modules and processes (serial vs ``--jobs``, resume vs fresh, replay
digests) is held by the parity tests, not by the linter.

Suppress a violation with a justified pragma on the flagged line::

    record = {"ts": time.time()}  # repro: allow[RPR003] -- event timestamp

The package is intentionally stdlib-only (``ast`` + ``tokenize``), so
``repro lint`` runs in any environment that can parse the code, before
heavyweight dependencies are even importable.
"""

from repro.analysis.base import (
    RULE_REGISTRY,
    FileContext,
    Rule,
    Violation,
    default_rules,
    register_rule,
)
from repro.analysis.engine import LintReport, find_pragmas, lint_paths, lint_source
from repro.analysis.reporting import (
    JSON_FORMAT_VERSION,
    format_json,
    format_rules,
    format_text,
)

# Importing the rule modules registers the built-in rule set.
from repro.analysis import rules_determinism  # noqa: E402,F401  isort: skip
from repro.analysis import rules_taxonomy  # noqa: E402,F401  isort: skip
from repro.analysis import rules_telemetry  # noqa: E402,F401  isort: skip
from repro.analysis import rules_pickle  # noqa: E402,F401  isort: skip
from repro.analysis import rules_concurrency  # noqa: E402,F401  isort: skip
from repro.analysis import rules_progress  # noqa: E402,F401  isort: skip
from repro.analysis import rules_profiles  # noqa: E402,F401  isort: skip

__all__ = [
    "JSON_FORMAT_VERSION",
    "RULE_REGISTRY",
    "FileContext",
    "LintReport",
    "Rule",
    "Violation",
    "default_rules",
    "find_pragmas",
    "format_json",
    "format_rules",
    "format_text",
    "lint_paths",
    "lint_source",
    "register_rule",
]

"""The linter's own acceptance gate: this repository lints clean.

If a change introduces a new violation, this test fails with the exact
``path:line:col: RPRnnn`` lines, the same output CI shows.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import lint_paths
from repro.analysis.reporting import format_text

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("tree", ["src", "benchmarks", "tests"])
def test_tree_lints_clean(tree):
    report = lint_paths([REPO_ROOT / tree])
    assert report.exit_code == 0, "\n" + format_text(report)


def test_full_repo_lint_checks_every_python_file():
    report = lint_paths([REPO_ROOT / t for t in ("src", "benchmarks", "tests")])
    assert report.exit_code == 0, "\n" + format_text(report)
    assert report.files_checked >= 150

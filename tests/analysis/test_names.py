"""Name-resolution edge cases: a rule that matches canonical names is
only as good as these. Aliased imports must canonicalise; relative and
star imports must bind nothing rather than a wrong name.
"""

from __future__ import annotations

import ast

from repro.analysis.names import ImportMap


def resolve(source: str, expr: str) -> str | None:
    imports = ImportMap.from_tree(ast.parse(source))
    node = ast.parse(expr, mode="eval").body
    return imports.resolve(node)


class TestAliasedImports:
    def test_import_as(self):
        assert (
            resolve("import numpy as np", "np.random.default_rng")
            == "numpy.random.default_rng"
        )

    def test_import_submodule_as(self):
        assert (
            resolve("import numpy.random as npr", "npr.default_rng")
            == "numpy.random.default_rng"
        )

    def test_from_import_as(self):
        assert (
            resolve("from numpy import random as npr", "npr.default_rng")
            == "numpy.random.default_rng"
        )

    def test_plain_submodule_import_binds_top_name(self):
        assert (
            resolve("import numpy.random", "numpy.random.default_rng")
            == "numpy.random.default_rng"
        )

    def test_unimported_name_is_none(self):
        assert resolve("import numpy as np", "pd.DataFrame") is None


class TestStarImports:
    def test_star_import_binds_no_alias(self):
        imports = ImportMap.from_tree(ast.parse("from repro.core import *\n"))
        assert imports.aliases == {}


class TestRelativeImports:
    def test_relative_import_without_module_context_is_skipped(self):
        assert resolve("from .stages import artifact_key", "artifact_key") is None


class TestReexportThroughInit:
    """The per-file map canonicalises the import of a *package* name."""

    def test_from_package_import_binds_package_path(self):
        assert (
            resolve("from repro.analysis import lint_paths", "lint_paths")
            == "repro.analysis.lint_paths"
        )

    def test_datetime_class_canonicalisation(self):
        assert (
            resolve("from datetime import datetime", "datetime.now")
            == "datetime.datetime.now"
        )

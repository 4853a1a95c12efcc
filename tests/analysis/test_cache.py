"""The incremental analysis cache: warm runs re-analyze only changes."""

from __future__ import annotations

import json
import textwrap

from repro.analysis.cache import AnalysisCache, content_hash
from repro.analysis.engine import lint_paths

TREE = {
    "src/repro/__init__.py": "",
    "src/repro/alpha.py": """
        import time
        def stamp():
            return time.time()  # repro: allow[RPR003] -- fixture timestamp
        """,
    "src/repro/beta.py": """
        def double(x):
            return 2 * x  # repro: allow[RPR002] -- stale
        """,
    "src/repro/gamma.py": """
        from repro.beta import double
        def quadruple(x):
            return double(double(x))
        """,
}


def write_tree(tmp_path, files=TREE):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return tmp_path / "src"


class TestWarmRuns:
    def test_cold_run_misses_warm_run_hits(self, tmp_path):
        root = write_tree(tmp_path)
        cache_file = tmp_path / "cache.json"
        cold = lint_paths([root], cache_path=cache_file)
        assert cold.cache_hits == 0
        assert cold.cache_misses == 4
        warm = lint_paths([root], cache_path=cache_file)
        assert warm.cache_hits == 4
        assert warm.cache_misses == 0
        assert warm.violations == cold.violations
        assert [v.rule for v in warm.violations] == ["RPR900"]
        assert warm.exit_code == cold.exit_code

    def test_touching_one_file_reanalyzes_only_it(self, tmp_path):
        root = write_tree(tmp_path)
        cache_file = tmp_path / "cache.json"
        lint_paths([root], cache_path=cache_file)
        beta = root / "repro" / "beta.py"
        beta.write_text(beta.read_text() + "\nTWO = 2\n")
        warm = lint_paths([root], cache_path=cache_file)
        assert warm.cache_misses == 1
        assert warm.cache_hits == 3

    def test_rule_set_change_invalidates_cache(self, tmp_path):
        root = write_tree(tmp_path)
        cache_file = tmp_path / "cache.json"
        lint_paths([root], cache_path=cache_file)
        warm = lint_paths([root], rules=[], cache_path=cache_file)
        assert warm.cache_hits == 0

    def test_corrupt_cache_is_ignored(self, tmp_path):
        root = write_tree(tmp_path)
        cache_file = tmp_path / "cache.json"
        cache_file.write_text("{not json")
        report = lint_paths([root], cache_path=cache_file)
        assert report.cache_misses == 4
        # ... and the run rewrote it into a valid document.
        assert json.loads(cache_file.read_text())["version"] == 1


class TestAnalysisCacheUnit:
    def test_lookup_counts_hits_and_misses(self, tmp_path):
        cache = AnalysisCache(tmp_path / "c.json", signature="sig")
        digest = content_hash("x = 1\n")
        assert cache.lookup("a.py", digest) is None
        cache.store("a.py", digest, {"violations": []})
        assert cache.lookup("a.py", digest) == {
            "violations": [],
            "hash": digest,
        }
        assert cache.lookup("a.py", content_hash("x = 2\n")) is None
        assert cache.hits == 1
        assert cache.misses == 2

    def test_signature_mismatch_loads_empty(self, tmp_path):
        path = tmp_path / "c.json"
        cache = AnalysisCache(path, signature="old")
        cache.store("a.py", "h", {})
        cache.save()
        reloaded = AnalysisCache.load(path, signature="new")
        assert reloaded.files == {}

"""The ``repro lint`` subcommand: exit codes, output formats, rule
selection/ignoring, baselines and the rule catalogue."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError


@pytest.fixture()
def dirty_tree(tmp_path):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "dirty.py").write_text(
        'import time\nstamp = time.time()\nraise ValueError("x")\n'
    )
    return tmp_path


class TestLintCommand:
    def test_clean_directory_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main(["lint", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violations_exit_one_with_locations(self, dirty_tree, capsys):
        assert main(["lint", str(dirty_tree)]) == 1
        out = capsys.readouterr().out
        assert "RPR003" in out
        assert "RPR004" in out
        assert "dirty.py:2:8" in out

    def test_missing_path_exits_two(self, tmp_path):
        assert main(["lint", str(tmp_path / "missing")]) == 2

    def test_json_format(self, dirty_tree, capsys):
        assert main(["lint", str(dirty_tree), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 3
        assert [v["rule"] for v in payload["violations"]] == ["RPR003", "RPR004"]

    def test_select_restricts_rules(self, dirty_tree, capsys):
        assert main(["lint", str(dirty_tree), "--select", "RPR004"]) == 1
        out = capsys.readouterr().out
        assert "RPR004" in out
        assert "RPR003" not in out

    def test_select_on_a_clean_tree_exits_zero(self, tmp_path, capsys):
        # The pragma suppresses a real RPR003 finding. A run that leaves
        # RPR003 out cannot judge it, so it is not reported as stale.
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "clock.py").write_text(
            "import time\n"
            "stamp = time.time()  # repro: allow[RPR003] -- wall clock by design\n"
        )
        for selection in (["--select", "RPR004"], ["--select", "RPR001", "RPR003"],
                          ["--ignore", "RPR003"], []):
            assert main(["lint", str(tmp_path), *selection]) == 0, selection
            assert "clean" in capsys.readouterr().out

    def test_select_still_reports_pragmas_for_unknown_rules(self, tmp_path, capsys):
        stale = tmp_path / "stale.py"
        stale.write_text("x = 1  # repro: allow[RPR012] -- a rule that no longer exists\n")
        assert main(["lint", str(stale), "--select", "RPR004"]) == 1
        assert "RPR900" in capsys.readouterr().out

    def test_select_unknown_rule_rejected(self, dirty_tree):
        with pytest.raises(SystemExit):
            main(["lint", str(dirty_tree), "--select", "RPR999"])

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines() if line.startswith("RPR")]
        assert listed == ["RPR001", "RPR002", "RPR003", "RPR004", "RPR005",
                          "RPR006", "RPR008", "RPR009", "RPR010"]


class TestIgnoreFlag:
    def test_ignore_drops_rule(self, dirty_tree, capsys):
        assert main(["lint", str(dirty_tree), "--ignore", "RPR003"]) == 1
        out = capsys.readouterr().out
        assert "RPR004" in out
        assert "RPR003" not in out

    def test_ignore_accepts_comma_list(self, dirty_tree, capsys):
        assert main(
            ["lint", str(dirty_tree), "--ignore", "RPR003,RPR004"]
        ) == 0
        assert "clean" in capsys.readouterr().out

    def test_ignore_unknown_rule_rejected(self, dirty_tree):
        with pytest.raises(SystemExit):
            main(["lint", str(dirty_tree), "--ignore", "RPR999"])

    def test_rpr900_is_ignorable_but_not_selectable(self, tmp_path, capsys):
        # A pragma that suppresses nothing is RPR900; --ignore RPR900
        # drops it, while --select RPR900 stays invalid (the engine
        # synthesizes it, no registered rule runs it).
        stale = tmp_path / "stale.py"
        stale.write_text(
            "x = 1  # repro: allow[RPR003] -- nothing here reads the clock\n"
        )
        assert main(["lint", str(stale)]) == 1
        assert "RPR900" in capsys.readouterr().out
        assert main(["lint", str(stale), "--ignore", "RPR900"]) == 0
        assert "clean" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["lint", str(stale), "--select", "RPR900"])

    def test_select_and_ignore_conflict(self, dirty_tree):
        with pytest.raises(ConfigurationError, match="RPR003"):
            main(
                ["lint", str(dirty_tree), "--select", "RPR003",
                 "--ignore", "RPR003"]
            )

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "exit codes" in out
        for marker in ("0 ", "1 ", "2 "):
            assert marker in out


class TestNoFilesAnalyzed:
    def test_empty_directory_exits_two_with_warning(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "README.md").write_text("no python here\n")
        assert main(["lint", str(empty)]) == 2
        out = capsys.readouterr().out
        assert "0 files analyzed" in out


class TestBaseline:
    def test_update_then_apply_suppresses_existing(self, dirty_tree, capsys):
        baseline = dirty_tree / "lint-baseline.json"
        assert main(
            ["lint", str(dirty_tree), "--baseline", str(baseline),
             "--update-baseline"]
        ) == 0
        capsys.readouterr()
        document = json.loads(baseline.read_text())
        assert document["version"] == 1
        assert {f["rule"] for f in document["findings"]} == {"RPR003", "RPR004"}

        assert main(["lint", str(dirty_tree), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "baselined" in out

    def test_new_finding_escapes_baseline(self, dirty_tree, capsys):
        baseline = dirty_tree / "lint-baseline.json"
        main(["lint", str(dirty_tree), "--baseline", str(baseline),
              "--update-baseline"])
        capsys.readouterr()
        dirty = dirty_tree / "src" / "repro" / "dirty.py"
        dirty.write_text(dirty.read_text() + "other = time.time()\n")
        assert main(["lint", str(dirty_tree), "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "RPR003" in out

    def test_baseline_survives_line_shifts(self, dirty_tree, capsys):
        baseline = dirty_tree / "lint-baseline.json"
        main(["lint", str(dirty_tree), "--baseline", str(baseline),
              "--update-baseline"])
        capsys.readouterr()
        dirty = dirty_tree / "src" / "repro" / "dirty.py"
        dirty.write_text("# a new comment line\n" + dirty.read_text())
        assert main(["lint", str(dirty_tree), "--baseline", str(baseline)]) == 0

    def test_update_baseline_requires_baseline_path(self, dirty_tree):
        with pytest.raises(ConfigurationError):
            main(["lint", str(dirty_tree), "--update-baseline"])


class TestIncrementalCache:
    def test_cache_flag_writes_cache_file(self, dirty_tree, capsys, monkeypatch):
        monkeypatch.chdir(dirty_tree)
        cache = dirty_tree / "cache.json"
        main(["lint", str(dirty_tree), "--cache", str(cache)])
        capsys.readouterr()
        assert cache.exists()
        main(["lint", str(dirty_tree), "--cache", str(cache)])
        out = capsys.readouterr().out
        assert "1 hit(s)" in out

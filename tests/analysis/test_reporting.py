"""Output formats: the versioned JSON document, text rendering and the
--list-rules catalogue."""

from __future__ import annotations

import json

from repro.analysis import lint_source
from repro.analysis.base import default_rules
from repro.analysis.reporting import (
    JSON_FORMAT_VERSION,
    format_json,
    format_rules,
    format_text,
)

LIB_PATH = "src/repro/fake_module.py"
DIRTY = 'import time\nstamp = time.time()\nraise ValueError("x")\n'


class TestJson:
    def test_document_schema(self):
        payload = json.loads(format_json(lint_source(DIRTY, LIB_PATH)))
        assert set(payload) == {
            "version",
            "files_checked",
            "violations",
            "errors",
            "cache",
            "baselined",
        }
        assert payload["version"] == JSON_FORMAT_VERSION
        assert payload["files_checked"] == 1
        assert payload["errors"] == []
        assert payload["cache"] == {"hits": 0, "misses": 0}
        assert payload["baselined"] == 0
        for violation in payload["violations"]:
            assert set(violation) == {
                "file",
                "line",
                "col",
                "rule",
                "message",
            }
        assert [v["rule"] for v in payload["violations"]] == ["RPR003", "RPR004"]
        assert payload["violations"][0]["file"] == LIB_PATH
        assert payload["violations"][0]["line"] == 2

    def test_clean_report(self):
        payload = json.loads(format_json(lint_source("x = 1\n", LIB_PATH)))
        assert payload["violations"] == []

    def test_errors_included(self):
        payload = json.loads(format_json(lint_source("def f(:\n", LIB_PATH)))
        assert len(payload["errors"]) == 1


class TestText:
    def test_violation_lines_and_summary(self):
        text = format_text(lint_source(DIRTY, LIB_PATH))
        assert f"{LIB_PATH}:2:8: RPR003" in text
        assert f"{LIB_PATH}:3:0: RPR004" in text
        assert "2 violation(s) in 1 file(s)" in text

    def test_clean_summary(self):
        text = format_text(lint_source("x = 1\n", LIB_PATH))
        assert "clean" in text


class TestListRules:
    def test_every_rule_described(self):
        catalogue = format_rules(default_rules())
        for rule in default_rules():
            assert rule.id in catalogue
            assert rule.name in catalogue

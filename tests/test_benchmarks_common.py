"""Tests for the figure benches' shared knobs (``benchmarks/_common.py``)."""

from __future__ import annotations

import pytest

import benchmarks._common as bench_common
from repro.errors import ConfigurationError

TRIALS_ENV = "REPRO_BENCH_TRIALS"


class TestTrialsKnob:
    def test_defaults_to_one_round(self, monkeypatch):
        monkeypatch.delenv(TRIALS_ENV, raising=False)
        assert bench_common.bench_trials() == 1

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv(TRIALS_ENV, "4")
        assert bench_common.bench_trials() == 4

    def test_reads_the_env_on_every_call(self, monkeypatch):
        monkeypatch.delenv(TRIALS_ENV, raising=False)
        assert bench_common.bench_trials() == 1
        monkeypatch.setenv(TRIALS_ENV, "4")
        assert bench_common.bench_trials() == 4

    @pytest.mark.parametrize("bad", ["zero-ish", "0", "-3"])
    def test_invalid_values_rejected(self, monkeypatch, bad):
        monkeypatch.setenv(TRIALS_ENV, bad)
        with pytest.raises(ConfigurationError):
            bench_common.bench_trials()

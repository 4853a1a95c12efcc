"""The exception taxonomy contract enforced by reprolint rule RPR004."""

from __future__ import annotations

import pytest

from repro.errors import (
    ConfigurationError,
    DataGenerationError,
    EmptyCorpusError,
    NotFittedError,
    PersistenceError,
    ReproError,
    SamplingWeightsError,
    ValidationError,
)

ALL_ERRORS = [
    ConfigurationError,
    DataGenerationError,
    EmptyCorpusError,
    NotFittedError,
    PersistenceError,
    SamplingWeightsError,
    ValidationError,
]


@pytest.mark.parametrize("exc_type", ALL_ERRORS)
def test_every_library_error_is_a_repro_error(exc_type):
    assert issubclass(exc_type, ReproError)


@pytest.mark.parametrize("exc_type", [ValidationError, PersistenceError])
def test_builtin_replacements_keep_value_error_compat(exc_type):
    # Pre-taxonomy call sites wrote `except ValueError`; the replacement
    # types inherit the builtin so those call sites still work.
    assert issubclass(exc_type, ValueError)
    with pytest.raises(ValueError):
        raise exc_type("compat")


def test_taxonomy_catchable_as_one_family():
    with pytest.raises(ReproError):
        raise ValidationError("caught as family")

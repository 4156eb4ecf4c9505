"""Unit tests for the exception hierarchy."""

import pytest

from repro import errors


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for exc in (
            errors.ConfigurationError,
            errors.PartitioningError,
            errors.CompilationError,
            errors.ProgramValidationError,
            errors.ExecutionError,
            errors.ResourceExhaustedError,
            errors.CalibrationError,
        ):
            assert issubclass(exc, errors.ReproError)

    def test_errors_are_catchable_as_base(self):
        with pytest.raises(errors.ReproError):
            raise errors.CompilationError("boom")

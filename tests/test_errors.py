"""Every library error derives from the common base for exit-code mapping."""

import inspect

import pytest

from rtq import errors


def test_all_errors_share_the_base():
    members = [
        obj for _, obj in inspect.getmembers(errors, inspect.isclass)
        if issubclass(obj, Exception) and obj is not errors.RtqError
    ]
    assert {cls.__name__ for cls in members} == {
        "AssumptionViolation", "BadParam", "InsufficientData", "InversionError",
        "NoConvergence", "NotApplicable", "OverflowGuard", "QuadratureFailure",
        "RecursionDepthExceeded", "Unstable", "WindowTooNoisy",
    }
    for cls in members:
        assert issubclass(cls, errors.RtqError)


def test_errors_carry_messages():
    with pytest.raises(errors.RtqError, match="boom"):
        raise errors.QuadratureFailure("boom")

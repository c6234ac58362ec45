"""Shared test setup."""

import pytest

from itmflow import StepControl


@pytest.fixture
def tight_control():
    """Step control tight enough to serve as a finite-difference oracle base."""
    return StepControl(abs_tol=1e-11, rel_tol=1e-11)

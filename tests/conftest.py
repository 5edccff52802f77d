import numpy as np
import pytest

from itpencil import MediumProfile, PencilKind, solve_spectrum


def pytest_configure(config):
    # a real array that silently drops an imaginary part fails the run;
    # numpy < 1.25 has no numpy.exceptions and keeps the class at top level
    warning = getattr(np, "exceptions", np).ComplexWarning
    config.addinivalue_line("filterwarnings", f"error::{warning.__module__}.{warning.__name__}")


@pytest.fixture(scope="session")
def h1_solution():
    """Helmholtz q=1 clamped solve on the reference grid, shared across tests."""
    profile = MediumProfile.constant(PencilKind.HELMHOLTZ, 1.0)
    return solve_spectrum(profile, 0.0, 1.0, 96, (0, 1))

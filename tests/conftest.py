import numpy as np
import pytest

from itpencil import MediumProfile, PencilKind, cli, solve_spectrum
from itpencil._blas import lapack


def pytest_configure(config):
    # a real array that silently drops an imaginary part fails the run;
    # numpy < 1.25 has no numpy.exceptions and keeps the class at top level
    warning = getattr(np, "exceptions", np).ComplexWarning
    config.addinivalue_line("filterwarnings", f"error::{warning.__module__}.{warning.__name__}")


@pytest.fixture(autouse=True)
def _no_stored_solve():
    """Each test starts with no stored CLI solve, so a test that patches a step
    of the solve cannot be handed a solution that an earlier test stored."""
    cli._stored_solve.cache_clear()


@pytest.fixture(scope="session")
def h1_solution():
    """Helmholtz q=1 clamped solve on the reference grid, shared across tests."""
    profile = MediumProfile.constant(PencilKind.HELMHOLTZ, 1.0)
    return solve_spectrum(profile, 0.0, 1.0, 96, (0, 1))


@pytest.fixture
def getrf_calls(monkeypatch):
    """Counts LAPACK getrf calls made through the binding after set-up."""
    calls = []
    routines = lapack().routines
    for name in ("dgetrf", "zgetrf"):

        def counted(*args, getrf=routines[name]):
            calls.append(1)
            return getrf(*args)

        monkeypatch.setitem(routines, name, counted)
    return calls

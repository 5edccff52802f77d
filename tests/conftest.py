import numpy as np
import pytest
import scipy.linalg

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


@pytest.fixture
def getrf_calls(monkeypatch):
    """Counts LAPACK getrf calls made through get_lapack_funcs after set-up."""
    calls = []
    get_funcs = scipy.linalg.lapack.get_lapack_funcs

    def counted_funcs(names, arrays=()):
        funcs = list(get_funcs(names, arrays))
        if "getrf" in names:
            i = list(names).index("getrf")
            getrf = funcs[i]

            def counted(*args, **kwargs):
                calls.append(1)
                return getrf(*args, **kwargs)

            funcs[i] = counted
        return funcs

    monkeypatch.setattr(scipy.linalg.lapack, "get_lapack_funcs", counted_funcs)
    return calls

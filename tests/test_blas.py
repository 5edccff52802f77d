"""The one-BLAS-thread policy of the public numerical entry points."""

import sys
import threading

import numpy as np
import pytest
import scipy

from itpencil._blas import openblas_controls, single_blas_thread
from itpencil.discretize import DiscretePencil
from itpencil.exceptions import PoleOnRayError
from itpencil.resolvent import ray_scan

CALLER_THREADS = 2


def _counts():
    return [get() for get, _put in openblas_controls()]


@single_blas_thread
def _counts_inside():
    return _counts()


@pytest.fixture
def caller_threads():
    """Every loaded OpenBLAS at CALLER_THREADS for the test, then as before."""
    before = _counts()
    for _get, put in openblas_controls():
        put(CALLER_THREADS)
    assert _counts() == [CALLER_THREADS] * len(before)
    yield CALLER_THREADS
    for (_get, put), count in zip(openblas_controls(), before):
        put(count)


def _scalar(a0, a1, a2):
    return DiscretePencil.from_matrices(
        np.array([[a0]], dtype=complex),
        np.array([[a1]], dtype=complex),
        np.array([[a2]], dtype=complex),
    )


def _names_openblas(show_config):
    try:
        blas = show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older releases print their config instead
        pytest.skip("build configuration not available as a dict")
    return "openblas" in blas.get("name", "").lower()


def test_openblas_is_found_when_numpy_uses_it():
    # a failed symbol lookup must not turn the policy into a silent no-op;
    # itpencil itself never loads scipy's OpenBLAS, so load it here, after a scan
    openblas_controls()
    import scipy.linalg  # noqa: F401

    expected = sum(_names_openblas(mod.show_config) for mod in (np, scipy))
    if expected == 0:
        pytest.skip("neither numpy nor scipy is built on OpenBLAS")
    assert len(openblas_controls()) >= expected


def test_one_thread_inside_a_decorated_call(caller_threads):
    ones = [1] * len(openblas_controls())
    assert _counts_inside() == ones
    # a nested call leaves its outer call at one thread
    outer = single_blas_thread(lambda: (_counts_inside(), _counts()))
    assert outer() == (ones, ones)


def test_caller_count_restored_after_return(caller_threads):
    scan = ray_scan(_scalar(1.0, 1.0, 1.0), 1.0, np.geomspace(10.0, 1000.0, 5))
    assert np.all(np.isfinite(scan.norms))
    assert _counts() == [caller_threads] * len(openblas_controls())


def test_caller_count_restored_after_raise(caller_threads):
    with pytest.raises(PoleOnRayError):
        ray_scan(_scalar(-50.0, -49.0, 1.0), 1.0, np.array([10.0, 50.0, 100.0]))  # root 50
    assert _counts() == [caller_threads] * len(openblas_controls())


def test_concurrent_calls_keep_one_thread_and_restore(caller_threads):
    # the count is process-wide: while any decorated call runs it stays 1,
    # and the last call to leave restores the caller's count
    seen, errors = [], []
    start = threading.Barrier(4)

    def worker():
        try:
            start.wait(timeout=10)
            for _ in range(2000):
                seen.extend(_counts_inside())
        except Exception as exc:  # reported below, a worker must not die silently
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker) for _ in range(4)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert not errors
    assert set(seen) <= {1}
    assert _counts() == [caller_threads] * len(openblas_controls())

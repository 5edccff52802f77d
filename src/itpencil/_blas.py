"""One OpenBLAS per process, at one thread for the duration of a public call.

Every dense kernel itpencil runs is pencil-sized (at most a few hundred
rows), where OpenBLAS's thread hand-off costs more than a second thread
gains, and the thread count changes the last bits of some results.
``single_blas_thread`` sets every loaded OpenBLAS to one thread while any
decorated call runs and restores the caller's counts when the outermost one
returns or raises.  The count is process-wide, so the call depth is too:
another thread that calls BLAS meanwhile also runs single-threaded.  Without
OpenBLAS (MKL, Accelerate) or without /proc/self/maps it does nothing.

``lapack`` binds the LAPACK routines numpy does not wrap (LU, Schur form)
from numpy's OpenBLAS by ctypes, so scipy's is never loaded; where numpy has
none they bind from scipy's LAPACK on first use, its OpenBLAS pinned at once.
"""

import ctypes
import functools
import re
import sys
import threading

import numpy as np

_lock = threading.Lock()
_depth = 0  # decorated calls running in this process
_saved = []  # (set function, caller's count) per library, taken by the outermost call
_scan = (-1, ())  # (len(sys.modules) at the last read of /proc/self/maps, controls found)


def _openblas_paths():
    try:
        with open("/proc/self/maps") as fh:
            return sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    except OSError:
        return []


@functools.cache
def _library(path):
    try:
        return ctypes.CDLL(path)
    except OSError:
        return None


@functools.cache
def _controls(path):
    """(get, set) thread-count functions of the OpenBLAS at path, or None; the
    names threadpoolctl looks up, with an optional prefix and ``64_`` suffix."""
    lib = _library(path)
    for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                 "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
        get, put = (getattr(lib, name.format(op), None) for op in ("get", "set"))
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


def openblas_controls():
    """(get, set) thread-count functions of every loaded OpenBLAS library,
    found again when a module import (which loads libraries) has happened."""
    global _scan
    modules = len(sys.modules)
    if _scan[0] != modules:
        _scan = (modules, tuple(filter(None, map(_controls, _openblas_paths()))))
    return _scan[1]


def _pin_unsaved():
    """Set each loaded OpenBLAS not in _saved to one thread, saving its count."""
    known = {id(put) for put, _count in _saved}
    for get, put in openblas_controls():
        if id(put) not in known:
            _saved.append((put, get()))
            if _saved[-1][1] != 1:
                put(1)


def single_blas_thread(fn):
    """Run ``fn`` with every loaded OpenBLAS at one thread (see module docstring)."""

    @functools.wraps(fn)
    def one_thread(*args, **kwargs):
        global _depth
        with _lock:
            if _depth == 0:
                _saved.clear()
                _pin_unsaved()
            _depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            with _lock:
                _depth -= 1
                if _depth == 0:
                    for put, count in _saved:
                        if count != 1:
                            put(count)

    return one_thread


# pointer arguments and hidden CHARACTER lengths of each routine
_ROUTINES = {"dgetrf": (6, 0), "zgetrf": (6, 0), "dgetri": (7, 0), "zgetri": (7, 0),
             "zgees": (15, 2), "ztrsen": (15, 2)}


def _address(a):
    """Data address of a 1-D or Fortran-order array, cheaper than a.ctypes.data."""
    return ctypes.addressof(ctypes.c_char.from_buffer(a.T))


def _square_copy(A, dtype):
    """A Fortran-order copy of the square matrix A, the only shape the routines take."""
    a = np.array(A, dtype, order="F")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, not shape {a.shape}")
    return a


class Lapack:
    """The routines of one LAPACK, every argument passed by address: routine(name)
    is what a ctypes prototype takes, integer the numpy type of INTEGER and LOGICAL."""

    def __init__(self, routine, integer):
        self.integer = integer
        self.routines = {name: ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * ptrs,
                                                *[ctypes.c_size_t] * chars)(routine(name))
                         for name, (ptrs, chars) in _ROUTINES.items()}
        self._lwork = {}  # (routine, order) -> optimal LWORK

    def _scalars(self, *values):
        """An INTEGER array of the values and the address of each entry."""
        ints = np.array(values, self.integer)
        return ints, [_address(ints) + k * ints.itemsize for k in range(len(values))]

    def _work(self, key, ints, k, call):
        """WORK for call(WORK address), LWORK = ints[k] set to its size, queried once per key."""
        if key not in self._lwork:
            ints[k] = -1
            probe = np.zeros(1, np.complex128)  # a real routine writes the real part
            call(_address(probe))
            self._lwork[key] = max(1, int(probe[0].real))
        ints[k] = self._lwork[key]
        return np.empty(ints[k], np.complex128)

    def lu_inverse(self, X):
        """X^{-1} by getrf then getri on a Fortran-order float64 or complex128
        copy; LinAlgError on an exact zero pivot."""
        kind = "z" if X.dtype.kind == "c" else "d"
        a = _square_copy(X, np.complex128 if kind == "z" else np.float64)
        ipiv = np.empty(len(a), self.integer)
        ints, (n, lwork, info) = self._scalars(len(a), 0, 0)
        args = (n, _address(a), n, _address(ipiv))
        self.routines[kind + "getrf"](n, *args, info)
        if ints[2] == 0:
            def getri(work):
                self.routines[kind + "getri"](*args, work, lwork, info)
            work = self._work((kind, len(a)), ints, 1, getri)
            getri(_address(work))
        if ints[2] != 0:
            raise np.linalg.LinAlgError("Singular matrix")
        return a

    def sorted_schur(self, A, select):
        """(T, Z, sdim): the complex Schur form A = Z T Z^H with the sdim
        eigenvalues that select (a predicate on an array of them) accepts
        leading, as zgees with a sort computes it: zgees, then ztrsen."""
        t = _square_copy(A, np.complex128)
        w, z, rwork = np.empty(len(t), np.complex128), np.empty_like(t), np.empty(len(t))
        ints, (n, sdim, lwork, info) = self._scalars(len(t), 0, 0, 0)
        pt, pw, pz = _address(t), _address(w), _address(z)

        def gees(work):
            self.routines["zgees"](b"V", b"N", None, n, pt, n, sdim, pw, pz, n, work, lwork,
                                   _address(rwork), None, info, 1, 1)

        work = self._work(("zgees", len(t)), ints, 2, gees)
        gees(_address(work))
        if ints[3] != 0:
            raise np.linalg.LinAlgError("Schur form not found")
        keep = np.asarray(select(w), self.integer)
        sep = np.zeros(2)  # S and SEP, not computed for JOB = 'N'; the complex ztrsen cannot fail
        self.routines["ztrsen"](b"N", b"V", _address(keep), n, pt, n, pz, n, pw, sdim,
                                _address(sep), _address(sep[1:]), _address(work), lwork, info, 1, 1)
        return t, z, int(ints[1])


def _openblas_lapack():
    """The routines from the OpenBLAS numpy loaded, or None.  A wheel keeps it
    under numpy.libs or numpy/.dylibs, so that is tried first; names that end
    in ``_64_`` take 64-bit INTEGER and LOGICAL arguments."""
    for path in sorted(_openblas_paths(), key=lambda p: "numpy" not in p):
        lib = _library(path)
        for name, integer in (("scipy_{}_64_", np.int64), ("scipy_{}_", np.int32),
                              ("{}_64_", np.int64), ("{}_", np.int32)):
            if lib is not None and all(hasattr(lib, name.format(r)) for r in _ROUTINES):
                return Lapack(lambda r: (name.format(r), lib), integer)
    return None


def _scipy_lapack():
    """The routines from scipy's LAPACK, whose cython_lapack wrappers take C ints."""
    from scipy.linalg import cython_lapack

    with _lock:
        if _depth:
            _pin_unsaved()
    capsules, api = cython_lapack.__pyx_capi__, ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))
    return Lapack(lambda r: pointer(capsules[r], name(capsules[r])), np.intc)


@functools.cache
def lapack():
    """The LAPACK routines itpencil calls directly (see module docstring)."""
    return _openblas_lapack() or _scipy_lapack()

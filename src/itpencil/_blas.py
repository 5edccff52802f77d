"""One BLAS thread for the duration of a public numerical call.

Every dense kernel itpencil runs is pencil-sized (at most a few hundred
rows), where OpenBLAS's thread hand-off costs more than a second thread
gains, and the thread count changes the last bits of some results.
``single_blas_thread`` sets every loaded OpenBLAS to one thread while any
decorated call runs and restores the caller's counts when the outermost one
returns or raises.  The count is process-wide, so the call depth is too:
another thread that calls BLAS meanwhile also runs single-threaded.  Without
OpenBLAS (MKL, Accelerate) or without /proc/self/maps it does nothing.
"""

import ctypes
import functools
import re
import threading

_lock = threading.Lock()
_depth = 0  # decorated calls running in this process
_saved = []  # (set function, caller's count) per library, taken by the outermost call


@functools.cache
def openblas_controls():
    """(get, set) thread-count functions of every loaded OpenBLAS library.

    numpy and scipy wheels each bundle their own OpenBLAS.  Their functions
    carry a ``scipy_openblas_`` or ``openblas_`` prefix and a ``64_`` suffix
    or none: the names threadpoolctl looks up.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    except OSError:
        return ()
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get, put = (getattr(lib, name.format(op), None) for op in ("get", "set"))
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found.append((get, put))
                break
    return tuple(found)


def single_blas_thread(fn):
    """Run ``fn`` with every loaded OpenBLAS at one thread (see module docstring)."""

    @functools.wraps(fn)
    def one_thread(*args, **kwargs):
        global _depth
        with _lock:
            if _depth == 0:
                _saved[:] = [(put, get()) for get, put in openblas_controls()]
                for put, count in _saved:
                    if count != 1:
                        put(1)
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

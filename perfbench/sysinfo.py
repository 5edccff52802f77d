"""Environment record stored with every benchmark result."""

import ctypes
import os
import platform
import re
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _cpu_model():
    m = re.search(r"^model name\s*:\s*(.+)$", _read("/proc/cpuinfo"), re.M)
    return m.group(1).strip() if m else platform.processor() or "unknown"


def _caches():
    """Cache sizes of cpu0 by level, as the kernel reports them."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    if not base.is_dir():
        return out
    for idx in sorted(base.glob("index*")):
        level = _read(idx / "level").strip()
        kind = _read(idx / "type").strip()
        size = _read(idx / "size").strip()
        if level and size and kind != "Instruction":
            out[f"L{level}"] = size
    return out


def openblas_libraries():
    """(path, version string, current thread count) of each loaded OpenBLAS.

    numpy and scipy wheels each bundle their own OpenBLAS; both are listed.
    """
    libs = []
    paths = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", _read("/proc/self/maps"))))
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        entry = {"library": os.path.basename(path), "config": None, "threads": None}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is not None and entry["threads"] is None:
                    get_threads.argtypes = []
                    get_threads.restype = ctypes.c_int
                    entry["threads"] = int(get_threads())
                if get_config is not None and entry["config"] is None:
                    get_config.argtypes = []
                    get_config.restype = ctypes.c_char_p
                    entry["config"] = get_config().decode(errors="replace")
        libs.append(entry)
    return libs


def blas_threads():
    """Effective BLAS thread count: the largest over the loaded OpenBLAS libraries."""
    counts = [lib["threads"] for lib in openblas_libraries() if lib["threads"]]
    return max(counts) if counts else 0


def record(seed):
    import numpy
    import scipy

    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_libraries(),
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "platform": platform.platform(),
    }

"""Span tracer that wraps itpencil's public functions and dense kernels from outside.

Installing a Tracer replaces, in every itpencil namespace that holds a
reference, each public function of the five library modules plus
``cli.main`` with a wrapper that records a span.  The dense kernels
(``numpy.linalg`` svd/inv/solve/eigh/lstsq/qr/det, patched in
``numpy.linalg._linalg`` so that the SVDs behind ``norm(., 2)`` and ``cond``
are seen, and ``scipy.linalg`` eig/schur) get kernel spans that carry the
operand shape.  Spans stay in memory; ``analyse`` turns them into per-layer
numbers and ``write`` dumps them as JSON lines when the run ends.
"""

import functools
import importlib
import inspect
import json
import threading
import time

import numpy as np

LAYERS = ("symbols", "discretize", "oracle", "spectra", "resolvent")
KERNELS_NUMPY = ("svd", "inv", "solve", "eigh", "lstsq", "qr", "det")
KERNELS_SCIPY = ("eig", "schur")
BENCH = "bench"  # owner of kernel calls made outside every library span

# span record fields
NAME, LAYER, START, END, PARENT, CASE, INFO = range(7)


def _shape_info(args):
    a = args[0] if args else None
    shape = tuple(np.shape(a)) if a is not None else ()
    cplx = bool(np.iscomplexobj(a)) if a is not None else False
    return {"shape": shape, "complex": cplx}


def kernel_flops(kname, info):
    """Leading-order LAPACK flop count of one kernel call (computed, not measured).

    Real counts follow Golub & Van Loan (4th ed.) tables 7.7.1 and 8.6.1;
    complex arithmetic costs four real flops per real-formula flop.  Stacked
    operands multiply by the batch size.
    """
    shape = info["shape"]
    if len(shape) < 2:
        return 0.0
    m, n = shape[-2], shape[-1]
    batch = float(np.prod(shape[:-2])) if len(shape) > 2 else 1.0
    if kname == "eig":
        flops = 25.0 * n**3  # Schur form with vectors plus back-substitution
    elif kname == "schur":
        flops = 25.0 * n**3
    elif kname == "svd":
        p, q = max(m, n), min(m, n)
        if info.get("values_only"):
            flops = 4.0 * p * q * q - 4.0 * q**3 / 3.0
        else:
            flops = 4.0 * p * p * q + 8.0 * p * q * q + 9.0 * q**3
    elif kname == "inv":
        flops = 2.0 * n**3
    else:
        return 0.0
    return batch * flops * (4.0 if info["complex"] else 1.0)


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.spans = []
        self.case = None
        self._stack = []
        self._tid = threading.get_ident()
        self._patches = []

    # -- recording -------------------------------------------------------
    def _wrap(self, fn, name, layer, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._tid:
                return fn(*args, **kwargs)
            stack = tracer._stack
            if layer == "kernel":
                if stack and tracer.spans[stack[-1]][LAYER] == "kernel":
                    return fn(*args, **kwargs)
                info = _shape_info(args)
                if name == "svd":
                    info["values_only"] = kwargs.get("compute_uv", True) is False
            else:
                info = None
            idx = len(tracer.spans)
            parent = stack[-1] if stack else -1
            rec = [name, layer, time.perf_counter(), 0.0, parent, tracer.case, info]
            tracer.spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if hook is not None:
                rec[INFO] = hook(args, kwargs, result)
            return result

        return traced

    def _replace_everywhere(self, namespaces, original, replacement):
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._patches.append((ns, attr, original))
                    setattr(ns, attr, replacement)

    def install(self, hooks=None):
        """Wrap every public library function, cli.main and the dense kernels."""
        hooks = hooks or {}
        pkg = importlib.import_module("itpencil")
        mods = {m: importlib.import_module(f"itpencil.{m}") for m in LAYERS + ("cli",)}
        namespaces = [pkg] + list(mods.values())
        for layer in LAYERS:
            mod = mods[layer]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                full = f"{layer}.{name}"
                self._replace_everywhere(
                    namespaces, obj, self._wrap(obj, full, layer, hooks.get(full))
                )
        cli_main = mods["cli"].main
        self._replace_everywhere(namespaces, cli_main, self._wrap(cli_main, "cli.main", "cli"))

        import numpy.linalg
        import scipy.linalg

        np_spaces = [numpy.linalg]
        linalg_impl = getattr(numpy.linalg, "_linalg", None)
        if linalg_impl is not None:
            np_spaces.append(linalg_impl)
        for kname in KERNELS_NUMPY:
            original = getattr(numpy.linalg, kname)
            self._replace_everywhere(np_spaces, original, self._wrap(original, kname, "kernel"))
        sp_spaces = [scipy.linalg]
        for sub in ("_decomp", "_decomp_schur"):
            mod = getattr(scipy.linalg, sub, None)
            if mod is not None:
                sp_spaces.append(mod)
        for kname in KERNELS_SCIPY:
            original = getattr(scipy.linalg, kname)
            self._replace_everywhere(sp_spaces, original, self._wrap(original, kname, "kernel"))

    def uninstall(self):
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps({
                    "name": rec[NAME], "layer": rec[LAYER],
                    "start": rec[START], "end": rec[END],
                    "parent": rec[PARENT], "case": rec[CASE], "info": rec[INFO],
                }, default=str) + "\n")


def analyse(spans):
    """Per-layer totals from a span list.

    Returns a dict with, per layer, its self time (span time minus the time
    covered by its direct child spans); per public function, call count and
    time (outermost occurrence only); per (owner layer, kernel), call count,
    time and computed flops, where the owner is the innermost enclosing
    library span.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]

    def owner(i):
        p = spans[i][PARENT]
        while p >= 0 and spans[p][LAYER] == "kernel":
            p = spans[p][PARENT]
        return spans[p][LAYER] if p >= 0 else BENCH

    def has_ancestor_named(i, name):
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] == name:
                return True
            p = spans[p][PARENT]
        return False

    layer_self = {}
    fn_calls, fn_time = {}, {}
    kern_calls, kern_time, kern_flops = {}, {}, {}
    for i, rec in enumerate(spans):
        dur = rec[END] - rec[START]
        if rec[LAYER] == "kernel":
            key = (owner(i), rec[NAME])
            kern_calls[key] = kern_calls.get(key, 0) + 1
            kern_time[key] = kern_time.get(key, 0.0) + dur
            kern_flops[key] = kern_flops.get(key, 0.0) + kernel_flops(rec[NAME], rec[INFO])
            continue
        layer_self[rec[LAYER]] = layer_self.get(rec[LAYER], 0.0) + dur - child[i]
        fn_calls[rec[NAME]] = fn_calls.get(rec[NAME], 0) + 1
        if not has_ancestor_named(i, rec[NAME]):
            fn_time[rec[NAME]] = fn_time.get(rec[NAME], 0.0) + dur
    return {
        "layer_self": layer_self,
        "fn_calls": fn_calls,
        "fn_time": fn_time,
        "kern_calls": kern_calls,
        "kern_time": kern_time,
        "kern_flops": kern_flops,
    }


def kernel_census(spans, root):
    """Kernel call counts among the descendants of span index ``root``."""
    inside = {root}
    counts = {}
    for i in range(root + 1, len(spans)):
        p = spans[i][PARENT]
        if p in inside:
            inside.add(i)
            if spans[i][LAYER] == "kernel":
                counts[spans[i][NAME]] = counts.get(spans[i][NAME], 0) + 1
        elif spans[i][START] > spans[root][END]:
            break
    return counts

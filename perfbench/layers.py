"""Per-layer metrics of a traced pass, and the span hooks they need.

Layers are the package's modules: symbols, discretize, oracle, spectra,
resolvent and cli.  Kernel calls are charged to the innermost enclosing
library span (see tracer.analyse); kernel calls made by the benchmark's own
checks sit outside every library span and are left out.
"""

from tracer import BENCH, CASE, INFO, LAYER, NAME, analyse, kernel_census

RESOLVENT_SCANS = (
    "ray_scan", "circle_growth_scan", "laurent_coefficients", "carleman_check",
    "t_infinity_estimate", "companion_block_inverse_check", "resolvent_identity_check",
)
FACTORIZATIONS = ("svd", "inv", "solve", "lstsq", "qr", "eigh", "det")
COUNTED_KERNELS = ("svd", "inv", "eig", "schur", "lstsq", "solve", "det")
FLOP_KERNELS = ("eig", "svd", "schur", "inv")
OP_FIGURES = {"solve_s.n48": "s", "solve_s.n96": "s", "solve2d_s": "s", "eigen_s.n48": "s",
              "samples_per_s": "1/s", "command_s.p50": "s", "command_s.p90": "s",
              "failed_share": "ratio"}


def _arg(args, kwargs, pos, name, default):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _solve_info(args, kwargs, sol):
    n = _arg(args, kwargs, 3, "n_pts", None)
    return {"trusted": int(sol.trust_mask.sum()), "total": int(sol.eigenvalues.size), "n": n}


def _samples(count):
    return lambda args, kwargs, result: {"samples": int(count(args, kwargs, result))}


def _laurent_samples(args, kwargs, _result):
    m = int(_arg(args, kwargs, 4, "n_quad", 256))
    return m + m % 2


HOOKS = {
    "oracle.char_det": lambda args, kwargs, _r: {"points": int(getattr(args[1], "size", 1))},
    "oracle.find_roots": lambda _a, _k, roots: {"roots": int(sum(m for _r, m, _s in roots))},
    "spectra.solve_spectrum": _solve_info,
    "spectra.solve_spectrum_2d": lambda a, k, sol: dict(_solve_info(a, k, sol), n="2d"),
    "resolvent.ray_scan": _samples(lambda a, k, r: len(r.radii)),
    "resolvent.circle_growth_scan":
        _samples(lambda a, k, r: len(r.radii) * int(_arg(a, k, 4, "n_theta", 64))),
    "resolvent.laurent_coefficients": _samples(_laurent_samples),
    "resolvent.carleman_check": _samples(lambda a, k, r: r["n_samples"] + r["n_probes"]),
    "resolvent.t_infinity_estimate": _samples(lambda a, k, r: _arg(a, k, 2, "n_samples", 256)),
    "resolvent.companion_block_inverse_check": _samples(lambda a, k, r: 1),
    "resolvent.resolvent_identity_check": _samples(lambda a, k, r: 1),
}


def _infos(spans, name):
    return [s[INFO] for s in spans if s[NAME] == name and s[INFO] is not None]


def per_layer(spans, records):
    """Per-layer metrics {name: (value, unit)} of one traced setup + pass."""
    a = analyse(spans)
    calls, secs = a["fn_calls"], a["fn_time"]
    kc, kt, kf = a["kern_calls"], a["kern_time"], a["kern_flops"]
    layer_self = a["layer_self"]

    def kern(table, kname, layer=None):
        return sum(v for (owner, k), v in table.items()
                   if k == kname and owner != BENCH and (layer is None or owner == layer))

    m = {}
    # spectra
    solves = _infos(spans, "spectra.solve_spectrum")
    solves_2d = _infos(spans, "spectra.solve_spectrum_2d")
    solve_s = secs.get("spectra.solve_spectrum", 0.0) + secs.get("spectra.solve_spectrum_2d", 0.0)
    trusted = sum(i["trusted"] for i in solves + solves_2d)
    total = sum(i["total"] for i in solves + solves_2d)
    m["spectra.svd_calls"] = (kern(kc, "svd", "spectra"), "count")
    m["spectra.svd_s"] = (kern(kt, "svd", "spectra"), "s")
    m["spectra.eigen_calls"] = (calls.get("spectra.eigen", 0), "count")
    m["spectra.eig_s"] = (kern(kt, "eig", "spectra"), "s")
    m["spectra.schur_calls"] = (kern(kc, "schur", "spectra"), "count")
    m["spectra.verify_chain_calls"] = (calls.get("spectra.verify_chain", 0), "count")
    m["spectra.verify_chain_s"] = (secs.get("spectra.verify_chain", 0.0), "s")
    m["spectra.linearize_s"] = (secs.get("spectra.linearize", 0.0), "s")
    m["spectra.kernel_share"] = (kern(kt, "eig", "spectra") / solve_s if solve_s else 0.0, "ratio")
    m["spectra.trust_ratio"] = (trusted / total if total else 0.0, "ratio")
    m["spectra.trusted_eigs"] = (sum(i["trusted"] for i in solves), "count")
    m["spectra.trusted_2d"] = (sum(i["trusted"] for i in solves_2d), "count")
    m["spectra.self_s"] = (layer_self.get("spectra", 0.0), "s")
    n96 = next((i for i, s in enumerate(spans)
                if s[NAME] == "spectra.solve_spectrum" and s[INFO] and s[INFO]["n"] == 96), None)
    census = kernel_census(spans, n96) if n96 is not None else {}
    m["spectra.n96_eig_calls"] = (census.get("eig", 0), "count")
    m["spectra.n96_svd_calls"] = (census.get("svd", 0), "count")
    # discretize
    assemble = ("discretize.assemble_pencil", "discretize.assemble_pencil_2d")
    m["discretize.assemble_calls"] = (sum(calls.get(f, 0) for f in assemble), "count")
    m["discretize.assemble_s"] = (sum(secs.get(f, 0.0) for f in assemble), "s")
    m["discretize.self_s"] = (layer_self.get("discretize", 0.0), "s")
    # oracle
    points = sum(i["points"] for i in _infos(spans, "oracle.char_det"))
    roots = sum(i["roots"] for i in _infos(spans, "oracle.find_roots"))
    m["oracle.find_roots_s"] = (secs.get("oracle.find_roots", 0.0), "s")
    m["oracle.char_det_points"] = (points, "count")
    m["oracle.points_per_root"] = (points / roots if roots else 0.0, "count")
    m["oracle.winding_calls"] = (calls.get("oracle.winding_number", 0), "count")
    m["oracle.self_s"] = (layer_self.get("oracle", 0.0), "s")
    # resolvent
    samples = sum(i["samples"] for f in RESOLVENT_SCANS for i in _infos(spans, f"resolvent.{f}"))
    factorizations = sum(kern(kc, k, "resolvent") for k in FACTORIZATIONS)
    m["resolvent.samples"] = (samples, "count")
    m["resolvent.factorizations_per_sample"] = (
        factorizations / samples if samples else 0.0, "count")
    m["resolvent.svd_s"] = (kern(kt, "svd", "resolvent"), "s")
    m["resolvent.inv_s"] = (kern(kt, "inv", "resolvent"), "s")
    for f in RESOLVENT_SCANS:
        m[f"resolvent.{f}_s"] = (secs.get(f"resolvent.{f}", 0.0), "s")
    m["resolvent.self_s"] = (layer_self.get("resolvent", 0.0), "s")
    # cli and symbols
    m["cli.main_calls"] = (calls.get("cli.main", 0), "count")
    m["cli.self_s"] = (layer_self.get("cli", 0.0), "s")
    m["cli.bytes_written"] = (sum(r["facts"].get("bytes", 0) for r in records), "B")
    m["symbols.check_s"] = (
        secs.get("symbols.check_condition1", 0.0) + secs.get("symbols.check_condition2", 0.0), "s")
    # kernels over all layers; flops are computed from shapes, not measured
    for k in COUNTED_KERNELS:
        m[f"kernel.{k}_calls"] = (kern(kc, k), "count")
    for k in ("svd", "eig", "inv"):
        m[f"kernel.{k}_s"] = (kern(kt, k), "s")
    for k in FLOP_KERNELS:
        m[f"kernel.{k}_gflop_computed"] = (kern(kf, k) / 1e9, "Gflop")
    return m


def op_figures(figs):
    """Workload figures from the untraced pass, 0 where the workload has none."""
    return {f"op.{name}": (figs[name][0] if name in figs else 0.0, unit)
            for name, unit in OP_FIGURES.items()}


def one_thread_metrics(child):
    """Diagnostics of the pass re-run with BLAS pinned to one thread."""
    def value(name):
        return child[name]["value"] if name in child else 0.0

    return {
        "onethread.pass_s": (value("trace.pass_s"), "s"),
        "onethread.svd_s": (value("kernel.svd_s"), "s"),
        "onethread.eig_s": (value("kernel.eig_s"), "s"),
        "onethread.inv_s": (value("kernel.inv_s"), "s"),
    }


def case_kernels(spans):
    """Kernel call counts per case id, for the report."""
    out = {}
    for s in spans:
        if s[LAYER] == "kernel":
            case = s[CASE] or "none"
            out.setdefault(case, {})
            out[case][s[NAME]] = out[case].get(s[NAME], 0) + 1
    return out

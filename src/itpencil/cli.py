"""Batch command line front end.

Each subcommand validates a JSON config against its schema, runs the
corresponding module operations, and returns its CSV tables, its headline
results and whether its checked properties passed.  Only main writes: once
the command returns, it creates --out and writes the CSVs plus a JSON
manifest echoing the resolved config and tool version.  Exit codes: 0 pass,
1 a checked property failed (everything is still written) or a numerical
failure was raised, 2 bad configuration; a raised error writes nothing.
Identical config and seed give byte-identical outputs; floats are printed
with 17 significant digits.
"""

import argparse
import json
import sys
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__
from . import resolvent as rv
from . import spectra as sp
from ._blas import single_blas_thread
from .discretize import DiscretePencil, MediumProfile, assemble_pencil, make_grid
from .exceptions import ConfigError, PencilError
from .oracle import CharacteristicFunction, char_det, find_roots
from .symbols import BoundaryPair, Cone, PencilKind, check_condition1, check_condition2

_Q_SCHEMA = {
    "type": "object",
    "required": ["type", "data"],
    "additionalProperties": False,
    "properties": {
        "type": {"enum": ["constant", "polynomial", "samples"]},
        "data": {
            "anyOf": [
                {"type": "number"},
                {"type": "array", "items": {"type": "number"}, "minItems": 1},
            ]
        },
    },
}

_PENCIL_SCHEMA = {
    "type": "object",
    "required": ["kind", "q", "interval", "n_pts", "bc"],
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": ["helmholtz", "schrodinger"]},
        "q": _Q_SCHEMA,
        "interval": {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 2,
            "maxItems": 2,
        },
        "n_pts": {"type": "integer", "minimum": 12, "maximum": 512},
        "bc": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0, "maximum": 3},
            "minItems": 2,
            "maxItems": 2,
        },
    },
}

_SCALAR_SCHEMA = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 3,
    "maxItems": 3,
}

_COMPLEX_SCHEMA = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}

_SCHEMAS = {
    "check-ellipticity": {
        "type": "object",
        "required": ["kind", "bc", "q_range", "cone"],
        "additionalProperties": False,
        "properties": {
            "kind": {"enum": ["helmholtz", "schrodinger"]},
            "bc": _PENCIL_SCHEMA["properties"]["bc"],
            "q_range": {
                "type": "array",
                "items": {"type": "number", "exclusiveMinimum": 0},
                "minItems": 2,
                "maxItems": 2,
            },
            "cone": {
                "type": "array",
                "items": {"type": "number"},
                "minItems": 2,
                "maxItems": 2,
            },
            "samples": {"type": "integer", "minimum": 16, "default": 2000},
            "tolerance": {"type": "number", "exclusiveMinimum": 0, "default": 1e-9},
        },
    },
    "spectrum": {
        "type": "object",
        "required": ["pencil"],
        "additionalProperties": False,
        "properties": {
            "pencil": _PENCIL_SCHEMA,
            "lambda_prime": {"anyOf": [{"const": "auto"}, _COMPLEX_SCHEMA]},
            "refine_increment": {"type": "integer", "minimum": 2, "default": 8},
            "oracle": {
                "type": "object",
                "additionalProperties": False,
                "properties": {
                    "max_abs_lambda": {"type": "number", "exclusiveMinimum": 0},
                    "rtol": {"type": "number", "exclusiveMinimum": 0},
                },
            },
        },
    },
    "resolvent-scan": {
        "type": "object",
        "required": ["radii"],
        "additionalProperties": False,
        "properties": {
            "pencil": _PENCIL_SCHEMA,
            "scalar": _SCALAR_SCHEMA,
            "rays": {
                "type": "array",
                "items": {"type": "number"},
                "minItems": 1,
                "default": [0.0, 0.25, 0.5, 0.75],
            },
            "radii": {
                "type": "array",
                "items": {"type": "number", "exclusiveMinimum": 0},
                "minItems": 3,
                "maxItems": 3,
            },
            "slope_target": {"type": "number", "default": -2.0},
            "slope_tol": {"type": "number", "exclusiveMinimum": 0, "default": 0.15},
            "circles": {
                "type": "object",
                "required": ["r_min", "r_max", "p"],
                "additionalProperties": False,
                "properties": {
                    "r_min": {"type": "number", "exclusiveMinimum": 0},
                    "r_max": {"type": "number", "exclusiveMinimum": 0},
                    "p": {"type": "number", "exclusiveMinimum": 0},
                    "epsilon": {"type": "number", "exclusiveMinimum": 0},
                    "n_theta": {"type": "integer", "minimum": 8},
                },
            },
        },
    },
    "counting": {
        "type": "object",
        "required": ["p", "t_values"],
        "additionalProperties": False,
        "properties": {
            "pencil": _PENCIL_SCHEMA,
            "eigenvalues": {"type": "array", "items": _COMPLEX_SCHEMA, "minItems": 1},
            "lambda_prime": {"anyOf": [{"const": "auto"}, _COMPLEX_SCHEMA]},
            "p": {"type": "number", "exclusiveMinimum": 0},
            "t_values": {
                "type": "array",
                "items": {"type": "number", "exclusiveMinimum": 0},
                "minItems": 1,
            },
        },
    },
    "completeness": {
        "type": "object",
        "required": ["pencil"],
        "additionalProperties": False,
        "properties": {
            "pencil": _PENCIL_SCHEMA,
            "n_samples": {"type": "integer", "minimum": 1, "default": 20},
            "m_values": {
                "anyOf": [
                    {"const": "auto"},
                    {
                        "type": "array",
                        "items": {"type": "integer", "minimum": 1},
                        "minItems": 1,
                    },
                ]
            },
            "residual_tol": {"type": "number", "exclusiveMinimum": 0, "default": 0.1},
            "chain_tol": {"type": "number", "exclusiveMinimum": 0, "default": 1e-8},
        },
    },
    "oracle": {
        "type": "object",
        "required": ["oracle", "rect"],
        "additionalProperties": False,
        "properties": {
            "oracle": {
                "type": "object",
                "required": ["kind", "q", "length", "bc"],
                "additionalProperties": False,
                "properties": {
                    "kind": {"enum": ["helmholtz", "schrodinger"]},
                    "q": {"type": "number", "exclusiveMinimum": 0},
                    "length": {"type": "number", "exclusiveMinimum": 0},
                    "bc": _PENCIL_SCHEMA["properties"]["bc"],
                },
            },
            "rect": {
                "type": "array",
                "items": {"type": "number"},
                "minItems": 4,
                "maxItems": 4,
            },
            "max_roots": {"type": "integer", "minimum": 1, "default": 200},
        },
    },
    "laurent": {
        "type": "object",
        "required": ["lambda0", "radius"],
        "additionalProperties": False,
        "properties": {
            "pencil": _PENCIL_SCHEMA,
            "scalar": _SCALAR_SCHEMA,
            "lambda0": _COMPLEX_SCHEMA,
            "radius": {"type": "number", "exclusiveMinimum": 0},
            "n_coeffs": {"type": "integer", "minimum": 1, "default": 4},
            "n_quad": {"type": "integer", "minimum": 16, "default": 256},
            "eigenvalues": {"type": "array", "items": _COMPLEX_SCHEMA},
            "use_trusted": {"type": "boolean", "default": True},
        },
    },
}

# built once, without jsonschema.validate's per-call meta-schema check (a test runs it)
_VALIDATORS = {
    command: jsonschema.validators.validator_for(schema)(schema)
    for command, schema in _SCHEMAS.items()
}


def _fmt(v):
    t = type(v)  # exact types first: the same bytes as the isinstance dispatch below
    if t is float or t is np.float64:
        return format(v, ".16e")
    if t is int:
        return str(v)
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".16e")


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(map(_fmt, row)) for row in rows)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _c2l(z):
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _l2c(v):
    return complex(float(v[0]), float(v[1]))


def _apply_defaults(cfg, schema):
    for key, sub in schema.get("properties", {}).items():
        if key not in cfg and "default" in sub:
            cfg[key] = sub["default"]
    return cfg


def _reject_constant(name):
    raise ConfigError(f"config is not valid JSON: the literal {name} is not allowed")


def _load_config(command, path):
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    error = jsonschema.exceptions.best_match(_VALIDATORS[command].iter_errors(cfg))
    if error is not None:
        raise ConfigError(f"config rejected: {error.message}") from error
    return _apply_defaults(cfg, _SCHEMAS[command])


def _profile_from(cfg_pencil):
    kind = PencilKind(cfg_pencil["kind"])
    q = cfg_pencil["q"]
    if q["type"] == "constant":
        if not isinstance(q["data"], (int, float)):
            raise ConfigError("constant q takes a single number")
        return MediumProfile.constant(kind, q["data"])
    if not isinstance(q["data"], list):
        raise ConfigError(f"{q['type']} q takes an array of numbers")
    if q["type"] == "polynomial":
        return MediumProfile.polynomial(kind, q["data"])
    return MediumProfile.sampled(kind, q["data"])


def _bc_from(pair):
    try:
        return BoundaryPair(*pair)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _pencil_spec(cfg):
    """Profile, grid and boundary pair of the config's pencil section.

    Assembly applies the same q checks on the grid nodes; running them here
    makes a bad profile a configuration error on every pencil route.
    """
    pc = cfg["pencil"]
    profile = _profile_from(pc)
    bc = _bc_from(pc["bc"])
    try:
        grid = make_grid(*pc["interval"], pc["n_pts"])
        profile.values(grid.nodes)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return profile, grid, bc


def _given(section, *keys):
    """The keys a config section sets, passed on so the library keeps its defaults."""
    return {k: section[k] for k in keys if k in section}


def _source(cfg, poles=True, refine=True):
    """The config's pencil, its EigenSolution or None, and its poles or None.

    Listed "eigenvalues" are the poles as written.  Otherwise, when poles are
    wanted, a pencil section is solved (on two grids unless refine is off) and
    gives its trusted eigenvalues, and a scalar fixture gives all of its
    eigenvalues.  A pencil section that need not be solved is only assembled.
    """
    if "scalar" in cfg and "pencil" in cfg:
        raise ConfigError("give either a pencil section or a scalar fixture, not both")
    listed = None
    if "eigenvalues" in cfg:
        listed = np.array([_l2c(v) for v in cfg["eigenvalues"]])
    if "scalar" in cfg:
        a0, a1, a2 = cfg["scalar"]
        pencil = DiscretePencil.from_matrices([[a0]], [[a1]], [[a2]])
        if poles and listed is None:
            return pencil, None, sp.eigen(sp.linearize(pencil)).eigenvalues
        return pencil, None, listed
    if "pencil" not in cfg:
        raise ConfigError("config needs a pencil section or a scalar fixture")
    if listed is not None or not poles:
        return assemble_pencil(*_pencil_spec(cfg)), None, listed
    if refine and cfg["pencil"]["q"]["type"] == "samples":
        raise ConfigError("q samples fit the base grid only; sampled q needs "
                          "spectrum --no-refine (no two-grid solve)")
    profile, grid, bc = _pencil_spec(cfg)
    lp = cfg.get("lambda_prime", "auto")
    lp = lp if lp == "auto" else _l2c(lp)
    if refine:
        sol = sp.solve_spectrum(profile, grid.a, grid.b, grid.n_pts, bc,
                                lambda_prime=lp, **_given(cfg, "refine_increment"))
    else:
        sol = sp.eigen(sp.linearize(assemble_pencil(profile, grid, bc)), lambda_prime=lp)
    return sol.pencil, sol, sol.trusted_eigenvalues


def cmd_check_ellipticity(cfg, args):
    kind = PencilKind(cfg["kind"])
    bc = _bc_from(cfg["bc"])
    qlo, qhi = cfg["q_range"]
    if not 0 < qlo <= qhi:
        raise ConfigError("q_range must satisfy 0 < q_min <= q_max")
    try:
        cone = Cone(*cfg["cone"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    r1 = check_condition1(
        kind, (qlo, qhi), cone, samples=cfg["samples"],
        seed=args.seed, tolerance=cfg["tolerance"],
    )
    r2 = check_condition2(
        kind, bc, (qlo, qhi), cone, samples=cfg["samples"],
        seed=args.seed, tolerance=cfg["tolerance"],
    )

    def report(r):
        return {
            "min_modulus": r.min_modulus,
            "passed": r.passed,
            "tolerance": r.tolerance,
            "n_samples": r.n_samples,
            "witness": {
                "q": r.witness.q_val,
                "xi_sq": r.witness.xi_sq,
                "lambda": _c2l(r.witness.lam),
                "value": _c2l(r.witness_value),
            },
        }

    results = {
        "condition1": report(r1),
        "condition2": report(r2),
        "cone_touches_negative_axis": cone.touches_negative_axis(),
    }
    return {}, results, r1.passed and r2.passed


def cmd_spectrum(cfg, args):
    pc = cfg["pencil"]
    if args.verify_oracle and pc["q"]["type"] != "constant":
        raise ConfigError("oracle verification needs constant q")
    _, sol, _ = _source(cfg, refine=args.refine)

    mult = {}
    chain_len = {}
    chain_info = []
    for cl in sol.clusters:
        lengths = [len(ch.vectors) for ch in cl.chains]
        for i in cl.indices:
            mult[i] = cl.multiplicity
            chain_len[i] = max(lengths) if lengths else 1
        chain_info.append({
            "center": _c2l(cl.center),
            "multiplicity": cl.multiplicity,
            "chain_lengths": lengths,
            "max_chain_residual": max(
                (float(r) for ch in cl.chains for r in ch.residuals), default=0.0
            ),
        })

    rows = []
    for i, lam in enumerate(sol.eigenvalues):
        rows.append((
            lam.real, lam.imag,
            mult.get(i, 1), chain_len.get(i, 0),
            sol.residuals[i], bool(sol.trust_mask[i]),
        ))
    header = ["re", "im", "multiplicity", "chain_length", "residual", "trusted"]
    results = {
        "n_eigenvalues": int(sol.eigenvalues.size),
        "n_trusted": int(sol.trust_mask.sum()),
        "lambda_prime": _c2l(sol.lambda_prime),
        "clusters": chain_info,
    }
    passed = True
    if args.verify_oracle:
        ocfg = cfg.get("oracle", {})
        cap = ocfg.get("max_abs_lambda", 200.0)
        rtol = ocfg.get("rtol", 1e-6)
        a, b = pc["interval"]
        cf = CharacteristicFunction(
            PencilKind(pc["kind"]), pc["q"]["data"], b - a, _bc_from(pc["bc"])
        )
        tr = sol.trusted_eigenvalues
        tr_cap = tr[np.abs(tr) <= cap]
        immax = max(5.0, 1.5 * float(np.abs(tr_cap.imag).max()) if tr_cap.size else 5.0)
        remin = min(-cap - 30.0, float(tr_cap.real.min()) - 10.0 if tr_cap.size else 0.0)
        rect = (remin, 8.0, -immax, immax)
        roots = find_roots(cf, rect, max_roots=4 * max(tr.size, 1))
        rootvals = np.array([r[0] for r in roots])
        mults = np.array([r[1] for r in roots])
        in_rect = tr[
            (tr.real > rect[0]) & (tr.real < rect[1])
            & (tr.imag > rect[2]) & (tr.imag < rect[3])
        ]
        errs = [
            float(np.min(np.abs(rootvals - lam)) / (1.0 + abs(lam)))
            for lam in tr_cap
        ] if rootvals.size else []
        count_match = int(mults.sum()) == in_rect.size
        max_err = max(errs) if errs else 0.0
        results["oracle"] = {
            "rect": list(rect),
            "n_roots_weighted": int(mults.sum()),
            "n_trusted_in_rect": int(in_rect.size),
            "count_match": count_match,
            "max_rel_error": max_err,
            "rtol": rtol,
        }
        passed = count_match and not max_err > rtol
    return {"spectrum_eigenvalues.csv": (header, rows)}, results, passed


def cmd_resolvent_scan(cfg, args):
    pencil, _, eigs = _source(cfg, poles="circles" in cfg)
    rmin, rmax, count = cfg["radii"]
    if not rmin < rmax:
        raise ConfigError("radii must satisfy r_min < r_max")
    if int(count) < 2:
        raise ConfigError("radii need a count of at least 2")
    cc = cfg.get("circles")
    if cc is not None and not cc["r_min"] < cc["r_max"]:
        raise ConfigError("circles need r_min < r_max")
    radii = np.geomspace(rmin, rmax, int(count))

    tables = {}
    slopes = []
    for i, frac in enumerate(cfg["rays"]):
        scan = rv.ray_scan(pencil, np.exp(1j * np.pi * frac), radii)
        tables[f"ray_{i}.csv"] = (["radius", "norm"], list(zip(scan.radii, scan.norms)))
        slopes.append({
            "arg_over_pi": frac,
            "fitted_slope": scan.fitted_slope,
            "within_tolerance": abs(scan.fitted_slope - cfg["slope_target"])
            <= cfg["slope_tol"],
        })

    results = {"rays": slopes}
    if cc is not None:
        circle_radii = rv.pole_avoiding_radii(eigs, cc["r_min"], cc["r_max"])
        rep = rv.circle_growth_scan(
            pencil, circle_radii, cc["p"], eigenvalues=eigs,
            **_given(cc, "epsilon", "n_theta"),
        )
        tables["circles.csv"] = (
            ["radius", "max_log_norm", "min_pole_distance"],
            list(zip(rep.radii, rep.max_log_norms, rep.min_pole_distances)),
        )
        results["circles"] = {
            "fitted_exponent": rep.fitted_exponent,
            "p": rep.p,
            "epsilon": rep.epsilon,
        }
    return tables, results, all(s["within_tolerance"] for s in slopes)


def cmd_counting(cfg, args):
    if ("eigenvalues" in cfg) == ("pencil" in cfg):
        raise ConfigError("give exactly one of a pencil section and an eigenvalue list")
    if "pencil" in cfg:
        _, sol, _ = _source(cfg)
        report = sp.counting(sol, sol.lambda_prime, cfg["p"], cfg["t_values"])
    else:
        eig = np.array([_l2c(v) for v in cfg["eigenvalues"]])
        lp = cfg.get("lambda_prime", [0.0, 0.0])
        lp = sp.find_reference_point(eig) if lp == "auto" else _l2c(lp)
        report = sp.counting(eig, lp, cfg["p"], cfg["t_values"])

    rows = []
    for i, t in enumerate(report.t_values):
        sb = (
            report.schatten_bounds[i]
            if report.schatten_bounds is not None
            else float("nan")
        )
        rows.append((t, int(report.counts[i]), report.discrete_bounds[i], sb))
    violations = int(np.sum(report.counts > report.discrete_bounds))
    results = {
        "p": report.p,
        "lambda_prime": _c2l(report.lambda_prime),
        "bound_violations": violations,
    }
    header = ["t", "count", "discrete_bound", "schatten_bound"]
    return {"counting.csv": (header, rows)}, results, violations == 0


def cmd_completeness(cfg, args):
    pencil, sol, _ = _source(cfg)
    n_clusters = len(sol.clusters)
    if n_clusters == 0:
        raise PencilError("no trusted clusters to project on")
    mv = cfg.get("m_values", "auto")
    if mv == "auto":
        mv = sorted({min(2**k, n_clusters) for k in range(20) if 2**k <= n_clusters}
                    | {n_clusters})
    else:
        mv = sorted(set(int(m) for m in mv))
        if mv[-1] > n_clusters:
            raise ConfigError(f"m exceeds the {n_clusters} trusted clusters")

    rng = np.random.default_rng(args.seed)
    grid_x = pencil.grid.nodes
    a, b = cfg["pencil"]["interval"]

    rows = []
    worst_final = 0.0
    monotone = True
    for s in range(cfg["n_samples"]):
        # random smooth sample: decaying cosine series on the interval
        coeffs = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        coeffs /= (1.0 + np.arange(12)) ** 2
        t = (grid_x - a) / (b - a)
        f_grid = sum(c * np.cos(k * np.pi * t) for k, c in enumerate(coeffs))
        f = pencil.project(f_grid)
        resid = [sp.completeness_residual(sol, pencil, f, m) for m in mv]
        for m, r in zip(mv, resid):
            rows.append((s, m, r))
        worst_final = max(worst_final, resid[-1])
        if any(r2 > r1 + 1e-9 for r1, r2 in zip(resid, resid[1:])):
            monotone = False

    # a chain vector itself must project to numerical zero residual
    cl = sol.clusters[int(rng.integers(n_clusters))]
    chain_vec = cl.chains[0].vectors[0]
    chain_resid = sp.completeness_residual(sol, pencil, chain_vec, n_clusters)

    results = {
        "m_values": [int(m) for m in mv],
        "worst_final_residual": worst_final,
        "monotone": monotone,
        "chain_vector_residual": chain_resid,
        "residual_tol": cfg["residual_tol"],
        "chain_tol": cfg["chain_tol"],
    }
    passed = (
        worst_final < cfg["residual_tol"]
        and monotone
        and chain_resid <= cfg["chain_tol"]
    )
    return {"completeness.csv": (["sample", "m", "residual"], rows)}, results, passed


def cmd_oracle(cfg, args):
    oc = cfg["oracle"]
    cf = CharacteristicFunction(
        PencilKind(oc["kind"]), oc["q"], oc["length"], _bc_from(oc["bc"])
    )
    re0, re1, im0, im1 = cfg["rect"]
    if not (re0 < re1 and im0 < im1):
        raise ConfigError("rect must be (re_min, re_max, im_min, im_max) with min < max")
    roots = find_roots(cf, tuple(cfg["rect"]), max_roots=cfg["max_roots"])
    dets = char_det(cf, np.array([r for r, _m, _s in roots], dtype=complex))
    # scalar abs (hypot): numpy's array abs of complex can differ in the last bit
    rows = [(r.real, r.imag, m, abs(d)) for (r, m, _step), d in zip(roots, dets)]
    results = {
        "n_roots": len(roots),
        "total_multiplicity": int(sum(m for _r, m, _s in roots)),
    }
    header = ["re", "im", "multiplicity", "newton_residual"]
    return {"oracle_roots.csv": (header, rows)}, results, True


def _entry_rows(C):
    """(row, col, re, im) for every entry of a complex matrix, row by row.

    A generator: main builds each table's rows only while writing it.
    """
    return (
        (i, j, re, im)
        for i, (row_re, row_im) in enumerate(zip(C.real.tolist(), C.imag.tolist()))
        for j, (re, im) in enumerate(zip(row_re, row_im))
    )


def cmd_laurent(cfg, args):
    pencil, _, eigs = _source(cfg, poles=cfg["use_trusted"])
    data = rv.laurent_coefficients(
        pencil, _l2c(cfg["lambda0"]), cfg["radius"],
        n_coeffs=cfg["n_coeffs"], n_quad=cfg["n_quad"],
        eigenvalues=eigs,
    )

    tables = {
        f"laurent_C{n}.csv": (["row", "col", "re", "im"], _entry_rows(C))
        for n, C in data.coefficients.items()
    }
    results = {
        "lambda0": _c2l(data.lambda0),
        "N": data.order,
        "radius": data.contour_radius,
        "residuals": [float(r) for r in data.relation_residuals],
        "noise_floor": data.noise_floor,
        "quadrature_error": data.quadrature_error,
    }
    return tables, results, True


_COMMANDS = {
    "check-ellipticity": cmd_check_ellipticity,
    "spectrum": cmd_spectrum,
    "resolvent-scan": cmd_resolvent_scan,
    "counting": cmd_counting,
    "completeness": cmd_completeness,
    "oracle": cmd_oracle,
    "laurent": cmd_laurent,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="itpencil",
        description="Transmission pencil spectra, resolvent scans, and reports.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON config path")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--seed", type=int, default=0, help="RNG seed")
    common.add_argument("--threads", type=int, default=1, help="ignored (deprecated)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, parents=[common])
        if name == "spectrum":
            p.add_argument("--verify-oracle", action="store_true")
            p.add_argument(
                "--refine",
                action=argparse.BooleanOptionalAction,
                default=True,
                help="two-grid trust filtering (default on)",
            )
    return parser


@single_blas_thread
def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.command, args.config)
        tables, results, passed = _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PencilError, ValueError, AssertionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    # the only writer: a command that raised above leaves no output
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        _write_csv(out / name, header, rows)
    manifest = {
        "command": args.command,
        "version": __version__,
        "resolved_config": cfg,
        "seed": args.seed,
        "files": sorted(tables),
        "results": results,
    }
    with open(out / f"{args.command.replace('-', '_')}_manifest.json", "w", newline="\n") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2, allow_nan=True)
        fh.write("\n")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())

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
import functools
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
from .oracle import CharacteristicFunction, compare_spectrum, find_roots
from .symbols import BoundaryPair, Cone, PencilKind, check_condition1, check_condition2

# the thresholds each checked property is judged by
_ORACLE_RTOL = 1e-6  # spectrum --verify-oracle: compare_spectrum's largest max_rel_error
_SLOPE_TARGET = -2.0  # resolvent-scan: ||T^{-1}|| decays like |lam|^-2 along each ray
_SLOPE_TOL = 0.15  # largest distance of a fitted ray slope from _SLOPE_TARGET
_RESIDUAL_TOL = 0.1  # completeness: largest final residual of a sample
_CHAIN_TOL = 1e-8  # completeness: largest residual of a chain vector itself
_SOLVE_CACHE_SIZE = 1  # pencil sections whose solve is kept; their subcommands run in a row

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
        },
    },
    "spectrum": {
        "type": "object",
        "required": ["pencil"],
        "additionalProperties": False,
        "properties": {
            "pencil": _PENCIL_SCHEMA,
            "lambda_prime": {"anyOf": [{"const": "auto"}, _COMPLEX_SCHEMA]},
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
            "circles": {
                "type": "object",
                "required": ["r_min", "r_max", "p"],
                "additionalProperties": False,
                "properties": {
                    "r_min": {"type": "number", "exclusiveMinimum": 0},
                    "r_max": {"type": "number", "exclusiveMinimum": 0},
                    "p": {"type": "number", "exclusiveMinimum": 0},
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
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".16e")


# a column whose cells all have one of these exact types takes one formatter, with _fmt's bytes
_E16 = "%.16e".__mod__
_COLUMN_FMT = {frozenset({float}): _E16, frozenset({np.float64}): _E16, frozenset({int}): str}


def _write_csv(path, header, rows):
    rows = list(rows)
    columns = list(zip(*rows))
    lines = [",".join(header)]
    if columns and all(len(row) == len(columns) for row in rows):
        cells = [list(map(_COLUMN_FMT.get(frozenset(map(type, c)), _fmt), c)) for c in columns]
        lines.extend(map(",".join, zip(*cells)))
    else:  # ragged: cell by cell
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


def _pencil_spec(pc):
    """Profile, grid and boundary pair of a config's pencil section; MediumProfile
    checks q's format, and assembly checks its values."""
    profile = MediumProfile(PencilKind(pc["kind"]), pc["q"]["type"], pc["q"]["data"])
    bc = BoundaryPair(*pc["bc"])
    return profile, make_grid(*pc["interval"], pc["n_pts"]), bc


def _solve(cfg):
    """Two-grid solve of a pencil section at the config's lambda_prime.

    Cached for the rest of the process under the canonical JSON of the section
    and of lambda_prime, so the next subcommand on the same section reads the
    same (read-only) solution; a solve that raises is not kept.
    """
    key = [cfg["pencil"], cfg.get("lambda_prime", "auto")]
    return _stored_solve(json.dumps(key, sort_keys=True))


@functools.lru_cache(maxsize=_SOLVE_CACHE_SIZE)
def _stored_solve(key):
    section, lp = json.loads(key)  # floats print as repr, so they load to the same bits
    profile, grid, bc = _pencil_spec(section)
    lp = lp if lp == "auto" else _l2c(lp)
    return sp.solve_spectrum(profile, grid.a, grid.b, grid.n_pts, bc, lambda_prime=lp)


def _given(section, *keys):
    """The keys a config section sets, passed on so the library keeps its defaults."""
    return {k: section[k] for k in keys if k in section}


def _source(cfg, poles=True):
    """The config's pencil, its EigenSolution or None, and its poles or None.

    Listed "eigenvalues" are the poles as written.  Otherwise, when poles are
    wanted, a pencil section is solved on two grids and gives its trusted
    eigenvalues, and a scalar fixture gives all of its eigenvalues.  A pencil
    section that need not be solved is only assembled.
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
        return assemble_pencil(*_pencil_spec(cfg["pencil"])), None, listed
    sol = _solve(cfg)
    return sol.pencil, sol, sol.trusted_eigenvalues


def cmd_check_ellipticity(cfg, args):
    kind = PencilKind(cfg["kind"])
    bc = BoundaryPair(*cfg["bc"])
    cone = Cone(*cfg["cone"])
    r1 = check_condition1(kind, cfg["q_range"], cone, samples=cfg["samples"], seed=args.seed)
    r2 = check_condition2(kind, bc, cfg["q_range"], cone, samples=cfg["samples"], seed=args.seed)

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
    profile, grid, bc = _pencil_spec(cfg["pencil"])
    if args.verify_oracle and profile.q_type != "constant":
        raise ConfigError("oracle verification needs constant q")
    sol = _solve(cfg)

    mult = {}
    chain_len = {}
    chain_info = []
    for cl in sol.clusters:
        lengths = [len(ch.vectors) for ch in cl.chains]
        for i in cl.indices:
            mult[i] = cl.multiplicity
            chain_len[i] = max(lengths)
        chain_info.append({
            "center": _c2l(cl.center),
            "multiplicity": cl.multiplicity,
            "chain_lengths": lengths,
            "max_chain_residual": max(float(r) for ch in cl.chains for r in ch.residuals),
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
        cf = CharacteristicFunction(profile.kind, profile.q_data, grid.b - grid.a, bc)
        rep = compare_spectrum(sol, cf)
        results["oracle"] = {k: v for k, v in rep.items() if k != "roots"} | {"rtol": _ORACLE_RTOL}
        passed = rep["count_match"] and not rep["max_rel_error"] > _ORACLE_RTOL
    return {"spectrum_eigenvalues.csv": (header, rows)}, results, passed


def cmd_resolvent_scan(cfg, args):
    pencil, _, eigs = _source(cfg, poles="circles" in cfg)
    rmin, rmax, count = cfg["radii"]
    if not rmin < rmax:
        raise ConfigError("radii must satisfy r_min < r_max")
    cc = cfg.get("circles")
    radii = np.geomspace(rmin, rmax, int(count))

    tables = {}
    slopes = []
    for i, frac in enumerate(cfg["rays"]):
        scan = rv.ray_scan(pencil, np.exp(1j * np.pi * frac), radii)
        tables[f"ray_{i}.csv"] = (["radius", "norm"], list(zip(scan.radii, scan.norms)))
        slopes.append({
            "arg_over_pi": frac,
            "fitted_slope": scan.fitted_slope,
            "within_tolerance": abs(scan.fitted_slope - _SLOPE_TARGET) <= _SLOPE_TOL,
        })

    results = {"rays": slopes}
    if cc is not None:
        circle_radii = rv.pole_avoiding_radii(eigs, cc["r_min"], cc["r_max"])
        rep = rv.circle_growth_scan(
            pencil, circle_radii, cc["p"], eigenvalues=eigs,
            **_given(cc, "n_theta"),
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
        mv = sorted({2**k for k in range(20) if 2**k <= n_clusters} | {n_clusters})
    else:
        mv = sorted(set(int(m) for m in mv))

    rng = np.random.default_rng(args.seed)
    grid = pencil.grids[0]
    t = (grid.nodes - grid.a) / (grid.b - grid.a)

    rows = []
    worst_final = 0.0
    monotone = True
    for s in range(cfg["n_samples"]):
        # random smooth sample: decaying cosine series on the interval
        coeffs = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        coeffs /= (1.0 + np.arange(12)) ** 2
        f_grid = sum(c * np.cos(k * np.pi * t) for k, c in enumerate(coeffs))
        f = pencil.project(f_grid)
        resid = [sp.completeness_residual(sol, f, m) for m in mv]
        for m, r in zip(mv, resid):
            rows.append((s, m, r))
        worst_final = max(worst_final, resid[-1])
        if any(r2 > r1 + 1e-9 for r1, r2 in zip(resid, resid[1:])):
            monotone = False

    # a chain vector itself must project to numerical zero residual
    cl = sol.clusters[int(rng.integers(n_clusters))]
    chain_vec = cl.chains[0].vectors[0]
    chain_resid = sp.completeness_residual(sol, chain_vec, n_clusters)

    results = {
        "m_values": [int(m) for m in mv],
        "worst_final_residual": worst_final,
        "monotone": monotone,
        "chain_vector_residual": chain_resid,
        "residual_tol": _RESIDUAL_TOL,
        "chain_tol": _CHAIN_TOL,
    }
    passed = worst_final < _RESIDUAL_TOL and monotone and chain_resid <= _CHAIN_TOL
    return {"completeness.csv": (["sample", "m", "residual"], rows)}, results, passed


def cmd_oracle(cfg, args):
    oc = cfg["oracle"]
    cf = CharacteristicFunction(
        PencilKind(oc["kind"]), oc["q"], oc["length"], BoundaryPair(*oc["bc"])
    )
    re0, re1, im0, im1 = cfg["rect"]
    if not (re0 < re1 and im0 < im1):
        raise ConfigError("rect must be (re_min, re_max, im_min, im_max) with min < max")
    roots = find_roots(cf, tuple(cfg["rect"]), max_roots=cfg["max_roots"])
    dets = cf(np.array([r for r, _m, _s in roots], dtype=complex))
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
    return parser


_PARSER = _build_parser()  # parsing leaves no state in it, so every call shares it


@single_blas_thread
def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        cfg = _load_config(args.command, args.config)
        tables, results, passed = _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PencilError, ValueError) as exc:
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

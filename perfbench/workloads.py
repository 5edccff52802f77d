"""The benchmark workloads: library (spectrum and resolvent) and cli-batch.

Each workload is closed-loop with one caller: ``ops(state)`` lists the
operations of one pass, and the runner starts each operation when the
previous one has finished.  ``setup(seed, tiny)`` builds every input from
the seed and does the work the timed loop must not repeat.  An operation runs
its library call(s) and then checks the outputs; a failed check raises
``CheckFailed``, and the runner counts the operation as failed.

Library functions are always reached through their module attribute
(``spectra.solve_spectrum``, ``cli.main``), so the tracer's wrappers see them.
"""

import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from itpencil import cli, discretize, oracle, resolvent, spectra
from itpencil.symbols import PencilKind

H, S = PencilKind.HELMHOLTZ, PencilKind.SCHRODINGER

# Constant q values on a 1/16 grid of [0.5, 2] whose oracle root census
# succeeds for both kinds and all four boundary pairs on ORACLE_RECT.  The
# grid points left out make find_roots raise WindingNumberError ("could not
# split rectangle") near a multiple or near-real root: 0.5625 (Helmholtz
# (0,1) and (2,3)), 0.8125 and 1.125 (Schrodinger (2,3)).  A seed picks among
# the rest, so that no operation of the benchmark fails on a known oracle
# defect; the defect itself is recorded in perfbench/README.md.
Q_GRID = tuple(
    q for q in np.arange(0.5, 2.0001, 0.0625).round(4)
    if q not in (0.5625, 0.8125, 1.125)
)
# Criterion 01 sizes its rectangle as (min(-230, min Re - 10), 8, +-1.5 max |Im|)
# over the trusted eigenvalues with |lam| <= 200; their |Im| stays below 70 for
# q in [0.5, 2], so this rectangle holds every criterion rectangle's roots.
ORACLE_RECT = (-230.0, 8.0, -105.0, 105.0)
CAP = 200.0  # |lam| bound of the oracle comparison, as in criterion 01
ORACLE_RTOL = 1e-6
RESIDUAL_TOL = 1e-7  # spectra's own trust threshold on relative residuals


class CheckFailed(Exception):
    """An operation returned, but its output failed a benchmark check."""


@dataclass
class Op:
    case: str  # unique case id within a pass
    label: str  # operation class; per-class statistics group on it
    run: Callable[[], dict]  # library call(s) plus checks; returns facts


def _check(ok, msg):
    if not ok:
        raise CheckFailed(msg)


def _pick_q(rng, k):
    """k constant q values, one from each of k equal strata of Q_GRID, shuffled.

    Stratifying keeps the total work of a pass nearly the same from seed to
    seed (oracle and solve cost depend on q) while every seed still draws
    its own values.
    """
    strata = np.array_split(np.array(Q_GRID), k)
    return [float(rng.choice(strata[i])) for i in rng.permutation(k)]


# ---------------------------------------------------------------------------
# correctness checks shared by the spectrum cases


def _residual_check(sol):
    """Recompute each trusted pair's relative residual from right_u."""
    pen = sol.pencil
    worst = 0.0
    for j in np.flatnonzero(sol.trust_mask):
        lam, u = sol.eigenvalues[j], sol.right_u[:, j]
        r = pen.vector_norm(pen.T(lam) @ u) / (pen.vector_norm(u) * pen.coefficient_scale(lam))
        worst = max(worst, float(r))
    _check(worst <= RESIDUAL_TOL, f"trusted residual {worst:.2e} > {RESIDUAL_TOL:g}")
    return worst


def _oracle_check(sol, roots):
    """Criterion 01 agreement of trusted eigenvalues with precomputed oracle roots."""
    tr = sol.trusted_eigenvalues
    sel = tr[np.abs(tr) <= CAP]
    _check(sel.size > 0, "no trusted eigenvalue with |lam| <= 200")
    rv = np.array([r for r, _m, _s in roots])
    mv = np.array([m for _r, m, _s in roots])
    err = max(float(np.min(np.abs(rv - v)) / (1.0 + abs(v))) for v in sel)
    immax = max(5.0, 1.5 * float(np.abs(sel.imag).max()))
    remin = min(-230.0, float(sel.real.min()) - 10.0)
    # criterion rectangle, clipped to the rectangle the oracle searched
    re0, re1 = max(remin, ORACLE_RECT[0]), min(8.0, ORACLE_RECT[1])
    im0, im1 = max(-immax, ORACLE_RECT[2]), min(immax, ORACLE_RECT[3])

    def inside(z):
        return (z.real >= re0) & (z.real <= re1) & (z.imag >= im0) & (z.imag <= im1)

    n_tr, n_or = int(inside(tr).sum()), int(mv[inside(rv)].sum())
    _check(err <= ORACLE_RTOL, f"oracle rel err {err:.2e} > {ORACLE_RTOL:g}")
    _check(n_tr == n_or, f"{n_tr} trusted vs {n_or} oracle roots in rectangle")
    return err


def _solve_facts(sol, **extra):
    return dict(extra, trusted=int(sol.trust_mask.sum()), total=int(sol.eigenvalues.size))


# ---------------------------------------------------------------------------
# spectrum


class Spectrum:
    """Direct solve_spectrum calls; oracle roots are precomputed in setup."""

    def setup(self, seed, tiny):
        rng = np.random.default_rng(seed)
        q_h, q_s, q_2d = _pick_q(rng, 3)
        poly = [rng.uniform(0.6, 1.4), rng.uniform(-0.3, 0.3), rng.uniform(0.0, 0.4)]
        n = 32 if tiny else 48
        grid = discretize.make_grid(0.0, 1.0, n)
        t = (grid.nodes - grid.nodes[0]) / (grid.nodes[-1] - grid.nodes[0])
        amp, freq = rng.uniform(0.1, 0.4), rng.integers(1, 4)
        samples = 1.0 + amp * np.sin(np.pi * freq * t) ** 2
        const = [(H, q_h, (0, 1), n), (S, q_s, (0, 1), n)]
        if not tiny:
            const.append((H, 1.0, (0, 1), 96))  # ROADMAP's reference solve
        roots = {}
        for kind, q, bc, _n in const:
            cf = oracle.CharacteristicFunction(kind, q, 1.0, bc)
            roots[(kind, q, bc)] = oracle.find_roots(cf, ORACLE_RECT, max_roots=200)
        return {
            "const": const, "roots": roots, "n": n, "tiny": tiny,
            "poly": [float(c) for c in poly], "samples": samples, "q_2d": q_2d,
        }

    def warmup(self, state):
        # the first solve at a size pays for buffers and BLAS thread start-up
        spectra.solve_spectrum(
            discretize.MediumProfile.constant(H, 1.0), 0.0, 1.0, state["n"], (0, 1)
        )

    def ops(self, state):
        ops = []
        for kind, q, bc, n in state["const"]:
            roots = state["roots"][(kind, q, bc)]

            def run(kind=kind, q=q, bc=bc, n=n, roots=roots):
                sol = spectra.solve_spectrum(
                    discretize.MediumProfile.constant(kind, q), 0.0, 1.0, n, bc
                )
                err = _oracle_check(sol, roots)
                res = _residual_check(sol)
                return _solve_facts(sol, oracle_err=err, residual=res)

            ops.append(Op(f"const.{kind.value}.q{q:g}.bc{bc[0]}{bc[1]}.n{n}", f"solve.n{n}", run))
        if state["tiny"]:
            return ops
        n = state["n"]

        def run_poly():
            sol = spectra.solve_spectrum(
                discretize.MediumProfile.polynomial(S, state["poly"]), 0.0, 1.0, n, (0, 1)
            )
            _check(sol.trust_mask.any(), "polynomial q: nothing trusted")
            return _solve_facts(sol, residual=_residual_check(sol))

        def run_sampled():
            # solve_spectrum cannot take sampled q (its refined grid has no
            # samples), so this case uses the single-grid route of
            # `itpencil spectrum --no-refine`: residual trust only.
            pen = discretize.assemble_pencil(
                discretize.MediumProfile.sampled(H, state["samples"]),
                discretize.make_grid(0.0, 1.0, n), (2, 3),
            )
            sol = spectra.eigen(spectra.linearize(pen))
            _check(sol.trust_mask.any(), "sampled q: nothing trusted")
            return _solve_facts(sol, residual=_residual_check(sol))

        def run_2d():
            sol = spectra.solve_spectrum_2d(
                discretize.MediumProfile.constant(H, state["q_2d"]),
                (0.0, 1.0, 0.0, 1.0), 8, 8, (0, 1),
            )
            _check(np.all(np.isfinite(sol.eigenvalues)), "2D: non-finite eigenvalues")
            # Trusting at least one eigenvalue is the 2D path's open defect
            # (0 of 32 today); it is reported as the trusted_2d count.
            facts = _solve_facts(sol, residual=_residual_check(sol), two_d=True)
            if facts["trusted"] == 0:
                facts["note"] = f"2D 8x8 trusts 0 of {facts['total']} eigenvalues"
            return facts

        ops.append(Op(f"poly.schrodinger.bc01.n{n}", f"solve.n{n}", run_poly))
        ops.append(Op(f"sampled.helmholtz.bc23.n{n}", f"eigen.n{n}", run_sampled))
        ops.append(Op("2d.helmholtz.bc01.8x8", "solve2d.8x8", run_2d))
        return ops


# ---------------------------------------------------------------------------
# resolvent


def _smallest_poles(tr, k):
    return tr[np.lexsort((tr.imag, tr.real, np.abs(tr)))][:k]


def _seeded_point(rng):
    """A point off the negative real axis, |z| in [2, 50]."""
    return complex(rng.uniform(2.0, 50.0) * np.exp(1j * np.pi * rng.uniform(-0.7, 0.7)))


class Resolvent:
    """Resolvent scans on two pencils solved during setup."""

    def setup(self, seed, tiny):
        rng = np.random.default_rng(seed)
        n = 24 if tiny else 64
        (q,) = _pick_q(rng, 1)
        poly = [rng.uniform(0.6, 1.4), rng.uniform(-0.3, 0.3), rng.uniform(0.0, 0.4)]
        profiles = [("const", discretize.MediumProfile.constant(H, q))]
        if not tiny:
            profiles.append(("poly", discretize.MediumProfile.polynomial(S, poly)))
        pencils = []
        for tag, prof in profiles:
            sol = spectra.solve_spectrum(prof, 0.0, 1.0, n, (0, 1))
            pencils.append({
                "tag": tag, "sol": sol,
                "rays": rng.uniform(-0.75, 0.75, 4),
                "points": [_seeded_point(rng) for _ in range(4)],
            })
        return {"pencils": pencils, "n": n, "tiny": tiny}

    def warmup(self, state):
        pen = state["pencils"][0]["sol"].pencil
        resolvent.ray_scan(pen, 1j, np.geomspace(10.0, 1000.0, 4))

    def ops(self, state):
        radii = np.geomspace(10.0, 1000.0, 40)
        ops = []
        for item in state["pencils"]:
            sol, tag = item["sol"], item["tag"]
            pen, tr, lamp = sol.pencil, sol.trusted_eigenvalues, sol.lambda_prime

            def rays(pen=pen, fracs=item["rays"]):
                worst = 0.0
                for frac in fracs:
                    scan = resolvent.ray_scan(pen, np.exp(1j * np.pi * frac), radii)
                    worst = max(worst, abs(scan.fitted_slope + 2.0))
                _check(worst <= 0.15, f"ray slope off -2 by {worst:.3f}")
                return {"samples": len(fracs) * radii.size, "slope_dev": worst}

            def circles(pen=pen, tr=tr):
                cr = resolvent.pole_avoiding_radii(tr, 8.0, 1024.0)
                rep = resolvent.circle_growth_scan(pen, cr, 1.0, eigenvalues=tr)
                _check(np.all(np.isfinite(rep.max_log_norms)), "circle scan: non-finite norm")
                return {"samples": cr.size * 64, "exponent": rep.fitted_exponent}

            def laurent(pen=pen, tr=tr):
                worst, samples = 0.0, 0
                for lam0 in _smallest_poles(tr, 3):
                    others = tr[np.abs(tr - lam0) > 1e-6 * (1.0 + abs(lam0))]
                    radius = 0.4 * float(np.min(np.abs(others - lam0)))
                    ld = resolvent.laurent_coefficients(
                        pen, lam0, radius, n_coeffs=3, n_quad=256, eigenvalues=tr
                    )
                    if ld.relation_residuals.size:
                        worst = max(worst, float(np.max(ld.relation_residuals)))
                    samples += 256
                _check(worst <= 1e-7, f"Laurent relation residual {worst:.2e}")
                return {"samples": samples, "relation_residual": worst}

            def carleman(sol=sol, tr=tr, lamp=lamp):
                wp = resolvent.WeierstrassProduct(lambda_prime=lamp, zeros=tr, p=1.0)
                # circle through the second pole modulus: the first pole is inside
                r = float(sorted(set(np.round(np.abs(tr - lamp), 6)))[1])
                rep = resolvent.carleman_check(sol.companion, wp, r, n_samples=64)
                _check(rep["n_probes"] > 0, "carleman: no probe points")
                ratio = rep["max_probe_lhs"] / rep["circle_median"]
                _check(ratio < 10.0, f"probe/median ratio {ratio:.2f}")
                return {"samples": rep["n_samples"] + rep["n_probes"], "probe_ratio": ratio}

            def tinf(pen=pen, tr=tr):
                r = float(resolvent.pole_avoiding_radii(tr, 8.0, 64.0)[-1])
                val = resolvent.t_infinity_estimate(pen, r, n_samples=256, eigenvalues=tr)
                _check(np.isfinite(val) and val >= 0.0, f"T_infinity estimate {val}")
                return {"samples": 256, "t_inf": val}

            def identities(pen=pen, comp=sol.companion, pts=item["points"]):
                block = max(resolvent.companion_block_inverse_check(pen, z) for z in pts[:2])
                ident = resolvent.resolvent_identity_check(comp, pts[2], pts[3])
                ident = max(ident, resolvent.resolvent_identity_check(comp, pts[3], pts[0]))
                _check(block <= 1e-9, f"block inverse error {block:.2e}")
                _check(ident <= 1e-9, f"resolvent identity error {ident:.2e}")
                return {"samples": 4, "block_err": block, "identity_err": ident}

            for label, fn in (("rays", rays), ("circles", circles), ("laurent", laurent),
                              ("carleman", carleman), ("tinf", tinf),
                              ("identities", identities)):
                ops.append(Op(f"{label}.{tag}", label, fn))
            if state["tiny"]:
                return ops[:1]
        return ops


# ---------------------------------------------------------------------------
# cli-batch


def _files(out):
    return {p.name: p.read_bytes() for p in sorted(Path(out).iterdir()) if p.is_file()}


def _completeness_verdict(code, files):
    """Exit code of `completeness` must agree with the verdict in its manifest.

    At n = 48 the worst span residual sits at 0.09-0.16 depending on the
    CLI seed, around the 0.1 threshold, so exit code 1 ("a checked property
    failed") is a correct answer there; it is reported as a note, and only a
    code that contradicts the manifest, or any other code, fails the check.
    """
    res = json.loads(files["completeness_manifest.json"])["results"]
    passed = (res["worst_final_residual"] < res["residual_tol"] and res["monotone"]
              and res["chain_vector_residual"] <= res["chain_tol"])
    _check(code == (0 if passed else 1), f"exit code {code} contradicts the manifest")
    facts = {"span_residual": res["worst_final_residual"]}
    if not passed:
        facts["note"] = (f"completeness exit 1: worst span residual "
                         f"{res['worst_final_residual']:.3f} >= {res['residual_tol']}")
    return facts


class CliBatch:
    """itpencil.cli.main invoked the way a batch script would, --threads 1."""

    name = "cli-batch"

    def __init__(self, workdir):
        self.workdir = Path(workdir)

    def setup(self, seed, tiny):
        rng = np.random.default_rng(seed)
        base = self.workdir / f"cli-{seed}"
        if base.exists():
            shutil.rmtree(base)
        base.mkdir(parents=True)
        n = 32 if tiny else 48
        families = [(k, bc) for bc in ((0, 1), (0, 2), (1, 3), (2, 3)) for k in (H, S)]
        if tiny:
            families = families[:1]
        census = []
        for (kind, bc), q in zip(families, _pick_q(rng, len(families))):
            cf = oracle.CharacteristicFunction(kind, q, 1.0, bc)
            wind = oracle.winding_number(cf, ORACLE_RECT)
            cfg = {"oracle": {"kind": kind.value, "q": q, "length": 1.0, "bc": list(bc)},
                   "rect": list(ORACLE_RECT)}
            census.append((f"oracle.{kind.value}.bc{bc[0]}{bc[1]}", cfg, wind))

        (q,) = _pick_q(rng, 1)
        pencil = {"kind": "helmholtz", "q": {"type": "constant", "data": q},
                  "interval": [0.0, 1.0], "n_pts": n, "bc": [0, 1]}
        cf = oracle.CharacteristicFunction(H, q, 1.0, (0, 1))
        small = np.array([r for r, _m, _s in oracle.find_roots(cf, (-60.0, 5.0, -40.0, 40.0))])
        lam0 = small[np.argmin(np.abs(small))]
        gap = float(np.min(np.abs(np.delete(small, np.argmin(np.abs(small))) - lam0)))
        commands = [
            ("check-ellipticity", {"kind": "helmholtz", "bc": [0, 1],
                                   "q_range": [0.5, 2.0], "cone": [1.0, 2.2]}, []),
            ("spectrum", {"pencil": pencil}, ["--verify-oracle"]),
            ("resolvent-scan", {"pencil": pencil, "radii": [10.0, 1000.0, 13],
                                "circles": {"r_min": 8.0, "r_max": 1024.0, "p": 1.0}}, []),
            ("counting", {"pencil": pencil, "p": 1.0,
                          "t_values": [float(t) for t in np.geomspace(1.0, 400.0, 20)]}, []),
            ("completeness", {"pencil": pencil, "n_samples": 3}, []),
            ("laurent", {"pencil": pencil, "lambda0": [lam0.real, lam0.imag],
                         "radius": 0.4 * gap}, []),
        ]
        if tiny:
            commands = commands[:1]
        jobs = []
        for case, cfg, wind in census:
            jobs.append((case, "oracle", cfg, [], wind))
        for cmd, cfg, extra in commands:
            jobs.append((cmd, cmd, cfg, extra, None))
        cli_seed = int(rng.integers(0, 2**31 - 1))
        prepared = []
        for case, cmd, cfg, extra, wind in jobs:
            path = base / f"{case}.json"
            path.write_text(json.dumps(cfg))
            argv = [cmd, "--config", str(path), "--out", str(base / case),
                    "--seed", str(cli_seed), "--threads", "1"] + extra
            prepared.append({"case": case, "cmd": cmd, "argv": argv,
                             "out": base / case, "wind": wind})
        return {"jobs": prepared, "reference": {}, "base": base}

    def warmup(self, state):
        cli.main(state["jobs"][0]["argv"])

    def ops(self, state):
        ops = []
        for job in state["jobs"]:
            def run(job=job):
                code = cli.main(job["argv"])
                files = _files(job["out"])
                _check(bool(files), f"exit code {code}, no output files")
                facts = {"bytes": sum(len(b) for b in files.values())}
                if job["cmd"] == "completeness":
                    facts.update(_completeness_verdict(code, files))
                else:
                    _check(code == 0, f"exit code {code}")
                ref = state["reference"].setdefault(job["case"], files)
                _check(files == ref, "outputs differ from the first pass")
                if job["wind"] is not None:
                    man = json.loads(files["oracle_manifest.json"])
                    total = man["results"]["total_multiplicity"]
                    _check(total == job["wind"],
                           f"census multiplicity {total} != winding number {job['wind']}")
                return facts

            label = "census" if job["wind"] is not None else job["cmd"]
            ops.append(Op(job["case"], label, run))
        return ops

    def cleanup(self, state):
        shutil.rmtree(state["base"], ignore_errors=True)


# ---------------------------------------------------------------------------
# library: spectrum then resolvent, in one pass


class Library:
    """Direct library calls: the spectrum cases, then the resolvent scans.

    The two parts use the dense kernels in opposite ways (a few large
    eigensolves against thousands of small factorizations), and each keeps
    its own operation classes.  They share one workload so that each run
    can be long enough to repeat every operation at least three times.
    """

    name = "library"

    def __init__(self):
        self.parts = (Spectrum(), Resolvent())

    def setup(self, seed, tiny):
        seeds = np.random.SeedSequence(seed).spawn(len(self.parts))
        return [part.setup(ss, tiny) for part, ss in zip(self.parts, seeds)]

    def warmup(self, state):
        for part, st in zip(self.parts, state):
            part.warmup(st)

    def ops(self, state):
        return [op for part, st in zip(self.parts, state) for op in part.ops(st)]


def make(name, workdir):
    if name == "library":
        return Library()
    if name == "cli-batch":
        return CliBatch(workdir)
    raise KeyError(name)

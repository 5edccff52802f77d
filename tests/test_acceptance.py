"""Top-level acceptance checks, one test per criterion.

Each test prints a single pass/fail summary line with its measured numbers;
the supporting machinery lives in the module test files.
"""

import json
import time

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from itpencil import MediumProfile, PencilKind, cli, solve_spectrum
from itpencil.discretize import DiscretePencil, assemble_pencil, make_grid
from itpencil.exceptions import SingularAtLambdaError
from itpencil.oracle import CharacteristicFunction, compare_spectrum, winding_number
from itpencil.resolvent import (
    WeierstrassProduct,
    carleman_check,
    companion_block_inverse_check,
    laurent_coefficients,
    phi_eval,
    pole_avoiding_radii,
    ray_scan,
    resolvent_identity_check,
)
from itpencil.spectra import (
    chain_matrix,
    completeness_residual,
    counting,
    jordan_from_keldysh,
    keldysh_from_jordan,
    linearize,
    torus_embedding_sum,
    verify_chain,
)

KINDS = (PencilKind.HELMHOLTZ, PencilKind.SCHRODINGER)
QS = (0.5, 1.0, 2.0)


def _report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d}: {detail}"


def _oracle_case(kind, q, bc):
    """Solve one constant-q pencil and cross-check against the root oracle."""
    profile = MediumProfile.constant(kind, q)
    eig = solve_spectrum(profile, 0.0, 1.0, 96, bc)
    cf = CharacteristicFunction(kind, q, 1.0, bc)
    rep = compare_spectrum(eig, cf)
    total_mult = rep["n_roots_weighted"]
    wind = winding_number(cf, tuple(rep["rect"]))
    return total_mult == rep["n_trusted_in_rect"], total_mult == wind, rep["max_rel_error"]


def test_criterion_01_oracle_agreement_clamped():
    t0 = time.monotonic()
    worst = 0.0
    counts_ok = True
    for kind in KINDS:
        for q in QS:
            cm, wm, err = _oracle_case(kind, q, (0, 1))
            counts_ok = counts_ok and cm and wm
            worst = max(worst, err)
    elapsed = time.monotonic() - t0
    ok = counts_ok and worst <= 1e-6 and elapsed <= 60.0
    _report(1, ok, f"6 cases, worst rel err {worst:.2e}, counts exact, {elapsed:.1f} s")


def test_criterion_02_oracle_agreement_general_bc():
    worst = 0.0
    counts_ok = True
    for bc in ((0, 2), (1, 3), (2, 3)):
        for kind in KINDS:
            for q in QS:
                cm, wm, err = _oracle_case(kind, q, bc)
                counts_ok = counts_ok and cm and wm
                worst = max(worst, err)
    ok = counts_ok and worst <= 1e-6
    _report(2, ok, f"18 cases over bc (0,2),(1,3),(2,3), worst rel err {worst:.2e}")


@pytest.mark.xfail(strict=True, reason="trusted eigenvalue 1.6e-5 off the oracle (FOUND)")
@pytest.mark.parametrize("q", [0.75, 1.3])
def test_schrodinger_bc03_trusted_eigenvalue_matches_oracle(q):
    # criterion 01's check on a pair outside the four: the one trusted
    # eigenvalue at n = 48 sits 1.6e-5 (q = 0.75) and 6.5e-6 (q = 1.3) from
    # the oracle root, and refining to n = 96 moves it by 4e-6 at most
    kind = PencilKind.SCHRODINGER
    sol = solve_spectrum(MediumProfile.constant(kind, q), 0.0, 1.0, 48, (0, 3))
    rep = compare_spectrum(sol, CharacteristicFunction(kind, q, 1.0, (0, 3)))
    assert sol.trusted_eigenvalues.size
    assert rep["max_rel_error"] <= 1e-6


def test_criterion_03_chain_equivalence():
    rng = np.random.default_rng(0)
    worst = 0.0
    exact_roundtrips = True
    for _ in range(50):
        N = int(rng.integers(2, 9))
        L = int(rng.integers(1, 4))
        lam0 = complex(rng.standard_normal(), rng.standard_normal())
        A1 = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        A2 = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)) + 4.0 * np.eye(N)
        B1 = A1 + 2.0 * lam0 * A2
        us = [rng.standard_normal(N) + 1j * rng.standard_normal(N) for _ in range(L)]
        fill = [rng.standard_normal(N) + 1j * rng.standard_normal(N) for _ in range(N - L)]
        X = np.column_stack(us + fill)
        ys = [np.zeros(N, complex)]
        for j in range(1, L):
            y = -(B1 @ us[j - 1])
            if j >= 2:
                y = y - A2 @ us[j - 2]
            ys.append(y)
        Y = np.column_stack(ys + fill)
        B0 = Y @ np.linalg.inv(X)
        A0 = B0 - lam0 * A1 - lam0 * lam0 * A2
        pen = DiscretePencil.from_matrices(A0, A1, A2)
        comp = linearize(pen)
        xs = [np.concatenate([us[0], lam0 * (A2 @ us[0])])]
        for j in range(1, L):
            xs.append(np.concatenate([us[j], lam0 * (A2 @ us[j]) + A2 @ us[j - 1]]))
        chain = keldysh_from_jordan(comp, xs, lam0)
        worst = max(worst, max(verify_chain(pen, chain)))
        back = jordan_from_keldysh(pen, chain)
        for j, x in enumerate(back):
            exact_roundtrips = exact_roundtrips and np.array_equal(x[:N], chain.vectors[j])
    ok = worst <= 1e-7 and exact_roundtrips
    _report(3, ok, f"50 planted pencils, worst chain residual {worst:.2e}, round trips exact")


def test_criterion_04_ray_decay():
    radii = np.geomspace(10.0, 1000.0, 13)
    worst = 0.0
    for kind in KINDS:
        for q in QS:
            pen = assemble_pencil(
                MediumProfile.constant(kind, q), make_grid(0.0, 1.0, 64), (0, 1)
            )
            for frac in (0.0, 0.25, 0.5, 0.75):
                scan = ray_scan(pen, np.exp(1j * np.pi * frac), radii)
                worst = max(worst, abs(scan.fitted_slope + 2.0))
    ok = worst <= 0.15
    _report(4, ok, f"24 rays, worst |slope + 2| = {worst:.4f}")


def test_criterion_05_block_and_resolvent_identities():
    rng = np.random.default_rng(5)
    worst_block = 0.0
    worst_ident = 0.0
    checked = 0
    while checked < 100:
        N = int(rng.integers(2, 17))
        A0 = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        A1 = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        A2 = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)) + 3.0 * np.eye(N)
        pen = DiscretePencil.from_matrices(A0, A1, A2)
        lam = 3.0 * complex(rng.standard_normal(), rng.standard_normal())
        lamp = 3.0 * complex(rng.standard_normal(), rng.standard_normal())
        try:
            # raises BoundViolationError if ||T^-1|| <= ||(A-lam)^-1|| fails
            worst_block = max(worst_block, companion_block_inverse_check(pen, lam))
            worst_ident = max(
                worst_ident, resolvent_identity_check(linearize(pen), lam, lamp)
            )
        except SingularAtLambdaError:
            continue
        checked += 1
    ok = worst_block <= 1e-9 and worst_ident <= 1e-9
    _report(
        5,
        ok,
        f"100 triples N<=16, block err {worst_block:.2e}, "
        f"identity err {worst_ident:.2e}, norm inequality everywhere",
    )


def test_criterion_06_laurent_relations(h1_solution):
    eig = h1_solution
    pen = eig.pencil
    tr = eig.trusted_eigenvalues
    smallest = tr[np.lexsort((tr.imag, tr.real, np.abs(tr)))][:3]
    worst_rel = 0.0
    worst_ang = 0.0
    for lam0 in smallest:
        others = tr[np.abs(tr - lam0) > 1e-6 * (1.0 + abs(lam0))]
        radius = 0.4 * float(np.min(np.abs(others - lam0)))
        ld = laurent_coefficients(pen, lam0, radius, n_coeffs=3, eigenvalues=tr)
        if ld.relation_residuals.size:
            worst_rel = max(worst_rel, float(np.max(ld.relation_residuals)))
        span = np.column_stack(
            [u for ch in eig.cluster_of(lam0).chains for u in ch.vectors]
        )
        for n in range(1, ld.order + 1):
            U, s, _ = np.linalg.svd(ld.coefficients[-n], full_matrices=False)
            cols = U[:, s > 1e-8 * s[0]]
            worst_ang = max(
                worst_ang, float(np.max(scipy.linalg.subspace_angles(cols, span)))
            )
    ok = worst_rel <= 1e-7 and worst_ang <= 1e-6
    _report(
        6,
        ok,
        f"3 poles, worst relation residual {worst_rel:.2e}, "
        f"worst subspace angle {worst_ang:.2e}",
    )


def test_criterion_07_carleman_growth(h1_solution):
    eig = h1_solution
    tr = eig.trusted_eigenvalues
    lamp = eig.lambda_prime
    wp = WeierstrassProduct(lambda_prime=lamp, zeros=tr, p=1.0)
    phi_exact = phi_eval(wp, lamp) == 1.0 + 0j

    # circles through the first eigenvalue moduli: probe points land within
    # 1e-3 of the poles, where the product must cancel the resolvent blowup
    probe_ok = True
    worst_ratio = 0.0
    for r in sorted(set(np.round(np.abs(tr - lamp), 6)))[:4]:
        rep = carleman_check(eig.companion, wp, float(r), n_samples=64)
        if rep["n_probes"]:
            ratio = rep["max_probe_lhs"] / rep["circle_median"]
            worst_ratio = max(worst_ratio, ratio)
            probe_ok = probe_ok and ratio < 10.0

    radii = pole_avoiding_radii(tr - lamp, 8.0, 1024.0)
    max_lhs = np.array(
        [carleman_check(eig.companion, wp, r, n_samples=32)["max_lhs"] for r in radii]
    )
    exponent = float(
        np.polyfit(np.log(radii), np.log(np.log(np.maximum(max_lhs, 1.0 + 1e-9))), 1)[0]
    )
    ok = phi_exact and probe_ok and exponent <= 1.1
    _report(
        7,
        ok,
        f"phi(lambda')=1 exact, near-pole max {worst_ratio:.2f}x median, "
        f"growth exponent {exponent:.3f} <= 1.1",
    )


def test_criterion_08_counting_bound(h1_solution):
    eig = h1_solution
    lamp = eig.lambda_prime
    t_values = np.concatenate(
        [np.geomspace(1.0, 400.0, 40), np.abs(eig.trusted_eigenvalues - lamp)[:10] * 1.001]
    )
    rep = counting(eig, lamp, 1.0, np.sort(t_values))
    pointwise = bool(np.all(rep.counts <= rep.discrete_bounds))

    ts = torus_embedding_sum(1, 1.0, 5_000_000)
    exact = np.pi / np.tanh(np.pi)
    bracket = ts.partial <= exact <= ts.partial + ts.tail_bound
    torus_ok = bracket and ts.tail_bound <= 1e-6
    ok = pointwise and torus_ok
    _report(
        8,
        ok,
        f"N(t) <= discrete bound at {rep.t_values.size} points exactly, "
        f"lattice sum within {ts.tail_bound:.1e} of pi*coth(pi)",
    )


def test_criterion_09_completeness(h1_solution):
    eig = h1_solution
    pen = eig.pencil
    rng = np.random.default_rng(9)
    x = pen.grids[0].nodes
    n_cl = len(eig.clusters)
    ms = [1, 2, 4, 8, 16, 32, n_cl]
    worst_final = 0.0
    monotone = True
    for _ in range(20):
        coeffs = (rng.standard_normal(12) + 1j * rng.standard_normal(12)) / (
            1.0 + np.arange(12)
        ) ** 2
        fg = sum(c * np.cos(k * np.pi * x) for k, c in enumerate(coeffs))
        f = pen.project(fg)
        rs = [completeness_residual(eig, f, m) for m in ms]
        monotone = monotone and all(
            rs[i + 1] <= rs[i] + 1e-9 for i in range(len(rs) - 1)
        )
        worst_final = max(worst_final, rs[-1])
    worst_chain = 0.0
    for cl in eig.clusters[:3]:
        for ch in cl.chains:
            worst_chain = max(
                worst_chain, completeness_residual(eig, ch.vectors[0], n_cl)
            )
    ok = worst_final < 0.1 and monotone and worst_chain <= 1e-8
    _report(
        9,
        ok,
        f"20 samples, span residual {worst_final:.3f} < 0.1, nonincreasing, "
        f"chain vector residual {worst_chain:.1e}",
    )


_CLI_FIXTURES = {
    "check-ellipticity": {
        "kind": "helmholtz",
        "bc": [0, 1],
        "q_range": [0.5, 2.0],
        "cone": [1.0, 2.2],
    },
    "spectrum": {
        "pencil": {
            "kind": "helmholtz",
            "q": {"type": "constant", "data": 1.0},
            "interval": [0.0, 1.0],
            "n_pts": 48,
            "bc": [0, 1],
        }
    },
    "resolvent-scan": {
        "scalar": [1.0, 1.0, 1.0],
        "radii": [10.0, 1000.0, 7],
        "rays": [0.0, 0.5],
    },
    "counting": {
        "eigenvalues": [[1.0, 0.0], [2.0, 0.0], [4.0, 0.0]],
        "lambda_prime": [0.0, 0.0],
        "p": 1.0,
        "t_values": [1.5, 3.0, 10.0],
    },
    "completeness": {
        "pencil": {
            "kind": "helmholtz",
            "q": {"type": "constant", "data": 1.0},
            "interval": [0.0, 1.0],
            "n_pts": 48,
            "bc": [0, 1],
        },
        "n_samples": 3,
    },
    "oracle": {
        "oracle": {"kind": "helmholtz", "q": 1.0, "length": 1.0, "bc": [0, 1]},
        "rect": [-60.0, 5.0, -40.0, 40.0],
    },
    "laurent": {"scalar": [0.0, 1.0, 1.0], "lambda0": [0.0, 0.0], "radius": 0.5},
}


def test_criterion_10_cli_determinism(tmp_path):
    diffs = []
    for name, payload in _CLI_FIXTURES.items():
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(payload))
        out = tmp_path / name.replace("-", "_")
        code1 = cli.main([name, "--config", str(cfg), "--out", str(out)])
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        code2 = cli.main([name, "--config", str(cfg), "--out", str(out)])
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        if not (code1 == code2 == 0 and first == second and first):
            diffs.append(name)
    ok = not diffs
    _report(10, ok, f"7 subcommands rerun byte-identical" + (f"; failed: {diffs}" if diffs else ""))

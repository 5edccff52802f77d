"""The ctypes LAPACK binding: parity with scipy, and one OpenBLAS per process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from itpencil import MediumProfile, PencilKind, solve_spectrum, solve_spectrum_2d
from itpencil._blas import _scipy_lapack, lapack, single_blas_thread
from itpencil.discretize import assemble_pencil, make_grid

H = PencilKind.HELMHOLTZ
SRC = Path(__file__).resolve().parents[1] / "src"


def _run_python(script, *args, env=None):
    """Run script in a fresh interpreter on this checkout; its last stdout line as JSON."""
    env = {**os.environ, **(env or {}),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


_SCHUR_SOLVES = {
    "1d-bc23": lambda: solve_spectrum(MediumProfile.constant(H, 1.3), 0.0, 1.0, 48, (2, 3)),
    "2d-bc13": lambda: solve_spectrum_2d(MediumProfile.constant(H, 1.3), (0.0, 1.0, 0.0, 1.0),
                                         8, 8, (1, 3)),
}


def _schur_forms(monkeypatch, case):
    """The solve of `case`, and (A, select, (T, Z, sdim)) for every Schur form it asks for."""
    seen = []
    binding = lapack()
    sorted_schur = binding.sorted_schur

    def recording(A, select):
        out = sorted_schur(A, select)
        seen.append((A, select, out))
        return out

    monkeypatch.setattr(binding, "sorted_schur", recording)
    return _SCHUR_SOLVES[case](), seen


@pytest.mark.parametrize("case", list(_SCHUR_SOLVES))
def test_sorted_schur_matches_scipy_bit_for_bit(case, monkeypatch):
    # every Schur form a solve asks for, against scipy's zgees with the same sort
    sol, seen = _schur_forms(monkeypatch, case)
    assert seen and len(seen) == sum(c.multiplicity > 1 for c in sol.clusters)
    for A, select, (T, Z, sdim) in seen:
        T_ref, Z_ref, sdim_ref = scipy.linalg.schur(A, output="complex", sort=select)
        assert sdim == sdim_ref > 1
        assert np.array_equal(T, T_ref) and np.array_equal(Z, Z_ref)


def _resolvent_matrices():
    """Samples of n = 64 pencils along a circle and a ray, complex and real."""
    for kind, bc in ((H, (0, 1)), (PencilKind.SCHRODINGER, (1, 3))):
        pen = assemble_pencil(MediumProfile.constant(kind, 1.0), make_grid(0.0, 1.0, 64), bc)
        for lam in [12.0 * np.exp(2j * np.pi * k / 7) for k in range(7)] + [1e3j, 40.0]:
            yield pen.T(lam)


@single_blas_thread
def _getrf_getri(X):
    getrf, getri = scipy.linalg.lapack.get_lapack_funcs(("getrf", "getri"), (X,))
    lu, piv, info = getrf(X)
    assert info == 0
    Xinv, info = getri(lu, piv)
    assert info == 0
    return Xinv


def test_lu_inverse_matches_scipy_getrf_getri():
    inverse = single_blas_thread(lapack().lu_inverse)
    for X in _resolvent_matrices():
        Xinv, ref = inverse(X), _getrf_getri(X)
        assert Xinv.dtype == ref.dtype and Xinv.flags.f_contiguous
        assert np.linalg.norm(Xinv - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("dtype", [float, complex])
def test_lu_inverse_raises_on_an_exact_zero_pivot(dtype):
    X = np.arange(16.0).reshape(4, 4).astype(dtype)
    X[:, 2] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        lapack().lu_inverse(X)


def test_non_square_input_raises_before_lapack_runs():
    with pytest.raises(ValueError):
        lapack().lu_inverse(np.ones((3, 4)))
    with pytest.raises(ValueError):
        lapack().sorted_schur(np.ones(5, complex), lambda z: z == 0)


def _close(a, b):
    return np.linalg.norm(a - b) <= 1e-13 * np.linalg.norm(b)


def test_scipy_lapack_fallback_agrees_with_the_primary_binding(monkeypatch):
    # the binding taken where numpy carries no OpenBLAS, built here in-process:
    # scipy's cython_lapack takes C ints
    fallback, primary = _scipy_lapack(), lapack()
    assert fallback.integer is np.intc
    for X in _resolvent_matrices():
        for A in (X, X.real):
            ref = primary.lu_inverse(A)
            inv = fallback.lu_inverse(A)
            assert inv.dtype == ref.dtype and inv.flags.f_contiguous and _close(inv, ref)
    for dtype in (float, complex):
        X = np.arange(16.0).reshape(4, 4).astype(dtype)
        X[:, 2] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            fallback.lu_inverse(X)
    # every Schur form a solve asks for: the same sdim and captured eigenvalues
    _sol, seen = _schur_forms(monkeypatch, "1d-bc23")
    assert seen
    for A, select, (T_ref, _Z, sdim_ref) in seen:
        T, _Z, sdim = fallback.sorted_schur(A, select)
        assert sdim == sdim_ref > 1
        assert _close(np.diag(T)[:sdim], np.diag(T_ref)[:sdim])


_FALLBACK = r"""
import json, sys
import numpy as np
from itpencil import MediumProfile, PencilKind, _blas, solve_spectrum
from itpencil._blas import lapack, openblas_controls, single_blas_thread
from itpencil.discretize import assemble_pencil, make_grid

def counts():
    return [get() for get, _put in openblas_controls()]

caller = counts()  # before anything itpencil runs: numpy's OpenBLAS alone
pen = assemble_pencil(MediumProfile.constant(PencilKind.HELMHOLTZ, 1.0),
                      make_grid(0.0, 1.0, 64), (0, 1))
X = pen.T(12.0 + 5.0j)
primary = single_blas_thread(lapack().lu_inverse)(X)
_blas._openblas_lapack = lambda: None  # as where numpy carries no OpenBLAS
lapack.cache_clear()
during = []

@single_blas_thread
def fallback_inverse(X):
    binding = lapack()  # loads scipy's LAPACK, and with it its OpenBLAS
    getrf = binding.routines["zgetrf"]

    def reading(*args):
        during.append(counts())
        return getrf(*args)

    binding.routines["zgetrf"] = reading
    try:
        return binding.lu_inverse(X)
    finally:
        binding.routines["zgetrf"] = getrf

fallback = fallback_inverse(X)
import scipy.linalg
getrf, getri = scipy.linalg.lapack.get_lapack_funcs(("getrf", "getri"), (X,))
ref = single_blas_thread(lambda: getri(*getrf(X)[:2])[0])()
schur = []
sorted_schur = lapack().sorted_schur
def recording(A, select):
    out = sorted_schur(A, select)
    T, Z, sdim = scipy.linalg.schur(A, output="complex", sort=select)
    schur.append(bool(np.array_equal(out[0], T) and np.array_equal(out[1], Z) and out[2] == sdim))
    return out
lapack().sorted_schur = recording
sol = solve_spectrum(MediumProfile.constant(PencilKind.HELMHOLTZ, 1.3), 0.0, 1.0, 48, (2, 3))
print(json.dumps({
    "integer": np.dtype(lapack().integer).name,
    "caller": caller, "during": during, "after": counts(),
    "libraries": len(_blas._openblas_paths()),
    "to_primary": float(np.linalg.norm(fallback - primary) / np.linalg.norm(primary)),
    "to_scipy": float(np.linalg.norm(fallback - ref) / np.linalg.norm(ref)),
    "schur": schur, "trusted": int(sol.trust_mask.sum()),
}))
"""


def test_scipy_fallback_matches_and_pins_its_openblas():
    # a fresh process, so scipy's OpenBLAS loads inside a decorated call after
    # the first scan; both libraries load at the same OPENBLAS_NUM_THREADS, so
    # the caller's count restored afterwards is numpy's for both (on one CPU
    # every count is 1 and the thread checks cannot fail)
    out = _run_python(_FALLBACK, env={"OPENBLAS_NUM_THREADS": "2"})
    assert out["integer"] == np.dtype(np.intc).name
    assert out["to_primary"] <= 1e-13 and out["to_scipy"] <= 1e-13
    assert out["schur"] and all(out["schur"]) and out["trusted"] > 0
    assert len(out["during"]) == 1
    assert len(out["during"][0]) == len(out["after"]) == out["libraries"]
    assert set(out["during"][0]) <= {1}
    if out["caller"]:
        assert out["after"] == [out["caller"][0]] * out["libraries"]


_ONE_OPENBLAS = r"""
import json, re, sys
from pathlib import Path
import itpencil
from itpencil import MediumProfile, PencilKind, cli, solve_spectrum

tmp = Path(sys.argv[1])
pencil = {"kind": "helmholtz", "q": {"type": "constant", "data": 1.0},
          "interval": [0.0, 1.0], "n_pts": 24, "bc": [0, 1]}
jobs = {
    "check-ellipticity": {"kind": "helmholtz", "bc": [0, 1], "q_range": [0.5, 2.0],
                          "cone": [1.0, 2.2]},
    "spectrum": {"pencil": {**pencil, "q": {"type": "constant", "data": 1.3}, "bc": [2, 3]}},
    "resolvent-scan": {"pencil": pencil, "radii": [10.0, 1000.0, 7],
                       "circles": {"r_min": 8.0, "r_max": 64.0, "p": 1.0, "n_theta": 16}},
    "counting": {"pencil": pencil, "p": 1.0, "t_values": [1.0, 10.0, 100.0]},
    "completeness": {"pencil": pencil},
    "oracle": {"oracle": {"kind": "helmholtz", "q": 1.3, "length": 1.0, "bc": [0, 1]},
               "rect": [-60.0, 8.0, -30.0, 30.0]},
    "laurent": {"pencil": pencil, "lambda0": [-9.5566231218, 13.0585180527], "radius": 2.0},
}
codes = {}
for command, cfg in jobs.items():
    path = tmp / f"{command}.json"
    path.write_text(json.dumps(cfg))
    codes[command] = cli.main([command, "--config", str(path), "--out", str(tmp / command)])
sol = solve_spectrum(MediumProfile.constant(PencilKind.HELMHOLTZ, 1.3), 0.0, 1.0, 48, (2, 3))
try:
    maps = Path("/proc/self/maps").read_text()
    openblas = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps)))
except OSError:
    openblas = None
print(json.dumps({
    "codes": codes, "schur_clusters": sum(c.multiplicity > 1 for c in sol.clusters),
    "scipy_linalg": "scipy.linalg" in sys.modules,
    "scipy_special": "scipy.special" in sys.modules, "openblas": openblas,
}))
"""


def test_cli_and_schur_load_one_openblas_and_no_scipy_linalg(tmp_path):
    # every subcommand and a solve that reaches the Schur form, in a fresh
    # process: numpy's OpenBLAS serves them all
    out = _run_python(_ONE_OPENBLAS, tmp_path)
    assert set(out["codes"]) == {"check-ellipticity", "spectrum", "resolvent-scan", "counting",
                                 "completeness", "oracle", "laurent"}
    assert all(code in (0, 1) for code in out["codes"].values()), out["codes"]
    assert out["schur_clusters"] > 0
    assert not out["scipy_linalg"] and not out["scipy_special"]
    if out["openblas"] is None:
        pytest.skip("no /proc/self/maps to count the loaded OpenBLAS libraries")
    assert len(out["openblas"]) == 1, out["openblas"]

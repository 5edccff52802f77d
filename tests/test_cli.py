"""End-to-end command line checks over small configurations."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from itpencil import cli
from itpencil.exceptions import EigensolverError
from itpencil.spectra import find_reference_point


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _run(tmp_path, name, payload, *args):
    cfg = _write(tmp_path / f"{name}.json", payload)
    out = tmp_path / f"{name}_out"
    return cli.main([name, "--config", cfg, "--out", str(out), *args]), out


def test_counting_known_values(tmp_path):
    code, out = _run(
        tmp_path,
        "counting",
        {
            "eigenvalues": [[1.0, 0.0], [2.0, 0.0], [4.0, 0.0]],
            "lambda_prime": [0.0, 0.0],
            "p": 1.0,
            "t_values": [3.0],
        },
    )
    assert code == 0
    lines = (out / "counting.csv").read_text().splitlines()
    assert lines[0] == "t,count,discrete_bound,schatten_bound"
    assert lines[1] == "3.0000000000000000e+00,2,5.2500000000000000e+00,nan"
    manifest = json.loads((out / "counting_manifest.json").read_text())
    assert manifest["command"] == "counting"
    assert "counting.csv" in manifest["files"]


def test_laurent_scalar_residue(tmp_path):
    code, out = _run(
        tmp_path,
        "laurent",
        {"scalar": [0.0, 1.0, 1.0], "lambda0": [0.0, 0.0], "radius": 0.5},
    )
    assert code == 0
    manifest = json.loads((out / "laurent_manifest.json").read_text())
    assert manifest["results"]["N"] == 1
    rows = (out / "laurent_C-1.csv").read_text().splitlines()[1:]
    _, _, re_part, im_part = rows[0].split(",")
    assert float(re_part) == pytest.approx(1.0, abs=1e-12)
    assert float(im_part) == pytest.approx(0.0, abs=1e-12)


def test_laurent_rows_format_as_entry_indexing(tmp_path):
    # rows from C.real.tolist() and C.imag.tolist() give the bytes of rows
    # built from numpy scalars C[i, j].real and C[i, j].imag
    rng = np.random.default_rng(5)
    C = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-300, 300, (7, 5)) \
        + 1j * rng.standard_normal((7, 5))
    C[0, 0] = complex(-0.0, 0.0)
    C[1, 2] = complex(np.nan, np.inf)
    C[3, 4] = complex(5e-324, -np.inf)
    indexed = [(i, j, C[i, j].real, C[i, j].imag)
               for i in range(C.shape[0]) for j in range(C.shape[1])]
    header = ["row", "col", "re", "im"]
    cli._write_csv(tmp_path / "indexed.csv", header, indexed)
    cli._write_csv(tmp_path / "rows.csv", header, cli._entry_rows(C))
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "indexed.csv").read_bytes()


def test_equal_trace_orders_rejected(tmp_path):
    code, _ = _run(
        tmp_path,
        "check-ellipticity",
        {"kind": "helmholtz", "bc": [1, 1], "q_range": [0.5, 2.0], "cone": [1.0, 2.0]},
    )
    assert code == 2


def test_cone_touching_negative_axis_fails(tmp_path):
    code, out = _run(
        tmp_path,
        "check-ellipticity",
        {
            "kind": "helmholtz",
            "bc": [0, 1],
            "q_range": [0.5, 2.0],
            "cone": [2.4, 3.141592653589793],
        },
    )
    assert code == 1
    manifest = json.loads((out / "check_ellipticity_manifest.json").read_text())
    res = manifest["results"]
    assert res["cone_touches_negative_axis"] is True
    assert res["condition1"]["passed"] is False
    w = res["condition1"]["witness"]
    # the witness sits on a symbol root on the negative real axis
    assert abs(complex(w["value"][0], w["value"][1])) <= 1e-9
    lam = complex(w["lambda"][0], w["lambda"][1])
    assert lam.real < 0 and abs(lam.imag) <= 1e-9


def test_valid_cone_passes(tmp_path):
    code, out = _run(
        tmp_path,
        "check-ellipticity",
        {"kind": "helmholtz", "bc": [0, 1], "q_range": [0.5, 2.0], "cone": [1.0, 2.2]},
    )
    assert code == 0
    manifest = json.loads((out / "check_ellipticity_manifest.json").read_text())
    assert manifest["results"]["condition1"]["passed"] is True
    assert manifest["results"]["condition2"]["passed"] is True


def test_spectrum_small_grid(tmp_path):
    code, out = _run(
        tmp_path,
        "spectrum",
        {
            "pencil": {
                "kind": "helmholtz",
                "q": {"type": "constant", "data": 1.0},
                "interval": [0.0, 1.0],
                "n_pts": 48,
                "bc": [0, 1],
            }
        },
    )
    assert code == 0
    rows = (out / "spectrum_eigenvalues.csv").read_text().splitlines()
    assert rows[0] == "re,im,multiplicity,chain_length,residual,trusted"
    trusted = [r for r in rows[1:] if r.endswith(",1")]
    assert len(trusted) >= 20
    # the smallest eigenvalue pair sits near -9.56 +- 13.06i
    vals = sorted(
        (complex(float(r.split(",")[0]), float(r.split(",")[1])) for r in trusted),
        key=abs,
    )
    assert vals[0] == pytest.approx(-9.5566231218 - 13.0585180527j, rel=1e-4) or vals[
        0
    ] == pytest.approx(-9.5566231218 + 13.0585180527j, rel=1e-4)
    # auto picks a real reference point in [1, 100]
    res = json.loads((out / "spectrum_manifest.json").read_text())["results"]
    lp = complex(*res["lambda_prime"])
    assert lp.imag == 0.0 and 1.0 <= lp.real <= 100.0


def test_no_refine_flag_is_gone(tmp_path):
    # every pencil section is solved on two grids; argparse rejects the old
    # one-grid flag with the config-error code before anything is written
    pencil = {"kind": "helmholtz", "q": {"type": "constant", "data": 1.0},
              "interval": [0.0, 1.0], "n_pts": 24, "bc": [0, 1]}
    cfg = _write(tmp_path / "spectrum.json", {"pencil": pencil})
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--no-refine", "--config", cfg, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    # the same config without the flag runs
    assert cli.main(["spectrum", "--config", cfg, "--out", str(out)]) == 0


_NEGATIVE_Q_PENCIL = {
    "kind": "helmholtz",
    "q": {"type": "constant", "data": -1.0},
    "interval": [0.0, 1.0],
    "n_pts": 24,
    "bc": [0, 1],
}


# required keys besides the pencil section, per subcommand that takes one
_PENCIL_COMMANDS = {
    "spectrum": {},
    "resolvent-scan": {"radii": [10.0, 1000.0, 7]},
    "counting": {"p": 1.0, "t_values": [3.0]},
    "completeness": {},
    "laurent": {"lambda0": [1.0, 0.0], "radius": 0.5},
}


@pytest.mark.parametrize("command", list(_PENCIL_COMMANDS))
def test_negative_q_is_config_error(tmp_path, command):
    payload = {"pencil": _NEGATIVE_Q_PENCIL, **_PENCIL_COMMANDS[command]}
    code, _ = _run(tmp_path, command, payload)
    assert code == 2


def test_sampled_q_takes_every_solving_command(tmp_path):
    # 24 samples stand for their interpolant, so they fit the 32-point base
    # grid and the refined grid of the two-grid solve alike
    pencil = {
        "kind": "helmholtz",
        "q": {"type": "samples", "data": [1.0 + 0.02 * k for k in range(24)]},
        "interval": [0.0, 1.0],
        "n_pts": 32,
        "bc": [0, 1],
    }
    code, out = _run(tmp_path, "spectrum", {"pencil": pencil})
    assert code == 0
    assert json.loads((out / "spectrum_manifest.json").read_text())["results"]["n_trusted"] > 0
    # a contour around the smallest trusted eigenvalue
    rows = (out / "spectrum_eigenvalues.csv").read_text().splitlines()[1:]
    trusted = sorted(
        (complex(*map(float, r.split(",")[:2])) for r in rows if r.endswith(",1")), key=abs
    )
    gap = min(abs(lam - trusted[0]) for lam in trusted[1:])
    jobs = {
        "resolvent-scan": {"radii": [10.0, 1000.0, 7],
                           "circles": {"r_min": 8.0, "r_max": 256.0, "p": 1.0, "n_theta": 16}},
        "counting": {"p": 1.0, "t_values": [1.0, 10.0, 100.0, 400.0]},
        "laurent": {"lambda0": [trusted[0].real, trusted[0].imag], "radius": 0.4 * gap},
    }
    for command, extra in jobs.items():
        code, _ = _run(tmp_path, command, {"pencil": pencil, **extra})
        assert code == 0, command
    # completeness exits with its own verdict, which its manifest records
    code, out = _run(tmp_path, "completeness", {"pencil": pencil, "n_samples": 2})
    res = json.loads((out / "completeness_manifest.json").read_text())["results"]
    passed = (res["worst_final_residual"] < res["residual_tol"] and res["monotone"]
              and res["chain_vector_residual"] <= res["chain_tol"])
    assert code == (0 if passed else 1)


_THREADS_CASES = {
    "resolvent-scan": {
        "pencil": {
            "kind": "helmholtz",
            "q": {"type": "constant", "data": 1.0},
            "interval": [0.0, 1.0],
            "n_pts": 24,
            "bc": [0, 1],
        },
        "radii": [10.0, 1000.0, 7],
        "circles": {"r_min": 8.0, "r_max": 64.0, "p": 1.0, "n_theta": 16},
    },
    "laurent": {"scalar": [0.0, 1.0, 1.0], "lambda0": [0.0, 0.0], "radius": 0.5},
}


@pytest.mark.parametrize("command", list(_THREADS_CASES))
def test_threads_flag_is_ignored(tmp_path, command):
    cfg = _write(tmp_path / f"{command}.json", _THREADS_CASES[command])
    outputs = []
    for threads in ("4", "1"):
        out = tmp_path / f"out{threads}"
        code = cli.main([command, "--config", cfg, "--out", str(out), "--threads", threads])
        assert code == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(outputs[0]) > 1
    assert outputs[0] == outputs[1]


def test_spectrum_rejects_tiny_grid(tmp_path):
    code, _ = _run(
        tmp_path,
        "spectrum",
        {
            "pencil": {
                "kind": "helmholtz",
                "q": {"type": "constant", "data": 1.0},
                "interval": [0.0, 1.0],
                "n_pts": 8,
                "bc": [0, 1],
            }
        },
    )
    assert code == 2


def test_resolvent_scan_scalar(tmp_path):
    code, out = _run(
        tmp_path,
        "resolvent-scan",
        {"scalar": [1.0, 1.0, 1.0], "radii": [10.0, 1000.0, 7], "rays": [0.0, 0.5]},
    )
    assert code == 0
    manifest = json.loads((out / "resolvent_scan_manifest.json").read_text())
    for entry in manifest["results"]["rays"]:
        assert entry["within_tolerance"] is True
        assert abs(entry["fitted_slope"] + 2.0) <= 0.15
    header = (out / "ray_0.csv").read_text().splitlines()[0]
    assert header == "radius,norm"


def test_completeness_small(tmp_path):
    code, out = _run(
        tmp_path,
        "completeness",
        {
            "pencil": {
                "kind": "helmholtz",
                "q": {"type": "constant", "data": 1.0},
                "interval": [0.0, 1.0],
                "n_pts": 48,
                "bc": [0, 1],
            },
            "n_samples": 3,
        },
    )
    assert code == 0
    manifest = json.loads((out / "completeness_manifest.json").read_text())
    res = manifest["results"]
    assert res["worst_final_residual"] < 0.1
    assert res["monotone"] is True
    assert res["chain_vector_residual"] <= 1e-8
    rows = (out / "completeness.csv").read_text().splitlines()
    assert rows[0] == "sample,m,residual"
    assert len(rows) > 3


def test_oracle_root_export(tmp_path):
    code, out = _run(
        tmp_path,
        "oracle",
        {
            "oracle": {"kind": "helmholtz", "q": 1.0, "length": 1.0, "bc": [0, 1]},
            "rect": [-60.0, 5.0, -40.0, 40.0],
        },
    )
    assert code == 0
    rows = (out / "oracle_roots.csv").read_text().splitlines()
    assert rows[0] == "re,im,multiplicity,newton_residual"
    assert len(rows) == 5  # two conjugate pairs in this window
    for row in rows[1:]:
        assert float(row.split(",")[3]) <= 1e-8


def test_unknown_command_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate", "--config", "x.json"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", sorted(cli._SCHEMAS))
def test_config_schemas_pass_the_meta_schema(command):
    # configs are checked by validators built once, which skip this check
    schema = cli._SCHEMAS[command]
    jsonschema.validators.validator_for(schema).check_schema(schema)
    assert cli._VALIDATORS[command].schema is schema


def test_missing_config_exits_two(tmp_path):
    code = cli.main(
        ["counting", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)]
    )
    assert code == 2


def test_reruns_are_byte_identical(tmp_path):
    # the pencil section is solved afresh on each run: the stored solve is cleared between them
    listed = {
        "eigenvalues": [[1.0, 0.0], [2.0, 0.0], [4.0, 0.0]],
        "lambda_prime": [0.0, 0.0],
        "p": 1.0,
        "t_values": [1.5, 3.0, 10.0],
    }
    section = {"pencil": _h1_pencil(), "p": 1.0, "t_values": [1.5, 3.0, 10.0]}
    for name, payload in (("listed", listed), ("section", section)):
        cfg = _write(tmp_path / f"{name}.json", payload)
        out = tmp_path / name
        runs = []
        for _ in range(2):
            cli._stored_solve.cache_clear()
            assert cli.main(["counting", "--config", cfg, "--out", str(out)]) == 0
            runs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert runs[0] == runs[1]


def test_ellipticity_rerun_byte_identical(tmp_path):
    payload = {"kind": "schrodinger", "bc": [0, 1], "q_range": [0.5, 2.0], "cone": [1.0, 2.2]}
    cfg = _write(tmp_path / "ce.json", payload)
    out = tmp_path / "out"
    assert cli.main(["check-ellipticity", "--config", cfg, "--out", str(out), "--seed", "3"]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert cli.main(["check-ellipticity", "--config", cfg, "--out", str(out), "--seed", "3"]) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def _readme_configs():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("Subcommands and minimal configs:", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^- `([a-z-]+)`:.*?```json\n(.*?)```", section, re.M | re.S)


def test_readme_configs_run(tmp_path):
    configs = _readme_configs()
    assert len(configs) == 7
    for name, block in configs:
        code, _ = _run(tmp_path, name, json.loads(block))
        assert code == 0, name


def _h1_pencil(n_pts=24, q=None):
    return {
        "kind": "helmholtz",
        "q": q or {"type": "constant", "data": 1.0},
        "interval": [0.0, 1.0],
        "n_pts": n_pts,
        "bc": [0, 1],
    }


def test_spectrum_verify_oracle_constant_q(tmp_path):
    code, out = _run(tmp_path, "spectrum", {"pencil": _h1_pencil(32)}, "--verify-oracle")
    assert code == 0
    oracle = json.loads((out / "spectrum_manifest.json").read_text())["results"]["oracle"]
    assert oracle["count_match"] is True
    assert oracle["n_roots_weighted"] == oracle["n_trusted_in_rect"] > 0
    assert oracle["max_rel_error"] <= oracle["rtol"]


def test_spectrum_verify_oracle_writes_a_failed_count(tmp_path):
    # Helmholtz q = 0.75, bc (0, 3) at n = 48 trusts one eigenvalue against six
    # census roots: the census is not capped by the trusted count, so the
    # verdict is written and the run exits 1 ("a checked property failed")
    pencil = dict(_h1_pencil(48, {"type": "constant", "data": 0.75}), bc=[0, 3])
    code, out = _run(tmp_path, "spectrum", {"pencil": pencil}, "--verify-oracle")
    assert code == 1
    oracle = json.loads((out / "spectrum_manifest.json").read_text())["results"]["oracle"]
    assert (oracle["n_roots_weighted"], oracle["n_trusted_in_rect"]) == (6, 1)
    assert oracle["count_match"] is False


def test_spectrum_verify_oracle_rejects_polynomial_q(tmp_path):
    pencil = _h1_pencil(q={"type": "polynomial", "data": [1.0, 0.3]})
    code, out = _run(tmp_path, "spectrum", {"pencil": pencil}, "--verify-oracle")
    assert code == 2
    assert not out.exists()


def test_counting_on_pencil_writes_schatten_bound(tmp_path):
    code, out = _run(
        tmp_path, "counting", {"pencil": _h1_pencil(), "p": 1.0, "t_values": [10.0, 100.0]}
    )
    assert code == 0
    rows = [r.split(",") for r in (out / "counting.csv").read_text().splitlines()[1:]]
    bounds = [float(r[3]) for r in rows]
    assert len(bounds) == 2
    assert all(np.isfinite(b) and b > 0 for b in bounds)
    assert bounds[0] < bounds[1]


def test_counting_list_with_auto_reference_point(tmp_path):
    eigs = [[1.0, 0.0], [2.0, 0.0], [4.0, 0.0]]
    code, out = _run(
        tmp_path,
        "counting",
        {"eigenvalues": eigs, "lambda_prime": "auto", "p": 1.0, "t_values": [3.0]},
    )
    assert code == 0
    res = json.loads((out / "counting_manifest.json").read_text())["results"]
    expected = find_reference_point(np.array([complex(*v) for v in eigs]))
    assert complex(*res["lambda_prime"]) == expected
    assert expected.imag == 0.0 and expected.real not in (1.0, 2.0, 4.0)


def test_laurent_uses_listed_eigenvalues(tmp_path):
    # T(lam) = lam + lam^2 has poles 0 and -1; the list is taken as written
    base = {"scalar": [0.0, 1.0, 1.0], "lambda0": [0.0, 0.0], "radius": 0.5}
    code, out = _run(tmp_path, "laurent", {**base, "eigenvalues": [[0.0, 0.0], [-1.0, 0.0]]})
    assert code == 0
    assert json.loads((out / "laurent_manifest.json").read_text())["results"]["N"] == 1
    # a list without the enclosed pole fails the one-cluster check
    code, _ = _run(tmp_path, "laurent", {**base, "eigenvalues": [[-1.0, 0.0]]})
    assert code == 1


def test_completeness_explicit_m_values(tmp_path):
    payload = {"pencil": _h1_pencil(), "n_samples": 2, "m_values": [2, 1, 2]}
    code, out = _run(tmp_path, "completeness", payload)
    res = json.loads((out / "completeness_manifest.json").read_text())["results"]
    assert res["m_values"] == [1, 2]
    ms = [int(r.split(",")[1]) for r in (out / "completeness.csv").read_text().splitlines()[1:]]
    assert ms == [1, 2, 1, 2]
    # two clusters of a 24-point grid span too little for the 0.1 threshold
    assert res["monotone"] is True and res["worst_final_residual"] >= res["residual_tol"]
    assert code == 1
    code, _ = _run(tmp_path, "completeness", {**payload, "m_values": [1, 1000]})
    assert code == 2


def test_completeness_rising_residuals_fail_monotone(tmp_path, monkeypatch):
    # residuals that grow with m: the one failed property is monotonicity,
    # and a failed property still writes the CSV and the manifest
    def rising(eig, f, m):
        return 0.0 if m == len(eig.clusters) else 1e-3 * m

    monkeypatch.setattr(cli.sp, "completeness_residual", rising)
    payload = {"pencil": _h1_pencil(), "n_samples": 2, "m_values": [1, 2]}
    code, out = _run(tmp_path, "completeness", payload)
    assert code == 1
    res = json.loads((out / "completeness_manifest.json").read_text())["results"]
    assert res["monotone"] is False
    assert res["worst_final_residual"] < res["residual_tol"]
    assert res["chain_vector_residual"] <= res["chain_tol"]
    rows = (out / "completeness.csv").read_text().splitlines()
    assert rows[0] == "sample,m,residual" and len(rows) == 5


def test_completeness_without_trusted_clusters_writes_nothing(tmp_path, capsys):
    pencil = {**_h1_pencil(12), "kind": "schrodinger", "bc": [0, 3]}
    code, out = _run(tmp_path, "completeness", {"pencil": pencil})
    assert code == 1
    assert not out.exists()
    assert "no trusted clusters" in capsys.readouterr().err


def test_completeness_empty_m_values_is_config_error(tmp_path):
    code, _ = _run(tmp_path, "completeness", {"pencil": _h1_pencil(), "m_values": []})
    assert code == 2


def test_resolvent_scan_needs_two_radii(tmp_path):
    code, _ = _run(
        tmp_path, "resolvent-scan", {"scalar": [1.0, 1.0, 1.0], "radii": [10.0, 1000.0, 1]}
    )
    assert code == 2


def test_resolvent_scan_bad_circles_write_nothing(tmp_path):
    # a bad circles section is a configuration error: no ray CSV is written either
    payload = {**_THREADS_CASES["resolvent-scan"],
               "circles": {"r_min": 64.0, "r_max": 8.0, "p": 1.0}}
    code, out = _run(tmp_path, "resolvent-scan", payload)
    assert code == 2
    assert not out.exists()


def test_oracle_numerical_failure_writes_nothing(tmp_path):
    # no nudge of this rectangle gives a clear boundary: WindingNumberError
    payload = {
        "oracle": {"kind": "helmholtz", "q": 1.0, "length": 1.0, "bc": [0, 1]},
        "rect": [-1000.0, 10.0, -500.0, 500.0],
    }
    code, out = _run(tmp_path, "oracle", payload)
    assert code == 1
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command,q,extra", [
    ("spectrum", {"type": "constant", "data": float("nan")}, {}),
    ("laurent", {"type": "polynomial", "data": [1.0, float("inf")]},
     {"lambda0": [1.0, 0.0], "radius": 0.5, "use_trusted": False}),
    # finite coefficients whose sum overflows at x = 1
    ("spectrum", {"type": "polynomial", "data": [1.0, 1e308, 1e308]}, {}),
])
def test_non_finite_q_is_config_error(tmp_path, command, q, extra):
    code, out = _run(tmp_path, command, {"pencil": _h1_pencil(q=q), **extra})
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("command,payload", [
    ("counting", {"eigenvalues": [[1.0, 0.0], [2.0, 0.0]], "p": float("nan"), "t_values": [3.0]}),
    ("laurent", {"scalar": [0.0, 1.0, 1.0], "lambda0": [0.0, 0.0], "radius": float("nan")}),
    ("resolvent-scan", {"scalar": [1.0, 1.0, 1.0], "radii": [10.0, float("inf"), 7]}),
])
def test_non_finite_literal_is_config_error(tmp_path, command, payload):
    # json.dumps writes NaN and Infinity literals; json.load would accept them
    # and the schema's numeric bounds let them through
    code, out = _run(tmp_path, command, payload)
    assert code == 2
    assert not out.exists()


_CONFIG_ERRORS = {
    "invalid-json": ("counting", '{"p": 1.0,', "config is not valid JSON"),
    "constant-q-array": ("spectrum",
                         {"pencil": _h1_pencil(q={"type": "constant", "data": [1.0]})},
                         "constant q takes a single number"),
    "polynomial-q-number": ("spectrum",
                            {"pencil": _h1_pencil(q={"type": "polynomial", "data": 1.0})},
                            "polynomial q takes an array"),
    "samples-one-value": ("spectrum",
                          {"pencil": _h1_pencil(q={"type": "samples", "data": [1.5]})},
                          "need at least 2"),
    "samples-nested": ("spectrum",
                       {"pencil": _h1_pencil(q={"type": "samples", "data": [[1.0, 1.1]]})},
                       "config rejected"),
    "pencil-and-scalar": ("laurent", {"pencil": _h1_pencil(), "scalar": [0.0, 1.0, 1.0],
                                      "lambda0": [0.0, 0.0], "radius": 0.5},
                          "not both"),
    "no-pencil-no-scalar": ("laurent", {"lambda0": [0.0, 0.0], "radius": 0.5},
                            "needs a pencil section or a scalar fixture"),
    "q-range-order": ("check-ellipticity", {"kind": "helmholtz", "bc": [0, 1],
                                            "q_range": [2.0, 0.5], "cone": [1.0, 2.2]},
                      "q_range"),
    "cone-invalid": ("check-ellipticity", {"kind": "helmholtz", "bc": [0, 1],
                                           "q_range": [0.5, 2.0], "cone": [2.2, 1.0]},
                     "theta_min <= theta_max"),
    "radii-order": ("resolvent-scan", {"scalar": [1.0, 1.0, 1.0], "radii": [1000.0, 10.0, 7]},
                    "r_min < r_max"),
    "counting-both": ("counting", {"pencil": _h1_pencil(), "eigenvalues": [[1.0, 0.0]],
                                   "p": 1.0, "t_values": [3.0]},
                      "exactly one of"),
    "counting-neither": ("counting", {"p": 1.0, "t_values": [3.0]}, "exactly one of"),
    "oracle-rect-order": ("oracle",
                          {"oracle": {"kind": "helmholtz", "q": 1.0, "length": 1.0, "bc": [0, 1]},
                           "rect": [5.0, -60.0, -40.0, 40.0]},
                          "rect must be"),
}

# fixed thresholds that a config cannot set
_ELLIPTICITY = {"kind": "helmholtz", "bc": [0, 1], "q_range": [0.5, 2.0], "cone": [1.0, 2.2]}
_SCAN = {"scalar": [1.0, 1.0, 1.0], "radii": [10.0, 1000.0, 7]}
_CONFIG_ERRORS.update({
    "tolerance": ("check-ellipticity", {**_ELLIPTICITY, "tolerance": 1e-6}, "'tolerance'"),
    "refine_increment": ("spectrum", {"pencil": _h1_pencil(), "refine_increment": 4},
                         "'refine_increment'"),
    "oracle.max_abs_lambda": ("spectrum", {"pencil": _h1_pencil(),
                                           "oracle": {"max_abs_lambda": 100.0}}, "'oracle'"),
    "oracle.rtol": ("spectrum", {"pencil": _h1_pencil(), "oracle": {"rtol": 1e-3}}, "'oracle'"),
    "slope_target": ("resolvent-scan", {**_SCAN, "slope_target": -1.0}, "'slope_target'"),
    "slope_tol": ("resolvent-scan", {**_SCAN, "slope_tol": 1.0}, "'slope_tol'"),
    "circles.epsilon": ("resolvent-scan",
                        {**_SCAN, "circles": {"r_min": 8.0, "r_max": 256.0, "p": 1.0,
                                              "epsilon": 1.0}},
                        "'epsilon'"),
    "residual_tol": ("completeness", {"pencil": _h1_pencil(), "residual_tol": 0.5},
                     "'residual_tol'"),
    "chain_tol": ("completeness", {"pencil": _h1_pencil(), "chain_tol": 1e-4}, "'chain_tol'"),
})

# library checks of their own arguments raise ConfigError, a ValueError
_CONFIG_ERRORS.update({
    "circles-one-band": ("resolvent-scan",
                         {**_THREADS_CASES["resolvent-scan"],
                          "circles": {"r_min": 8.0, "r_max": 12.0, "p": 1.0}},
                         "need at least two radii"),
    "circles-order": ("resolvent-scan",
                      {**_THREADS_CASES["resolvent-scan"],
                       "circles": {"r_min": 64.0, "r_max": 8.0, "p": 1.0}},
                      "need 0 < r_min < r_max"),
    "ray-negative-axis": ("resolvent-scan", {**_SCAN, "rays": [1.0]}, "negative real axis"),
    "counting-schatten-p": ("counting", {"pencil": _h1_pencil(), "p": 0.5, "t_values": [3.0]},
                            "Schatten norms need p >= 1"),
    "completeness-m-exceeds": ("completeness", {"pencil": _h1_pencil(), "m_values": [1, 1000]},
                               "trusted clusters available"),
    "interval-order": ("spectrum", {"pencil": {**_h1_pencil(), "interval": [1.0, 0.0]}},
                       "need b > a"),
})


@pytest.mark.parametrize("case", list(_CONFIG_ERRORS))
def test_config_errors_exit_two_and_write_nothing(tmp_path, capsys, case):
    command, payload, message = _CONFIG_ERRORS[case]
    cfg = tmp_path / "config.json"
    cfg.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


def test_spectrum_polynomial_q(tmp_path):
    pencil = _h1_pencil(32, q={"type": "polynomial", "data": [1.0, 0.3]})
    code, out = _run(tmp_path, "spectrum", {"pencil": pencil})
    assert code == 0
    res = json.loads((out / "spectrum_manifest.json").read_text())["results"]
    assert res["n_trusted"] > 0


_THREAD_COUNT_CASES = {
    "counting": {"p": 1.0, "t_values": [1.0, 10.0, 100.0, 400.0]},
    "laurent": {"lambda0": [-9.5566231218, 13.0585180527], "radius": 2.0},
    "resolvent-scan": {
        "radii": [10.0, 1000.0, 7],
        "circles": {"r_min": 8.0, "r_max": 256.0, "p": 1.0, "n_theta": 32},
    },
}


def test_outputs_do_not_depend_on_caller_blas_threads(tmp_path):
    """The same CSVs under OPENBLAS_NUM_THREADS=1 and =2.

    Each run is a fresh process, because OpenBLAS reads the variable when it
    loads.  With two threads the n = 48 counting run's schatten_bound used to
    differ in its last digits.  On a machine with one CPU both runs use one
    thread, so there this test cannot fail.
    """
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    csvs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        files = {}
        for command, extra in _THREAD_COUNT_CASES.items():
            cfg = _write(tmp_path / f"{command}.json", {"pencil": _h1_pencil(48), **extra})
            out = tmp_path / f"{command}_{threads}"
            subprocess.run(
                [sys.executable, "-m", "itpencil.cli", command, "--config", cfg, "--out", str(out)],
                env=env, check=True, timeout=120,
            )
            files.update({f"{command}/{p.name}": p.read_bytes() for p in out.glob("*.csv")})
        csvs.append(files)
    assert len(csvs[0]) >= 5
    assert csvs[0] == csvs[1]


def _isinstance_fmt(v):
    """The CSV cell format by isinstance dispatch alone, the writer's reference."""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".16e")


def test_csv_writer_bytes_match_isinstance_dispatch(tmp_path):
    # the exact-type fast paths and the single write give the same bytes as
    # formatting every cell by isinstance and writing line by line
    cells = [True, False, np.bool_(True), np.bool_(False), 0, -7, 2**70, np.int64(-3),
             np.int32(12), 1.5, -0.0, np.float64(1 / 3), np.float64(-2.5e-300),
             float("inf"), -np.inf, float("nan"), np.float64(-np.nan), np.float32(0.1),
             5e-324, np.float64(1e308)]
    rows = [tuple(cells[i:] + cells[:i]) for i in range(len(cells))] + [()]
    header = [f"c{i}" for i in range(len(cells))]
    path = tmp_path / "mixed.csv"
    cli._write_csv(path, header, rows)
    expected = ",".join(header) + "\n"
    expected += "".join(",".join(_isinstance_fmt(v) for v in row) + "\n" for row in rows)
    assert path.read_bytes() == expected.encode()


def test_csv_columns_of_one_type_match_isinstance_dispatch(tmp_path):
    # rectangular tables take one formatter per column where every cell has
    # the same exact type; a float column with one int still writes that int
    tables = {
        "laurent": [(i, j, float(i) / 3.0, -float(j) * 1e-300) for i in range(3) for j in range(4)],
        "int_in_floats": [(0.5,), (3,), (np.float64(2.0),), (-0.0,)],
        "bools": [(True, np.bool_(True), 1.5), (False, np.bool_(False), 2.5)],
        "float32": [(np.float32(0.1), 1, np.float64(-0.0)), (np.float32(-2.5), 2, np.float64(-np.nan)),
                    (np.float32(np.inf), 3, np.float64(5e-324))],
    }
    for name, rows in tables.items():
        header = [f"c{k}" for k in range(len(rows[0]))]
        cli._write_csv(tmp_path / f"{name}.csv", header, rows)
        expected = ",".join(header) + "\n"
        expected += "".join(",".join(_isinstance_fmt(v) for v in row) + "\n" for row in rows)
        assert (tmp_path / f"{name}.csv").read_bytes() == expected.encode(), name
    assert (tmp_path / "int_in_floats.csv").read_text().splitlines()[2] == "3"


def test_calls_in_one_process_match_a_fresh_process(tmp_path):
    # the shared parser and the cached axis blocks carry nothing from one
    # call to the next: laurent, check-ellipticity (another seed), laurent
    laurent = _write(tmp_path / "laurent.json",
                     {"pencil": _h1_pencil(48), **_THREAD_COUNT_CASES["laurent"]})
    ellipticity = _write(tmp_path / "ellipticity.json", {
        "kind": "helmholtz", "bc": [0, 1], "q_range": [0.5, 2.0], "cone": [1.0, 2.2],
    })
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    subprocess.run(
        [sys.executable, "-m", "itpencil.cli", "laurent", "--config", laurent,
         "--out", str(tmp_path / "fresh")],
        env=env, check=True, timeout=120,
    )
    assert cli.main(["laurent", "--config", laurent, "--out", str(tmp_path / "first")]) == 0
    assert cli.main(["check-ellipticity", "--config", ellipticity, "--seed", "5",
                     "--out", str(tmp_path / "ellipticity")]) == 0
    assert cli.main(["laurent", "--config", laurent, "--out", str(tmp_path / "again")]) == 0
    fresh = {p.name: p.read_bytes() for p in (tmp_path / "fresh").iterdir()}
    assert len(fresh) >= 3
    for run in ("first", "again"):
        assert {p.name: p.read_bytes() for p in (tmp_path / run).iterdir()} == fresh


@pytest.fixture
def eig_calls(monkeypatch):
    """Counts np.linalg.eig calls made after the fixture is set up."""
    calls = []
    eig = np.linalg.eig

    def counted(*args, **kwargs):
        calls.append(1)
        return eig(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eig", counted)
    return calls


# the five subcommands that solve a pencil section, all on one section
_SECTION = _h1_pencil(48)
_SECTION_JOBS = {
    "spectrum": {},
    "resolvent-scan": _THREAD_COUNT_CASES["resolvent-scan"],
    "counting": _THREAD_COUNT_CASES["counting"],
    "completeness": {"n_samples": 3},
    "laurent": _THREAD_COUNT_CASES["laurent"],
}


def _section_outputs(tmp_path, command, section=_SECTION, **extra):
    """Exit code and output bytes of one subcommand on a pencil section."""
    tmp_path.mkdir(exist_ok=True)
    code, out = _run(tmp_path, command, {"pencil": section, **_SECTION_JOBS[command], **extra})
    return code, {p.name: p.read_bytes() for p in out.iterdir()}


def test_pencil_subcommands_on_one_section_share_one_solve(tmp_path, eig_calls):
    # the first solves on both grids; the other four read its stored solution,
    # and none writes into it (a write would raise, exit 1 and write nothing)
    calls = {}
    for command in _SECTION_JOBS:
        before = len(eig_calls)
        code, files = _section_outputs(tmp_path, command)
        assert code == 0 and files, command
        calls[command] = len(eig_calls) - before
    assert calls == {"spectrum": 2, "resolvent-scan": 0, "counting": 0, "completeness": 0,
                     "laurent": 0}
    # the canonical JSON keys the store: key order and a written-out default do not matter
    shuffled = dict(reversed(list(_SECTION.items())))
    assert _section_outputs(tmp_path, "spectrum", shuffled, lambda_prime="auto")[0] == 0
    assert len(eig_calls) == 2


_SECTION_CHANGES = {
    "kind": {"kind": "schrodinger"},
    "q": {"q": {"type": "constant", "data": 1.3}},
    "interval": {"interval": [0.0, 2.0]},
    "n_pts": {"n_pts": 40},
    "bc": {"bc": [1, 3]},
}


@pytest.mark.parametrize("change", [*_SECTION_CHANGES, "lambda_prime"])
def test_a_changed_section_or_reference_point_solves_again(tmp_path, eig_calls, change):
    assert _section_outputs(tmp_path, "spectrum")[0] == 0
    assert len(eig_calls) == 2
    section = {**_SECTION, **_SECTION_CHANGES.get(change, {})}
    extra = {"lambda_prime": [50.0, 0.0]} if change == "lambda_prime" else {}
    assert _section_outputs(tmp_path, "spectrum", section, **extra)[0] == 0
    assert len(eig_calls) == 4


def test_a_stored_solve_writes_the_bytes_of_a_fresh_one(tmp_path):
    fresh = {}
    for command in _SECTION_JOBS:
        cli._stored_solve.cache_clear()
        fresh[command] = _section_outputs(tmp_path / "fresh", command)
    kept = {command: _section_outputs(tmp_path / "kept", command) for command in _SECTION_JOBS}
    assert cli._stored_solve.cache_info().hits == len(_SECTION_JOBS)
    assert kept == fresh


def test_a_solve_that_raises_is_not_kept(tmp_path, monkeypatch, eig_calls):
    def no_convergence(*args, **kwargs):
        eig_calls.append(1)
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eig", no_convergence)
        for calls in (1, 2):
            with pytest.raises(EigensolverError, match="did not converge"):
                cli._solve({"pencil": _SECTION})
            assert len(eig_calls) == calls  # solved again: the refined grid's eig raised
    assert _section_outputs(tmp_path, "spectrum")[0] == 0
    assert len(eig_calls) == 4


@pytest.mark.parametrize("q, bc", [(1.0, [0, 1]), (1.3, [1, 3])], ids=["simple", "double-at-0"])
def test_a_stored_solution_is_read_only(q, bc):
    # bc (1, 3) at q = 1.3 has a double eigenvalue at 0, whose chain is built from a Schur form
    cfg = {"pencil": {**_SECTION, "q": {"type": "constant", "data": q}, "bc": bc}}
    sol = cli._solve(cfg)
    assert cli._solve(cfg) is sol
    assert any(cl.multiplicity > 1 for cl in sol.clusters) == (q == 1.3)
    pencil = sol.pencil
    chains = [u for cl in sol.clusters for ch in cl.chains for u in ch.vectors]
    arrays = [sol.eigenvalues, sol.right_u, sol.residuals, sol.trust_mask, sol.companion.matrix,
              pencil.A0, pencil.A1, pencil.A2, pencil.mass, pencil.weights, pencil.basis,
              pencil.grids[0].nodes, pencil.grids[0].weights, *chains]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = array

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


def test_spectrum_single_grid(tmp_path):
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
        "--no-refine",
    )
    assert code == 0
    res = json.loads((out / "spectrum_manifest.json").read_text())["results"]
    assert res["n_trusted"] > 0
    lp = complex(*res["lambda_prime"])
    assert lp.imag == 0.0 and 1.0 <= lp.real <= 100.0


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


def test_sampled_q_needs_single_grid(tmp_path):
    # samples match the base grid; the refined grid of the two-grid solve
    # has more nodes, so only --no-refine can use them
    pencil = {
        "kind": "helmholtz",
        "q": {"type": "samples", "data": [1.0 + 0.02 * k for k in range(24)]},
        "interval": [0.0, 1.0],
        "n_pts": 24,
        "bc": [0, 1],
    }
    code, _ = _run(tmp_path, "spectrum", {"pencil": pencil})
    assert code == 2
    code, out = _run(tmp_path, "spectrum", {"pencil": pencil}, "--no-refine")
    assert code == 0
    assert (out / "spectrum_eigenvalues.csv").exists()


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
    payload = {
        "eigenvalues": [[1.0, 0.0], [2.0, 0.0], [4.0, 0.0]],
        "lambda_prime": [0.0, 0.0],
        "p": 1.0,
        "t_values": [1.5, 3.0, 10.0],
    }
    cfg = _write(tmp_path / "counting.json", payload)
    out = tmp_path / "out"
    assert cli.main(["counting", "--config", cfg, "--out", str(out)]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert cli.main(["counting", "--config", cfg, "--out", str(out)]) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


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

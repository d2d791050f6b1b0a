"""CLI contract: subcommands, exit codes, file formats, determinism."""

import dataclasses
import gc
import json
import math
import os
import resource
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import qmaflow
from qmaflow import cli
from qmaflow.cli import (
    EXIT_INVALID,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_POSITIVITY,
    EXIT_STIFF,
    RunConfig,
    main,
    read_snapshot,
    write_snapshot,
)
from qmaflow.errors import SpecValidationError
from qmaflow.fields import ScalarField, TorusGrid
from qmaflow.flow import DiagnosticsRecord

from support import traced_peak


def base_config(out_dir, **overrides):
    config = {
        "n": 2,
        "grid": {"active_dims": [0, 4], "sizes": [16, 16]},
        "omega_h": {"c": 1.0, "rho": [{"k": [0, 1], "amplitude": 0.05}]},
        "f": {
            "manufactured": {
                "u_star": [
                    {"k": [1, 0], "amplitude": 0.1},
                    {"k": [1, 1], "amplitude": 0.05},
                ]
            }
        },
        "u0": [],
        "sigma": 0.2,
        "tol_steady": 1e-6,
        "t_max": 100.0,
        "snapshot_interval": 10.0,
        "seed": 0,
        "output_dir": str(out_dir),
    }
    config.update(overrides)
    return config


def write_config(tmp_path, config, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def run_python(args, timeout=60, preexec_fn=None):
    """``python args`` in a child process, so a hang or a crash fails the test."""
    env = dict(os.environ, PYTHONPATH=str(Path(qmaflow.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
        preexec_fn=preexec_fn,
    )


def run_cli(argv, timeout=60, preexec_fn=None):
    """``qmaflow`` in a child process."""
    return run_python(["-m", "qmaflow.cli", *argv], timeout, preexec_fn)


# -- identities ----------------------------------------------------------------


def test_identities_exit_zero_and_deterministic_report(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["identities", "--n", "2", "--trials", "3", "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["all_passed"] is True
    assert {r["name"] for r in payload["identities"]} >= {
        "pfaffian_squared_equals_det",
        "metric_form_dual_path",
    }
    text = capsys.readouterr().out
    assert "pass" in text


def test_identities_rejects_n_one(tmp_path, capsys):
    code = main(["identities", "--n", "1", "--out", str(tmp_path / "r.json")])
    assert code == EXIT_INVALID
    assert "1/(n-1)" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_identities_rejects_trial_count_below_one(tmp_path, capsys, trials):
    out = tmp_path / "r.json"
    code = main(["identities", "--n", "2", "--trials", trials, "--out", str(out)])
    assert code == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "trials" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("out", ["missing/r.json", "file.txt/r.json", "."])
def test_identities_unwritable_out_exits_two(tmp_path, capsys, out):
    (tmp_path / "file.txt").write_text("not a directory")
    code = main(["identities", "--n", "2", "--trials", "1", "--out", str(tmp_path / out)])
    assert code == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_usage_error_exit_code(capsys):
    assert main(["identities"]) == EXIT_INVALID  # missing required --n


def test_identities_loads_numpy_random_before_the_suite(tmp_path):
    # the suite's generators need numpy.random: the command loads it on
    # entry, so the suite, wrapped by name as the benchmark wraps it, imports
    # nothing inside its window
    script = """
import sys
from qmaflow import cli

seen = {}
suite = cli.run_identity_suite


def wrapped(*args, **kwargs):
    seen["entry"] = set(sys.modules)
    try:
        return suite(*args, **kwargs)
    finally:
        seen["exit"] = set(sys.modules)


cli.run_identity_suite = wrapped
assert "numpy.random" not in sys.modules, "numpy.random was loaded at import"
assert cli.main(["identities", "--n", "3", "--trials", "2", "--out", sys.argv[1]]) == cli.EXIT_OK
assert "numpy.random" in seen["entry"], "numpy.random was not loaded on entry"
assert seen["exit"] == seen["entry"], sorted(seen["exit"] - seen["entry"])
"""
    proc = run_python(["-c", script, str(tmp_path / "r.json")])
    assert proc.returncode == 0, proc.stderr


# -- flow -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def flow_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("flowrun")
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, base_config(out_dir))
    code = main(["flow", "--config", str(path)])
    return code, path, out_dir


def test_flow_converges_and_writes_outputs(flow_run):
    code, _, out_dir = flow_run
    assert code == EXIT_OK
    result = json.loads((out_dir / "result.json").read_text())
    assert result["converged"] is True
    assert abs(result["b_tilde"]) < 1e-6
    assert result["residual"] <= 1e-6
    assert result["wall_time_s"] > 0
    assert result["halvings"] == 0
    assert result["evaluations"] == result["steps"] + 1  # no step was retried
    assert (out_dir / "u_final.snap").exists()
    snaps = sorted(out_dir.glob("u_0*.snap"))
    assert snaps  # interval snapshots were emitted


def test_flow_never_loads_numpy_random(tmp_path):
    # no flow draws a random number: neither the package nor a manufactured
    # flow through the command loads numpy.random
    script = """
import sys
import qmaflow

assert "numpy.random" not in sys.modules, "numpy.random was loaded by import qmaflow"
from qmaflow import cli

assert cli.main(["flow", "--config", sys.argv[1]]) == cli.EXIT_OK
assert "numpy.random" not in sys.modules, "numpy.random was loaded by the flow"
"""
    proc = run_python(["-c", script, str(write_config(tmp_path, base_config(tmp_path / "out")))])
    assert proc.returncode == 0, proc.stderr


def test_flow_diagnostics_rows_increase(flow_run):
    _, _, out_dir = flow_run
    lines = (out_dir / "diagnostics.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["step", "t", "dt", "sup_abs_ut"]
    steps = [int(line.split(",")[0]) for line in lines[1:]]
    ts = [float(line.split(",")[1]) for line in lines[1:]]
    assert steps == sorted(steps) and len(set(steps)) == len(steps)
    assert all(t2 > t1 for t1, t2 in zip(ts, ts[1:]))


def test_flow_diagnostics_header_is_the_record_fields(flow_run):
    # the CSV schema is stated once, by the record's dataclass fields
    _, _, out_dir = flow_run
    header = (out_dir / "diagnostics.csv").read_text().splitlines()[0]
    assert header.split(",") == [field.name for field in dataclasses.fields(DiagnosticsRecord)]


def test_flow_snapshot_round_trip_is_bit_exact(flow_run, tmp_path):
    _, _, out_dir = flow_run
    header, field_values = read_snapshot(out_dir / "u_final.snap")
    grid = TorusGrid(
        n=header["n"],
        active_dims=tuple(header["active_dims"]),
        sizes=tuple(header["sizes"]),
    )
    field = ScalarField(grid, field_values)
    copy_path = tmp_path / "copy.snap"
    write_snapshot(copy_path, field, header["t"])
    header2, values2 = read_snapshot(copy_path)
    assert header2 == header
    assert np.array_equal(values2, field_values)


def test_flow_check_round_trip(flow_run, capsys):
    _, config_path, out_dir = flow_run
    code = main(
        ["check", "--config", str(config_path), "--snapshot", str(out_dir / "u_final.snap")]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "residual" in out and "b_tilde" in out


def test_flow_invalid_config_exit_two(tmp_path):
    path = write_config(tmp_path, {"n": 2}, "broken.json")
    assert main(["flow", "--config", str(path)]) == EXIT_INVALID
    path2 = write_config(tmp_path, base_config(tmp_path / "o", n=1), "n1.json")
    assert main(["flow", "--config", str(path2)]) == EXIT_INVALID
    # unresolvable wavevector
    bad = base_config(tmp_path / "o2")
    bad["f"] = [{"k": [99, 0], "amplitude": 0.1}]
    path3 = write_config(tmp_path, bad, "band.json")
    assert main(["flow", "--config", str(path3)]) == EXIT_INVALID


@pytest.mark.parametrize("command", ["flow", "check"])
def test_grid_too_large_exits_two(tmp_path, capsys, command):
    # 2^64 points: rejected when the config is read, before any allocation
    config = base_config(tmp_path / "o", grid={"active_dims": [0, 4], "sizes": [2**32, 2**32]})
    path = write_config(tmp_path, config)
    argv = [command, "--config", str(path)]
    if command == "check":
        argv += ["--snapshot", str(tmp_path / "u.snap")]
    assert main(argv) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error:") and "too large" in err


RUN4_CONFIG = {
    "n": 2,
    "grid": {"active_dims": list(range(8)), "sizes": [4] * 8},
    "omega_h": {"c": 1.0, "rho": [{"k": [0, 0, 0, 1, 0, 0, 1, 0], "amplitude": 0.02}]},
    "f": {
        "manufactured": {
            "u_star": [
                {"k": [1, 0, 0, 0, 0, 0, 0, 0], "amplitude": 0.05},
                {"k": [0, 1, 0, 0, 0, 1, 0, 0], "amplitude": 0.03},
                {"k": [0, 0, 1, 0, 0, 0, 0, -1], "amplitude": 0.02},
            ]
        }
    },
    "tol_steady": 1e-6,
    "t_max": 100.0,
}


def _arrays_reachable_from(root):
    """Every numpy array reachable from ``root`` through containers and instances (not types or modules)."""
    seen, stack, arrays = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        stack.extend(gc.get_referents(obj))
    return arrays


def test_build_problem_never_holds_a_full_background_form(tmp_path):
    # run4's 4^8 problem: the background is built, checked and returned on its
    # packed slots, so setup peaks below one full (4, 4) + grid form field and
    # keeps none alive for the solve
    config = RunConfig.from_json(RUN4_CONFIG, tmp_path)
    grid = config.grid
    full_form_bytes = (2 * grid.n) ** 2 * grid.num_points * np.dtype(complex).itemsize
    problem, peak = traced_peak(lambda: cli._build_problem(config))
    assert peak < full_form_bytes
    shapes = [a.shape for a in _arrays_reachable_from(problem)]
    assert (3,) + grid.shape in shapes  # the packed background
    assert (4, 4) + grid.shape not in shapes


def _cap_address_space():
    limit = 1 << 30  # several times what the program needs, far below the grid
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("command", ["flow", "check"])
def test_grid_beyond_memory_exits_two(tmp_path, command):
    # 2^40 points pass the size check, but no field of them can be allocated;
    # the child's address space is capped, so the first allocation fails at once
    config = base_config(tmp_path / "o", grid={"active_dims": [0, 4], "sizes": [2**20, 2**20]})
    path = write_config(tmp_path, config)
    argv = [command, "--config", str(path)]
    if command == "check":
        argv += ["--snapshot", str(tmp_path / "u.snap")]
    proc = run_cli(argv, preexec_fn=_cap_address_space)
    assert proc.returncode == EXIT_INVALID, proc.stderr
    assert proc.stderr.startswith("error:") and "allocate" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("output_dir", ["file.txt", "file.txt/out"])
def test_flow_unwritable_output_dir_exits_two(tmp_path, capsys, output_dir):
    (tmp_path / "file.txt").write_text("not a directory")
    path = write_config(tmp_path, base_config(tmp_path / output_dir))
    assert main(["flow", "--config", str(path)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("name", ["u_final.snap", "result.json", "u_00000000.snap"])
def test_flow_output_file_collision_exits_two(tmp_path, capsys, name):
    # a directory where an output file goes: the write fails, the run reports it
    out_dir = tmp_path / "out"
    (out_dir / name).mkdir(parents=True)
    path = write_config(tmp_path, base_config(out_dir))
    assert main(["flow", "--config", str(path)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and "Traceback" not in err


def test_flow_initial_positivity_exit_three(tmp_path):
    config = base_config(tmp_path / "o3", u0=[{"k": [1, 0], "amplitude": 10.0}])
    path = write_config(tmp_path, config, "bad-u0.json")
    assert main(["flow", "--config", str(path)]) == EXIT_POSITIVITY


@pytest.mark.parametrize("n", [2, 3])
def test_flow_overflowing_background_exits_two(tmp_path, n):
    # c = 1e155 is finite, but S_n = c^n is not: a config error, named once,
    # with no numpy warning and no traceback (it was exit 3 for n = 3)
    config = base_config(
        tmp_path / "o", n=n, grid={"active_dims": [0, 2 * n], "sizes": [8, 8]}, omega_h={"c": 1e155}
    )
    proc = run_cli(["flow", "--config", str(write_config(tmp_path, config))])
    assert proc.returncode == EXIT_INVALID, proc.stderr
    assert proc.stderr.startswith("error: the background form overflows")
    assert proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("command", ["flow", "check"])
def test_non_finite_right_hand_side_exits_two(flow_run, tmp_path, capsys, monkeypatch, command):
    # a state that passes the guard where log S_n - f is not finite: the
    # input's fault, not the initial data's positivity
    def infinite_source_at(call):
        def wrapped(u, omega_h, f, **kwargs):
            values = f.values.copy()
            values[2, 3] = -math.inf
            return call(u, omega_h, ScalarField(f.grid, values), **kwargs)

        return wrapped

    monkeypatch.setattr(cli, "run_to_steady", infinite_source_at(cli.run_to_steady))
    monkeypatch.setattr(cli, "flow_rhs", infinite_source_at(cli.flow_rhs))
    _, config_path, out_dir = flow_run
    if command == "check":
        argv = ["check", "--config", str(config_path), "--snapshot", str(out_dir / "u_final.snap")]
    else:
        argv = ["flow", "--config", str(write_config(tmp_path, base_config(tmp_path / "o")))]
    assert main(argv) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: the right-hand side log S_n - f is inf at grid point (2, 3)")


def test_flow_stall_at_positivity_margin_exits_four(tmp_path):
    # a rough source drives the flat form to the positivity margin, where the
    # accepted step shrinks far below the first cap; the run must stop as
    # stiff instead of crawling toward t_max (a subprocess, so a stall fails)
    config = base_config(
        tmp_path / "o",
        omega_h={"c": 1.0},
        f=[{"k": [3, 2], "amplitude": 40.0}],
        tol_steady=1e-8,
        t_max=0.05,
        snapshot_interval=0,
    )
    path = write_config(tmp_path, config)
    proc = run_cli(["flow", "--config", str(path)])
    assert proc.returncode == EXIT_STIFF
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert "last accepted step" in proc.stderr


@pytest.mark.parametrize("interval", [1e-300, 5e-324])
def test_flow_tiny_snapshot_interval_terminates(tmp_path, interval):
    # an interval below the rounding of t: every step writes a snapshot, and
    # the run still ends
    out_dir = tmp_path / "o"
    path = write_config(tmp_path, base_config(out_dir, snapshot_interval=interval))
    proc = run_cli(["flow", "--config", str(path)])
    assert proc.returncode == EXIT_OK, proc.stderr
    rows = (out_dir / "diagnostics.csv").read_text().strip().splitlines()[1:]
    assert len(list(out_dir.glob("u_0*.snap"))) == len(rows)


# -- check ------------------------------------------------------------------------


def test_check_zero_potential_against_nontrivial_source(flow_run, tmp_path):
    _, config_path, _ = flow_run
    grid = TorusGrid(n=2, active_dims=(0, 4), sizes=(16, 16))
    snap = tmp_path / "zero.snap"
    write_snapshot(snap, ScalarField.zeros(grid), 0.0)
    code = main(["check", "--config", str(config_path), "--snapshot", str(snap)])
    assert code == EXIT_NOT_CONVERGED


@pytest.mark.parametrize(
    "tol",
    [["--tol", "nan"], ["--tol", "inf"], ["--tol", "-1"], ["--tol=-inf"]],
    ids=["nan", "inf", "-1", "-inf"],
)
def test_check_rejects_non_finite_or_negative_tol(flow_run, capsys, tol):
    _, config_path, out_dir = flow_run
    snapshot = str(out_dir / "u_final.snap")
    code = main(["check", "--config", str(config_path), "--snapshot", snapshot] + tol)
    assert code == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_check_truncated_snapshot_exit_two(flow_run, tmp_path):
    _, config_path, out_dir = flow_run
    raw = (out_dir / "u_final.snap").read_bytes()
    broken = tmp_path / "trunc.snap"
    broken.write_bytes(raw[:-17])
    code = main(["check", "--config", str(config_path), "--snapshot", str(broken)])
    assert code == EXIT_INVALID


def test_check_shape_mismatch_exit_two(flow_run, tmp_path):
    _, config_path, _ = flow_run
    other = TorusGrid(n=2, active_dims=(0, 4), sizes=(8, 8))
    snap = tmp_path / "wrong-shape.snap"
    write_snapshot(snap, ScalarField.zeros(other), 0.0)
    code = main(["check", "--config", str(config_path), "--snapshot", str(snap)])
    assert code == EXIT_INVALID


# -- config parsing ------------------------------------------------------------------


def test_run_config_validation(tmp_path):
    with pytest.raises(SpecValidationError):
        RunConfig.from_json({"n": 2}, tmp_path)
    with pytest.raises(SpecValidationError):
        RunConfig.from_json(base_config(tmp_path, sigma=-1.0), tmp_path)
    with pytest.raises(SpecValidationError):
        RunConfig.from_json(base_config(tmp_path, f={"wrong": {}}), tmp_path)
    config = RunConfig.from_json(base_config(tmp_path / "x"), tmp_path)
    assert config.u_star_spec is not None and config.f_spec is None
    # absolute output_dir entries win over the config's directory
    assert config.output_dir == tmp_path / "x"


# JSON values of the wrong type, which would otherwise be coerced: integer fields
# take JSON integers only, number fields JSON numbers only, never strings or booleans,
# and output_dir a JSON string only
MALFORMED_TYPES = {
    "k-1.5": ("f.k", [1.5, 0]),
    "sizes-string": ("sizes", "88"),
    "active_dims-string": ("active_dims", "04"),
    "sizes-float": ("sizes", [16.9, 16]),
    "n-float": ("n", 2.7),
    "n-string": ("n", "2"),
    "sigma-true": ("sigma", True),
    "amplitude-string": ("f.amplitude", "0.1"),
    "t_max-string": ("t_max", "1e3"),
    "seed-float": ("seed", 3.9),
    "output_dir-null": ("output_dir", None),
    "output_dir-number": ("output_dir", 5),
    "output_dir-list": ("output_dir", ["a"]),
    "output_dir-true": ("output_dir", True),
}


def _malformed_config(tmp_path, case):
    key, value = MALFORMED_TYPES[case]
    config = base_config(tmp_path / "o")
    if key in ("sizes", "active_dims"):
        config["grid"][key] = value
    elif key.startswith("f."):
        config["f"]["manufactured"]["u_star"][0][key[2:]] = value
    else:
        config[key] = value
    return config


@pytest.mark.parametrize("case", list(MALFORMED_TYPES))
def test_config_values_of_the_wrong_json_type_are_rejected(tmp_path, case):
    with pytest.raises(SpecValidationError, match="must be"):
        RunConfig.from_json(_malformed_config(tmp_path, case), tmp_path)


def test_flow_on_a_fractional_wavevector_exits_two(tmp_path):
    # k = [1.5, 0] was truncated to (1, 0), a different problem
    path = write_config(tmp_path, _malformed_config(tmp_path, "k-1.5"))
    proc = run_cli(["flow", "--config", str(path)])
    assert proc.returncode == EXIT_INVALID
    assert proc.stderr.startswith("error:") and "integer" in proc.stderr


# -- non-finite and malformed input ---------------------------------------------------


def _nan_config(tmp_path, case):
    config = base_config(tmp_path / "o")
    if case in ("sigma", "t_max", "tol_steady", "snapshot_interval"):
        config[case] = math.nan if case != "t_max" else math.inf
    elif case == "tol_steady.zero":  # osc_ut >= 0 never falls below it
        config["tol_steady"] = 0.0
    elif case == "snapshot_interval.negative":
        config["snapshot_interval"] = -5.0
    elif case == "omega_h.c":
        config["omega_h"]["c"] = math.nan
    elif case == "f.amplitude":
        config["f"] = [{"k": [1, 0], "amplitude": math.nan}]
    elif case == "u0.phase":
        config["u0"] = [{"k": [1, 0], "amplitude": 0.1, "phase": math.inf}]
    elif case == "deep_nesting":
        path = tmp_path / "run.json"
        path.write_text("[" * 100_000)
        return path
    return write_config(tmp_path, config)


def _bad_snapshot(tmp_path, case):
    grid = TorusGrid(n=2, active_dims=(0, 4), sizes=(16, 16))
    snap = tmp_path / "bad.snap"
    if case == "snapshot.nan":
        values = np.zeros(grid.shape)
        values[3, 5] = math.nan
        write_snapshot(snap, ScalarField(grid, values), 0.0)
    elif case == "snapshot.deep_nesting":
        snap.write_bytes(b"[" * 100_000 + b"\n" + bytes(8 * 256))
    else:  # a header without "sizes"
        header = {"format": "qmaflow-snapshot", "n": 2, "active_dims": [0, 4]}
        snap.write_bytes(json.dumps(header).encode() + b"\n" + bytes(8 * 256))
    return snap


@pytest.mark.parametrize(
    "case",
    [
        "sigma",
        "t_max",
        "tol_steady",
        "snapshot_interval",
        "tol_steady.zero",
        "snapshot_interval.negative",
        "omega_h.c",
        "f.amplitude",
        "u0.phase",
        "deep_nesting",
        "snapshot.nan",
        "snapshot.no_sizes",
        "snapshot.deep_nesting",
    ],
)
def test_non_finite_or_malformed_input_exit_two(tmp_path, capsys, case):
    if case.startswith("snapshot."):
        config = write_config(tmp_path, base_config(tmp_path / "o"))
        snap = _bad_snapshot(tmp_path, case)
        code = main(["check", "--config", str(config), "--snapshot", str(snap)])
    else:
        code = main(["flow", "--config", str(_nan_config(tmp_path, case))])
    assert code == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err

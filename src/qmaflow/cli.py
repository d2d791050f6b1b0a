"""Command-line entry point: run configs in, diagnostics and snapshots out.

Subcommands
-----------
identities   run the randomized identity suite, write a JSON report
flow         integrate a run config to steady state, write diagnostics.csv,
             snapshots and result.json
check        evaluate the stationary residual of a saved snapshot

Exit codes: 0 success (flow: converged; check: residual within tolerance),
1 clean run that missed its target, 2 invalid arguments/config/input files,
3 initial-positivity violation, 4 stiffness failure.

The run config is a single JSON document; all field inputs (source, initial
data, background perturbation, manufactured stationary potential) are trig
term lists [{"k": [...], "amplitude": a, "phase": p}, ...] over the active
dimensions.  Snapshots are a one-line JSON header followed by the raw
row-major little-endian float64 payload.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import PositivityError, SpecValidationError, StiffnessError
from .fields import ScalarField, TorusGrid, TrigPolySpec, build_omega_h, sample
from .fields import json_int, json_ints, json_number
from .flow import DiagnosticsRecord, run_to_steady
from .model import build_model
from .operators import flow_rhs
from .verify import build_manufactured, run_identity_suite

EXIT_OK = 0
EXIT_NOT_CONVERGED = 1
EXIT_INVALID = 2
EXIT_POSITIVITY = 3
EXIT_STIFF = 4

SNAPSHOT_MAGIC = "qmaflow-snapshot"


# -- run configuration -------------------------------------------------------


@dataclass
class RunConfig:
    n: int
    grid: TorusGrid
    omega_h_c: float
    omega_h_rho: TrigPolySpec | None
    f_spec: TrigPolySpec | None
    u_star_spec: TrigPolySpec | None  # set iff the source is manufactured
    u0_spec: TrigPolySpec | None
    sigma: float
    tol_steady: float
    t_max: float
    snapshot_interval: float
    seed: int
    output_dir: Path

    @classmethod
    def from_json(cls, data: dict, base_dir: Path) -> "RunConfig":
        """Parse and validate a config document.

        Integer fields take JSON integers only and number fields JSON
        numbers only (no strings, no booleans); every float must be finite.
        ``output_dir`` takes a JSON string only.
        """
        try:
            n = json_int(data["n"], "n")
            grid_spec = data["grid"]
            grid = TorusGrid(
                n=n,
                active_dims=json_ints(grid_spec["active_dims"], "active_dims"),
                sizes=json_ints(grid_spec["sizes"], "sizes"),
            )
            oh = data.get("omega_h", {})
            omega_h_c = json_number(oh.get("c", 1.0), "omega_h.c")
            omega_h_rho = (
                TrigPolySpec.from_json(oh["rho"]) if oh.get("rho") else None
            )
            f_data = data.get("f", [])
            u_star_spec = None
            f_spec = None
            if isinstance(f_data, dict):
                if "manufactured" not in f_data:
                    raise SpecValidationError(
                        'the "f" object form must be {"manufactured": {"u_star": [...]}}'
                    )
                u_star_spec = TrigPolySpec.from_json(
                    f_data["manufactured"]["u_star"]
                )
            else:
                f_spec = TrigPolySpec.from_json(f_data)
            u0_spec = (
                TrigPolySpec.from_json(data["u0"]) if data.get("u0") else None
            )
            output_dir = data.get("output_dir", "out")
            if not isinstance(output_dir, str):
                raise SpecValidationError(f"output_dir must be a string, got {output_dir!r}")
            config = cls(
                n=n,
                grid=grid,
                omega_h_c=omega_h_c,
                omega_h_rho=omega_h_rho,
                f_spec=f_spec,
                u_star_spec=u_star_spec,
                u0_spec=u0_spec,
                sigma=json_number(data.get("sigma", 0.2), "sigma"),
                tol_steady=json_number(data.get("tol_steady", 1e-8), "tol_steady"),
                t_max=json_number(data.get("t_max", 1000.0), "t_max"),
                snapshot_interval=json_number(
                    data.get("snapshot_interval", 0.0), "snapshot_interval"
                ),
                seed=json_int(data.get("seed", 0), "seed"),
                output_dir=base_dir / output_dir,
            )
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
            if isinstance(exc, SpecValidationError):
                raise
            raise SpecValidationError(f"invalid run config: {exc}") from exc
        build_model(config.n)  # range check, n = 1 gets its dedicated message
        for name in ("omega_h_c", "sigma", "tol_steady", "t_max", "snapshot_interval"):
            if not math.isfinite(getattr(config, name)):
                raise SpecValidationError(f"{name} must be finite, got {getattr(config, name)}")
        if config.sigma <= 0 or config.tol_steady <= 0 or config.t_max <= 0:
            # osc_ut >= 0, so a zero tolerance is never met
            raise SpecValidationError("sigma, tol_steady, t_max must be positive")
        if config.snapshot_interval < 0:
            raise SpecValidationError(
                f"snapshot_interval must be non-negative (0 writes no periodic snapshots), "
                f"got {config.snapshot_interval}"
            )
        for spec in (config.omega_h_rho, config.f_spec, config.u_star_spec, config.u0_spec):
            if spec is not None:
                spec.validate_on(config.grid)
        return config

    @classmethod
    def load(cls, path) -> "RunConfig":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except OSError as exc:
            raise SpecValidationError(f"cannot read config {path}: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, deep nesting
            raise SpecValidationError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_json(data, path.parent)


def _build_problem(config: RunConfig):
    """Background form, source and initial data for a run config.

    The background comes packed (``fields.PackedTwoForm``); neither ``flow``
    nor ``check`` builds the full (2n, 2n) + grid array of it.
    """
    model = build_model(config.n)
    if config.u_star_spec is not None:
        problem = build_manufactured(
            config.u_star_spec,
            config.grid,
            c=config.omega_h_c,
            rho=config.omega_h_rho,
        )
        omega_h, f = problem.omega_h, problem.f
    else:
        omega_h = build_omega_h(
            model, config.grid, config.omega_h_c, config.omega_h_rho
        )
        f = (
            sample(config.f_spec, config.grid)
            if config.f_spec is not None
            else ScalarField.zeros(config.grid)
        )
    u0 = (
        sample(config.u0_spec, config.grid)
        if config.u0_spec is not None
        else ScalarField.zeros(config.grid)
    )
    return omega_h, f, u0


# -- snapshot format ----------------------------------------------------------


def write_snapshot(path, field: ScalarField, t: float, name: str = "u"):
    """One-line JSON header, then the row-major little-endian float64 payload."""
    grid = field.grid
    header = {
        "format": SNAPSHOT_MAGIC,
        "n": grid.n,
        "active_dims": list(grid.active_dims),
        "sizes": list(grid.sizes),
        "t": t,
        "field": name,
        "byte_order": "little",
        "dtype": "float64",
    }
    path = Path(path)
    with path.open("wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def read_snapshot(path, grid: TorusGrid | None = None):
    """Read a snapshot; a malformed or non-finite one is a SpecValidationError."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise SpecValidationError(f"cannot read snapshot {path}: {exc}") from exc
    newline = raw.find(b"\n")
    if newline < 0:
        raise SpecValidationError(f"snapshot {path} has no header line")
    try:
        header = json.loads(raw[:newline].decode("utf-8"))
        sizes = json_ints(header["sizes"], "sizes")
        active_dims = json_ints(header.get("active_dims", []), "active_dims")
        n = json_int(header.get("n", -1), "n")
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise SpecValidationError(f"snapshot {path} has a bad header: {exc!r}") from exc
    if header.get("format") != SNAPSHOT_MAGIC:
        raise SpecValidationError(f"snapshot {path} has an unknown format tag")
    payload = raw[newline + 1 :]
    expected = math.prod(sizes) * 8
    if len(payload) != expected:
        raise SpecValidationError(
            f"snapshot {path} payload has {len(payload)} bytes, expected {expected}"
        )
    try:
        values = np.frombuffer(payload, dtype="<f8").reshape(sizes)
    except ValueError as exc:  # negative or too many sizes
        raise SpecValidationError(f"snapshot {path} has bad sizes {list(sizes)}") from exc
    if not np.all(np.isfinite(values)):
        raise SpecValidationError(f"snapshot {path} payload is not finite")
    if grid is not None:
        if active_dims != grid.active_dims or sizes != grid.sizes or n != grid.n:
            raise SpecValidationError(
                "snapshot grid does not match the config grid "
                f"(snapshot: n={header.get('n')}, dims={header.get('active_dims')}, "
                f"sizes={list(sizes)})"
            )
        return header, ScalarField(grid, values.copy())
    return header, values.copy()


# -- subcommands ---------------------------------------------------------------


def cmd_identities(args) -> int:
    # the suite's generators need numpy.random; load it at start, not in the first trial
    import numpy.random  # noqa: F401

    try:
        reports = run_identity_suite(args.n, trials=args.trials, seed=args.seed)
    except (SpecValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    payload = {
        "n": args.n,
        "trials": args.trials,
        "seed": args.seed,
        "identities": [r.to_json() for r in reports],
        "all_passed": all(r.passed for r in reports),
    }
    out = Path(args.out)
    try:
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return EXIT_INVALID
    width = max(len(r.name) for r in reports)
    print(f"identity suite: n={args.n} trials={args.trials} seed={args.seed}")
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"  {r.name:<{width}}  max_rel_err={r.max_rel_err:.3e}  tol={r.tol:.0e}  {status}")
    print(f"report written to {out}")
    return EXIT_OK if payload["all_passed"] else EXIT_NOT_CONVERGED


def cmd_flow(args) -> int:
    try:
        config = RunConfig.load(args.config)
        omega_h, f, u0 = _build_problem(config)
    except (SpecValidationError, PositivityError, MemoryError) as exc:
        # a bad background form, an unreachable manufactured target or a grid
        # too large for memory is a config problem; only the initial data
        # gets the dedicated code
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID

    out_dir = config.output_dir
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_file = (out_dir / "diagnostics.csv").open("w")
    except OSError as exc:
        print(f"error: cannot write to the output directory: {exc}", file=sys.stderr)
        return EXIT_INVALID
    next_snapshot = [0.0]
    wall_start = time.perf_counter()

    with csv_file:
        csv_file.write(",".join(DiagnosticsRecord.CSV_FIELDS) + "\n")

        def on_step(state, record):
            csv_file.write(record.csv_row() + "\n")
            if config.snapshot_interval > 0 and state.t >= next_snapshot[0]:
                write_snapshot(
                    out_dir / f"u_{state.step_count:08d}.snap", state.u, state.t
                )
                # the first multiple of the interval above t (fmod is exact); an
                # interval below the rounding of t gives t, so every step writes
                interval = config.snapshot_interval
                next_snapshot[0] = state.t - math.fmod(state.t, interval) + interval

        try:
            result = run_to_steady(
                u0,
                omega_h,
                f,
                tol_steady=config.tol_steady,
                t_max=config.t_max,
                sigma=config.sigma,
                on_step=on_step,
            )
        except PositivityError as exc:
            print(f"error: initial data rejected: {exc}", file=sys.stderr)
            return EXIT_POSITIVITY
        except SpecValidationError as exc:  # a right-hand side that is not finite
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INVALID
        except StiffnessError as exc:
            print(f"error: {exc}", file=sys.stderr)
            if exc.diagnostics is not None:
                print(f"last accepted step: {exc.diagnostics}", file=sys.stderr)
            return EXIT_STIFF
        except OSError as exc:  # a diagnostics row or a periodic snapshot
            print(f"error: cannot write the output: {exc}", file=sys.stderr)
            return EXIT_INVALID

    wall = time.perf_counter() - wall_start
    result_payload = {
        "converged": result.converged,
        "b_tilde": result.b_tilde,
        "residual": result.residual,
        "t_final": result.t_final,
        "steps": result.steps,
        "halvings": result.halvings,
        "evaluations": result.evaluations,
        "wall_time_s": wall,
    }
    try:
        write_snapshot(out_dir / "u_final.snap", result.u_normalized, result.t_final)
        (out_dir / "result.json").write_text(
            json.dumps(result_payload, indent=2, sort_keys=True) + "\n"
        )
    except OSError as exc:
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return EXIT_INVALID
    status = "converged" if result.converged else "did not converge"
    print(
        f"{status}: t={result.t_final:.4g} steps={result.steps} "
        f"b_tilde={result.b_tilde:.10g} residual={result.residual:.3e} "
        f"wall={wall:.1f}s -> {out_dir}"
    )
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_check(args) -> int:
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0):
        print(f"error: --tol must be finite and non-negative, got {args.tol}", file=sys.stderr)
        return EXIT_INVALID
    try:
        config = RunConfig.load(args.config)
        omega_h, f, _ = _build_problem(config)
        _, u = read_snapshot(args.snapshot, config.grid)
    except (SpecValidationError, PositivityError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    tol = args.tol if args.tol is not None else config.tol_steady
    try:
        rhs = flow_rhs(u, omega_h, f)
    except PositivityError as exc:
        print(f"error: snapshot violates positivity: {exc}", file=sys.stderr)
        return EXIT_POSITIVITY
    except SpecValidationError as exc:  # a right-hand side that is not finite
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    residual = rhs.osc()
    b_tilde = rhs.mean()
    print(f"residual = {residual:.6e}")
    print(f"b_tilde  = {b_tilde:.10g}")
    return EXIT_OK if residual <= tol else EXIT_NOT_CONVERGED


# -- argument parsing -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmaflow",
        description="Quaternionic Monge-Ampère flow on flat hyperkähler tori.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_id = sub.add_parser("identities", help="run the randomized identity suite")
    p_id.add_argument("--n", type=int, required=True, help="quaternionic dimension")
    p_id.add_argument("--trials", type=int, default=200)
    p_id.add_argument("--seed", type=int, default=0)
    p_id.add_argument("--out", default="identities_report.json")
    p_id.set_defaults(func=cmd_identities)

    p_flow = sub.add_parser("flow", help="integrate a run config to steady state")
    p_flow.add_argument("--config", required=True)
    p_flow.set_defaults(func=cmd_flow)

    p_check = sub.add_parser("check", help="stationary residual of a snapshot")
    p_check.add_argument("--config", required=True)
    p_check.add_argument("--snapshot", required=True)
    p_check.add_argument("--tol", type=float, default=None)
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, which matches the contract
        return int(exc.code) if exc.code is not None else EXIT_INVALID
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

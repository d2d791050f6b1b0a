"""Correctness checks on qmaflow's outputs, computed apart from the program.

Nothing here imports qmaflow.  Snapshots are parsed from the documented
format (one JSON header line, then the row-major little-endian float64
payload), the manufactured solution is sampled with a plain numpy cosine
sum, and the diagnostics and reports are read as CSV and JSON.

Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LIMIT_TOL = 1e-5  # acceptance criterion 3: max |u_final - u_star|, means removed
B_TILDE_TOL = 1e-6  # the manufactured steady constant is exactly zero
STEP_SLACK = 1e-9  # acceptance criterion 5: per-step growth allowed in sup|u_t|
TOTAL_SLACK = 1e-7  # acceptance criterion 5: growth allowed over the first row
POINTWISE_TOL = 1e-12  # acceptance criterion 1, pointwise algebra identities
FIELD_TOL = 1e-10  # acceptance criterion 1, field identities
POINTWISE_IDENTITIES = (
    "pfaffian_squared_equals_det",
    "top_quotient_dual_path",
    "volume_form_top_coefficient",
)
FIELD_IDENTITIES = (
    "s1_equals_half_laplacian",
    "s1_decomposition",
    "hessian_reconstruction",
    "gradient_energy_dual_path",
    "metric_form_dual_path",
    "det_equals_pfaffian_squared",
)


def expected_identities(n: int) -> dict:
    """Identity name -> tolerance the suite must meet for dimension n."""
    out = {name: POINTWISE_TOL for name in POINTWISE_IDENTITIES}
    if n in (2, 3):  # the field identities have grids for n = 2, 3 only
        out.update({name: FIELD_TOL for name in FIELD_IDENTITIES})
    return out


# -- snapshots and the manufactured solution -------------------------------


def read_snapshot(path):
    """(header, values) of a snapshot file, parsed from the documented format."""
    raw = Path(path).read_bytes()
    newline = raw.find(b"\n")
    if newline < 0:
        raise ValueError(f"{path}: no header line")
    header = json.loads(raw[:newline].decode("utf-8"))
    if header.get("format") != "qmaflow-snapshot" or header.get("dtype") != "float64":
        raise ValueError(f"{path}: unexpected header {header}")
    sizes = tuple(int(s) for s in header["sizes"])
    payload = raw[newline + 1 :]
    if len(payload) != 8 * int(np.prod(sizes)):
        raise ValueError(f"{path}: payload of {len(payload)} bytes for sizes {sizes}")
    return header, np.frombuffer(payload, dtype="<f8").reshape(sizes)


def sample_terms(terms, sizes) -> np.ndarray:
    """sum_t amplitude_t * cos(<k_t, x> + phase_t) on the uniform 2 pi grid."""
    axes = [np.arange(s) * (2.0 * np.pi / s) for s in sizes]
    coords = np.meshgrid(*axes, indexing="ij")
    values = np.zeros(tuple(sizes))
    for term in terms:
        arg = sum(k * x for k, x in zip(term["k"], coords)) + term.get("phase", 0.0)
        values += term["amplitude"] * np.cos(arg)
    return values


def split_nyquist(values: np.ndarray):
    """(sub, nyq): the modes below Nyquist on every axis, and the rest."""
    hat = np.fft.fftn(values)
    nyquist = np.zeros(values.shape, dtype=bool)
    for axis, size in enumerate(values.shape):
        if size % 2 == 0:
            index = [slice(None)] * values.ndim
            index[axis] = size // 2
            nyquist[tuple(index)] = True
    sub = np.fft.ifftn(np.where(nyquist, 0.0, hat)).real
    return sub, values - sub


@dataclass
class LimitCheck:
    """Distance of the normalized limit from u_star, split by Nyquist."""

    err: float
    sub_nyquist: float
    nyquist: float
    tol: float = LIMIT_TOL

    @property
    def ok(self) -> bool:
        return self.err <= self.tol

    @property
    def nyquist_only(self) -> bool:
        """Fails only through modes the program's derivatives ignore."""
        return not self.ok and self.sub_nyquist <= self.tol

    def message(self) -> str:
        return (
            f"max |u_final - u_star| = {self.err:.3e} (tol {self.tol:.0e}): "
            f"Nyquist part {self.nyquist:.3e}, sub-Nyquist part {self.sub_nyquist:.3e}"
        )


def check_limit(u_final: np.ndarray, u_star: np.ndarray) -> LimitCheck:
    err = (u_final - u_final.mean()) - (u_star - u_star.mean())
    sub, nyq = split_nyquist(err)
    return LimitCheck(
        err=float(np.max(np.abs(err))),
        sub_nyquist=float(np.max(np.abs(sub))),
        nyquist=float(np.max(np.abs(nyq))),
    )


# -- result.json and diagnostics.csv ----------------------------------------


def check_result(result: dict) -> list:
    problems = []
    if result.get("converged") is not True:
        problems.append(f"result.json: converged = {result.get('converged')!r}")
    b_tilde = result.get("b_tilde")
    if not isinstance(b_tilde, (int, float)) or not abs(b_tilde) <= B_TILDE_TOL:
        problems.append(f"result.json: |b_tilde| = {b_tilde!r} exceeds {B_TILDE_TOL:.0e}")
    return problems


def check_diagnostics(path, steps: int) -> list:
    """Positivity on every row and the discrete maximum principle (criteria 5-6)."""
    with Path(path).open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != steps + 1:
        return [f"diagnostics.csv: {len(rows)} rows for {steps} steps"]
    problems = []
    min_eig = np.array([float(r["min_eig_omega_tilde"]) for r in rows])
    sup = np.array([float(r["sup_abs_ut"]) for r in rows])
    if not np.all(min_eig > 0.0):
        problems.append(f"diagnostics.csv: min_eig_omega_tilde reaches {min_eig.min():.3e}")
    if len(sup) > 1 and float(np.max(np.diff(sup))) > STEP_SLACK:
        problems.append(f"diagnostics.csv: sup_abs_ut grows by {np.max(np.diff(sup)):.3e} in one step")
    if float(sup.max()) > sup[0] + TOTAL_SLACK:
        problems.append(f"diagnostics.csv: sup_abs_ut exceeds its first value by {sup.max() - sup[0]:.3e}")
    return problems


# -- identity reports -----------------------------------------------------------


def check_identity_report(report: dict, n: int, trials: int) -> list:
    problems = []
    if report.get("n") != n or report.get("trials") != trials:
        problems.append(f"report: n={report.get('n')} trials={report.get('trials')}, expected {n}, {trials}")
    by_name = {entry.get("name"): entry for entry in report.get("identities", [])}
    for name, tol in expected_identities(n).items():
        entry = by_name.get(name)
        if entry is None:
            problems.append(f"report n={n}: identity {name} missing")
            continue
        err = entry.get("max_rel_err")
        if entry.get("passed") is not True:
            problems.append(f"report n={n}: {name} reported as failed")
        if not isinstance(err, (int, float)) or not err <= tol:
            problems.append(f"report n={n}: {name} max_rel_err {err!r} exceeds {tol:.0e}")
    if report.get("all_passed") is not True:
        problems.append(f"report n={n}: all_passed = {report.get('all_passed')!r}")
    return problems

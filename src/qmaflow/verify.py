"""Randomized identity suite, manufactured problems, linearization checks.

Every identity that the operator layer relies on is exercised here on
random band-limited inputs, with the two sides computed through genuinely
different code paths (exterior expansion vs Fourier multipliers, Pfaffian
vs LU determinant, metric contraction vs real-form recombination).

Instances are generated from counter-based seeding: trial i of a suite
with seed s draws from default_rng(SeedSequence([s, i])), so reports are
reproducible bit for bit regardless of execution order.  numpy.random is
imported where those generators are made, so a process that only builds
manufactured problems or runs flows never loads it.  The pointwise
identities are evaluated on blocks of at most TRIAL_BLOCK trials stacked on
a trailing axis; blocking changes neither the instances drawn nor the
per-trial error scales, only how the evaluation loops run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import factorial

import numpy as np

from .errors import PositivityError, SpecValidationError
from .exterior import ExteriorElement, pfaffian, s_m, top_quotient
from .fields import (
    ScalarField,
    TorusGrid,
    TrigPolySpec,
    PackedTwoForm,
    TrigTerm,
    build_omega_h,
    sample,
    spectral_ops,
)
from .flow import FlowEngine, non_finite_rhs_error, packed_block_terms
from .model import (
    build_model,
    j_conjugate_two_form,
    min_positivity_eigenvalue,
    positivity_matrix,
    standard_form,
)
from .operators import (
    del_del_j,
    flow_form,
    flow_rhs,
    gradient_energy,
    gradient_energy_wedge,
    induced_metric_form_real_path,
    apply_linearized,
    standard_entries,
)

FIELD_TOL = 1e-10
POINTWISE_TOL = 1e-12
TRIAL_BLOCK = 64  # trials per stacked pointwise evaluation; bounds its memory


@dataclass
class IdentityReport:
    name: str
    trials: int
    max_rel_err: float
    tol: float
    passed: bool
    seed: int

    def to_json(self):
        return asdict(self)


@dataclass
class ManufacturedProblem:
    """A potential that is exactly stationary for the source built from it."""

    u_star: ScalarField
    f: ScalarField
    omega_h: PackedTwoForm
    positivity_margin: float


@dataclass
class OrderCheckResult:
    slope: float
    epsilons: tuple
    errors: tuple


# -- random instance generators -------------------------------------------


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    from numpy.random import SeedSequence, default_rng  # here, so that no flow loads it

    return default_rng(SeedSequence([seed, trial]))


def random_trig_spec(
    rng: np.random.Generator,
    grid: TorusGrid,
    num_terms: int = 6,
    amplitude: float = 0.1,
) -> TrigPolySpec:
    """Random band-limited spec with max wavenumber at most size/4 per axis."""
    d = len(grid.active_dims)
    kmax = [max(1, size // 4) for size in grid.sizes]
    terms = []
    for _ in range(num_terms):
        while True:
            k = tuple(int(rng.integers(-kmax[p], kmax[p] + 1)) for p in range(d))
            if any(k):
                break
        amp = amplitude * float(rng.uniform(0.2, 1.0)) / num_terms
        terms.append(TrigTerm(k, amp, float(rng.uniform(0.0, 2.0 * np.pi))))
    return TrigPolySpec(tuple(terms))


def admissible_potential(
    rng: np.random.Generator,
    grid: TorusGrid,
    omega_h: PackedTwoForm,
    amplitude: float = 0.3,
    min_margin: float = 0.1,
):
    """Random u whose evolving form keeps an eigenvalue margin of at least
    ``min_margin``; the spec is halved until the margin is met.  The margin
    is the flow's guard on the form's slots, ``flow.packed_block_terms``."""
    ops = spectral_ops(grid)
    spec = random_trig_spec(rng, grid, amplitude=amplitude)
    for _ in range(60):
        u = sample(spec, grid)
        omt = flow_form(u, omega_h)
        margin = float(np.min(packed_block_terms(ops, omt.slots)[0]))
        if margin >= min_margin:
            return u, spec, margin
        spec = spec.scaled(0.5)
    raise RuntimeError("could not scale the random potential into the cone")


def random_antisymmetric(rng: np.random.Generator, m: int):
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return 0.5 * (a - a.T)


def j_real_projection(entries, n: int):
    """Project an antisymmetric matrix onto the J-real subspace."""
    return 0.5 * (entries + np.conj(j_conjugate_two_form(entries, n)))


def random_j_real_positive(rng: np.random.Generator, n: int, min_margin: float = 0.3):
    """Random strictly positive J-real form near the standard one."""
    omega = standard_form(n)
    pert = j_real_projection(random_antisymmetric(rng, 2 * n), n)
    alpha = omega + 0.3 * pert
    for _ in range(60):
        if float(np.min(min_positivity_eigenvalue(alpha, n))) >= min_margin:
            return alpha
        alpha = omega + 0.5 * (alpha - omega)
    return omega


# -- grids used by the field identities ------------------------------------


def default_identity_grid(n: int) -> TorusGrid:
    """A grid whose active dimensions make every Hessian entry live.

    All quaternionic Hessian entries are combinations of u_{a bbar} with
    a, b ranging over indices whose z-derivative can be nonzero; covering
    all but one complex direction suffices to light up every entry.
    """
    if n == 2:
        return TorusGrid(n=2, active_dims=(0, 1, 6), sizes=(8, 8, 8))
    if n == 3:
        return TorusGrid(n=3, active_dims=(0, 1, 2, 3, 10), sizes=(4, 4, 4, 4, 4))
    raise SpecValidationError("field identities support n in {2, 3}")


# -- the suite --------------------------------------------------------------


def _rel_err(delta, scale) -> float:
    """Largest |delta| / scale; ``scale`` is a number or one per entry of delta."""
    return float(np.max(np.abs(delta) / scale))


def _s1_exterior(entries, grid: TorusGrid):
    return s_m(entries, standard_entries(grid), grid.n, 1)


def run_identity_suite(n: int, trials: int = 200, seed: int = 0):
    """Run every identity ``trials`` times; returns a list of IdentityReport.

    Field identities require n in {2, 3}; for n = 4 only the pointwise
    algebra identities are exercised.  Failures are reported, not raised;
    a trial count below one is a ValueError, since zero trials check nothing.
    """
    build_model(n)  # rejects n = 1 and out-of-range dimensions
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    names_pointwise = [
        "pfaffian_squared_equals_det",
        "top_quotient_dual_path",
        "volume_form_top_coefficient",
    ]
    names_field = [
        "s1_equals_half_laplacian",
        "s1_decomposition",
        "hessian_reconstruction",
        "gradient_energy_dual_path",
        "metric_form_dual_path",
        "det_equals_pfaffian_squared",
    ]
    worst = {name: 0.0 for name in names_pointwise + names_field}
    field_grid = default_identity_grid(n) if n in (2, 3) else None

    for start in range(0, trials, TRIAL_BLOCK):
        antis, alphas = [], []
        for trial in range(start, min(start + TRIAL_BLOCK, trials)):
            rng = _trial_rng(seed, trial)
            antis.append(random_antisymmetric(rng, 2 * n))
            alphas.append(random_j_real_positive(rng, n))
            if field_grid is not None:
                for name, err in _field_identities_once(rng, field_grid).items():
                    worst[name] = max(worst[name], err)
        block = _pointwise_identities(
            np.stack(antis, axis=-1), np.stack(alphas, axis=-1), n
        )
        for name, err in block.items():
            worst[name] = max(worst[name], err)

    reports = []
    for name in names_pointwise + names_field:
        if name in names_field and field_grid is None:
            continue
        tol = POINTWISE_TOL if name in names_pointwise else FIELD_TOL
        reports.append(
            IdentityReport(
                name=name,
                trials=trials,
                max_rel_err=worst[name],
                tol=tol,
                passed=worst[name] <= tol,
                seed=seed,
            )
        )
    return reports


def _pointwise_identities(anti, alpha, n: int):
    """Pointwise algebra identities on trials stacked on the last axis.

    ``anti`` holds random antisymmetric matrices and ``alpha`` random J-real
    positive forms, shape (2n, 2n, trials).  Each trial is measured against
    its own scale; returns name -> worst error over the block.
    """
    det = np.linalg.det(np.moveaxis(anti, -1, 0))
    omega = standard_form(n)
    q_fast = top_quotient(alpha, omega, n, method="pfaffian")
    q_slow = top_quotient(alpha, omega, n, method="exterior")
    return {
        "pfaffian_squared_equals_det": _rel_err(
            pfaffian(anti) ** 2 - det, np.maximum(np.abs(det), 1.0)
        ),
        "top_quotient_dual_path": _rel_err(
            q_fast - q_slow, np.maximum(np.abs(q_slow), 1.0)
        ),
        "volume_form_top_coefficient": _volume_identity_err(alpha, n),
    }


def _volume_identity_err(alpha, n: int) -> float:
    """Top coefficient of alpha^n ^ conj(alpha)^n / (n!)^2 vs the induced
    real form's 2n-th power / (2n)!, both through exterior expansion."""
    gens = 4 * n
    el_a = ExteriorElement.from_two_form(alpha, n_gen=gens, shift=0)
    el_abar = ExteriorElement.from_two_form(np.conj(alpha), n_gen=gens, shift=2 * n)
    lhs = el_a.wedge_power(n).wedge_top(el_abar.wedge_power(n)) / factorial(n) ** 2
    el_omega = ExteriorElement.from_one_one_form(positivity_matrix(alpha, n))
    rhs = el_omega.wedge_power_top(2 * n) / factorial(2 * n)
    return _rel_err(lhs - rhs, np.maximum(np.abs(lhs), 1.0))


def _field_identities_once(rng: np.random.Generator, grid: TorusGrid):
    """One random instance of every field identity; returns name -> error."""
    n = grid.n
    model = build_model(n)
    c = float(rng.uniform(0.5, 2.0))
    rho = random_trig_spec(rng, grid, num_terms=4, amplitude=0.1)
    omega_h = build_omega_h(model, grid, c, rho, margin=1e-6)
    u, _, _ = admissible_potential(rng, grid, omega_h)

    ops = spectral_ops(grid)
    hat = ops.live_fft(u.values)
    # each form is expanded once, for the full-form paths below
    ddju = del_del_j(u).entries
    omt = flow_form(u, omega_h).entries
    oh = omega_h.entries
    eta = ops.s1_from_hat(hat)
    out = {}

    # exterior S_1 of the quaternionic Hessian vs the Hessian trace
    s1_ext = _s1_exterior(ddju, grid)
    out["s1_equals_half_laplacian"] = _rel_err(
        s1_ext - eta, max(float(np.max(np.abs(eta))), 1.0)
    )

    # S_1 splits between the evolving and background forms
    s1_omt = _s1_exterior(omt, grid)
    s1_oh = _s1_exterior(oh, grid)
    scale = max(float(np.max(np.abs(s1_omt))), 1.0)
    out["s1_decomposition"] = _rel_err(eta - (s1_omt - s1_oh), scale)

    # the quaternionic Hessian reconstructed from the two forms
    omega_b = standard_entries(grid)
    recon = (n - 1) * oh - s1_oh * omega_b + s1_omt * omega_b - (n - 1) * omt
    scale = max(float(np.max(np.abs(ddju))), 1.0)
    out["hessian_reconstruction"] = _rel_err(recon - ddju, scale)
    del oh, recon  # the real path below expands the background once more

    # quarter gradient square: metric path vs wedge path
    b_metric = gradient_energy(u)
    b_wedge = gradient_energy_wedge(u)
    scale = max(b_metric.max_abs(), 1.0)
    out["gradient_energy_dual_path"] = _rel_err(
        b_wedge.values - b_metric.values, scale
    )

    # induced fundamental form: metric contraction vs real-form recombination
    m_metric = positivity_matrix(omt, n)
    m_real = induced_metric_form_real_path(u, omega_h).matrix
    scale = max(float(np.max(np.abs(m_metric))), 1.0)
    out["metric_form_dual_path"] = _rel_err(m_real - m_metric, scale)

    # determinant of the Hermitian matrix vs the squared Pfaffian
    det = np.linalg.det(np.moveaxis(m_metric, (0, 1), (-2, -1))).real
    pf2 = pfaffian(omt).real ** 2
    out["det_equals_pfaffian_squared"] = _rel_err(det - pf2, max(np.max(pf2), 1.0))
    return out


# -- manufactured problems --------------------------------------------------


def build_manufactured(
    u_star_spec: TrigPolySpec,
    grid: TorusGrid,
    c: float = 1.0,
    rho: TrigPolySpec | None = None,
    margin: float = 1e-6,
) -> ManufacturedProblem:
    """Reverse-engineer the source so ``u_star`` is exactly stationary.

    The source is the stepper's right-hand side at u_star with a zero
    source, sampled on the grid; stationarity then holds to round-off and
    the steady constant is exactly zero.  If the evolving form leaves the
    cone, the error reports the largest admissible amplitude rescaling.
    """
    model = build_model(grid.n)
    omega_h = build_omega_h(model, grid, c, rho)
    u_star = sample(u_star_spec, grid)
    engine = FlowEngine(omega_h, ScalarField.zeros(grid), margin=margin)
    stage = engine.evaluate(u_star.values)
    if stage.rhs is not None and not stage.ok:
        raise non_finite_rhs_error(stage.rhs)
    if not stage.ok:
        scale = _max_admissible_scale(u_star_spec, grid, engine)
        raise PositivityError(
            "the candidate stationary potential leaves the positive cone "
            f"(min eigenvalue {stage.min_eig:.3e}); rescale its amplitude by "
            f"a factor of at most {scale:.3g}",
            min_eigenvalue=stage.min_eig,
        )
    return ManufacturedProblem(u_star, ScalarField(grid, stage.rhs), omega_h, stage.min_eig)


def _max_admissible_scale(spec, grid, engine: FlowEngine, iters: int = 40) -> float:
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if engine.evaluate(sample(spec.scaled(mid), grid).values).ok:
            lo = mid
        else:
            hi = mid
    return lo


# -- linearization order ----------------------------------------------------


def linearization_order_check(
    u: ScalarField,
    v: ScalarField,
    omega_h: PackedTwoForm,
    epsilons=(1e-2, 1e-3, 1e-4),
) -> OrderCheckResult:
    """Measured order of the centered difference against the linearization.

    Computes e(eps) = sup |(N(u + eps v) - N(u - eps v)) / (2 eps) - L_u v|
    and the log-log slope across the given epsilons; second-order agreement
    gives slope close to 2.  Raises PositivityError if an epsilon pushes
    the state out of the cone (shrink the epsilon list in that case).
    """
    f0 = ScalarField.zeros(u.grid)
    lv = apply_linearized(u, v, omega_h).values
    errors = []
    for eps in epsilons:
        plus = flow_rhs(u + eps * v, omega_h, f0).values
        minus = flow_rhs(u + (-eps) * v, omega_h, f0).values
        errors.append(float(np.max(np.abs((plus - minus) / (2.0 * eps) - lv))))
    log_eps = np.log(np.asarray(epsilons))
    log_err = np.log(np.maximum(np.asarray(errors), 1e-300))
    slope = float(np.polyfit(log_eps, log_err, 1)[0])
    return OrderCheckResult(slope=slope, epsilons=tuple(epsilons), errors=tuple(errors))


def fit_exponential_decay(ts, values):
    """Least-squares fit of log(values) against t; returns (rate, r_squared).

    The rate is the slope (negative for decay).  Entries must be positive.
    """
    ts = np.asarray(ts, dtype=float)
    ys = np.log(np.asarray(values, dtype=float))
    if ts.size < 3:
        raise ValueError("need at least three samples to fit a rate")
    slope, intercept = np.polyfit(ts, ys, 1)
    fitted = slope * ts + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(r2)

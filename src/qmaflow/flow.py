"""Time integration of the parabolic flow with positivity guarding.

The stepper is a linearly stabilized semi-implicit (IMEX) scheme: the
right-hand side N(u) is taken explicitly and a constant-coefficient
multiple of S_1, the flat linearization (half the model Laplacian), is
taken implicitly, so one step solves

    (1 - dt * a * S_1) du = dt * N(u),    u <- u + du

by one transform pair of the grid's SpectralOps: the real right-hand side
goes forward to its live-mode vector (``live_fft``, the spectrum on the
modes below Nyquist only), the solve divides by a live-mode copy of S_1's
multiplier, and the update comes back as a real field
(``live_ifft_real``).  The state's spectrum is carried as a live-mode
vector, not recomputed: the new one is the old one plus the update's,
which the step already holds.  The linearization of N at u is
v -> 1/2 tr(omega_tilde^-1 beta(v)), beta(v) the change of the evolving
form; its coefficients are averages of reciprocal block eigenvalues, so
a = 1 / min_eig (min_eig the smallest block eigenvalue over the grid; a = 1
at the flat form) bounds them and the linearized step is stable for every
dt.  The fixed point is N(u) = const, so the limit and its constant are
those of the flow.  The step is capped at dt = sigma * min_eig / (1/4),
1/4 being the symbol of -S_1 at unit wavenumber: sigma is the one
step-size factor, and the cap does not depend on the grid spacing.  The
update lives on the modes below Nyquist (the derivative multipliers cannot
see a mode with a Nyquist index, so an update there would make the limit
non-unique on an even grid).

The flow map itself runs on the packed J-real slots of the evolving form
(see ``fields``): the background form arrives on them as a
``PackedTwoForm`` (``fields.build_omega_h`` and
``fields.constant_two_form_field`` build it there), and each evaluation
adds the inverse transforms of the form's slot multipliers to it, slot by
slot.  The positivity test on the slots (:func:`packed_block_terms`) is
the one every form on a grid is checked with: the background, and the
evolving form wherever the operators read it.  The right-hand side is log S_n - f with
S_n = Pf(omega_tilde) / Pf(Omega) (Pf(Omega) = 1), the product of the
block eigenvalues: the quaternionic determinant of the J-real form
(Aslaksen, Math. Intelligencer 18, 1996).  The guard and the right-hand
side read the blocks and the off-diagonal quaternions off the slots as
views (``SpectralOps.quaternion_slots``).  For n = 2 and 3 one closed form,
``model.quaternion_terms``, gives the smallest block eigenvalue, S_1, S_n
and S_{n-1} from them: S_2 = a_0 a_1 - |q|^2 and the pair's roots about
their mean for n = 2, the Moore determinant and the trigonometric roots of
the cubic about its mean for n = 3.  For n = 4 the slots are unpacked for
``model.block_eigenvalues``, whose block eigenvalues give the guard, S_n
and kappa.  S_1 is the sum of the blocks in block order for every n, and
the background's S_1 is summed the same way, so eta = S_1(ddj u) is
exactly 0 at u = 0.  No Pfaffian is computed.  The per-step diagnostics take
``max_beta``, the largest sum_a |u_{abar}|^2, from the state's samples by
one differentiation-matrix product per active real axis
(``SpectralOps.zbar_gradient_norm2``), with no transform and never as the
gradient stack; the state is a field on the live modes, so it is the
spectral norm to rounding.  The guard decides by
``model.failing_point``, the rule every positivity check shares: a point
fails unless its smallest block eigenvalue is > margin, so NaN fails.  A
state that passes the guard but whose right-hand side is not finite (S_n
overflows, or f is not finite) fails too: a step retries it with half the
step, and the initial state raises SpecValidationError.

Steps whose result leaves the positive cone (or goes non-finite) are
rejected and retried with half the step, up to a bounded number of
halvings; the step then regrows geometrically toward the cap after a run
of accepted steps.  A run whose accepted step falls below 2^-MAX_HALVINGS
times the first step's cap has stalled at the positivity margin and is
stopped as stiff.  Explicit Heun under the parabolic CFL bound
dt = sigma * h_min^2 / kappa (kappa the largest grid value of the sum of
reciprocal block eigenvalues) is kept as the reference integrator
(:meth:`FlowEngine.heun_step`, :func:`cfl_dt`) against which the tests
compare the limit.

Steady state is detected through the oscillation of the right-hand side,
not its norm: the time derivative tends to a constant, so only its spread
vanishes at convergence.  The constant itself is reported as the spatial
mean of the final right-hand side, which on the flat torus equals its
volume average.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import PositivityError, SpecValidationError, StiffnessError
from .exterior import full_from_upper
# perfbench/tracing.py patches flow.block_eigenvalues, flow.pfaffian_upper and
# flow.pfaffian; the last two are not called here
from .exterior import pfaffian, pfaffian_upper  # noqa: F401
from .fields import PackedTwoForm, ScalarField, spectral_ops
from .model import block_eigenvalues, block_sum, failing_point, quaternion_terms

GROW_FACTOR = 1.1
GROW_AFTER_ACCEPTS = 10
DEFAULT_MARGIN = 1e-8
DEFAULT_SIGMA = 0.2
MAX_HALVINGS = 20
S1_UNIT_SYMBOL = 0.25  # -S_1 at unit wavenumber


@dataclass
class FlowState:
    """Current potential, flow time, step size and step counter."""

    u: ScalarField
    t: float
    dt: float
    step_count: int


@dataclass
class DiagnosticsRecord:
    """Per-step monitors mirroring the a priori estimates of the flow."""

    step: int
    t: float
    dt: float
    sup_abs_ut: float
    osc_u: float
    max_beta: float
    max_eta: float
    min_eig_omega_tilde: float
    osc_ut: float
    spectral_tail: float

    def csv_row(self) -> str:
        return ",".join(repr(getattr(self, name)) for name in self.CSV_FIELDS)


# the diagnostics.csv header: the record's fields, in order
DiagnosticsRecord.CSV_FIELDS = tuple(field.name for field in dataclasses.fields(DiagnosticsRecord))


@dataclass
class SteadyResult:
    """Outcome of a run: normalized limit, its constant, and the history."""

    u_normalized: ScalarField
    b_tilde: float
    residual: float
    converged: bool
    history: list
    t_final: float
    steps: int
    halvings: int  # halved step attempts over the whole run
    evaluations: int  # flow-map evaluations over the whole run


def normalize(u: ScalarField) -> ScalarField:
    """Subtract the mean; the volume form is constant on the flat torus."""
    return ScalarField(u.grid, u.values - u.values.mean())


class _Stage:
    """One evaluation of the flow map: right-hand side, guards, worst point.

    ``rhs`` is set whenever the guard passed; ``ok`` is False if it is not
    finite there.  ``extrema`` holds (max u, min u, max rhs, min rhs) of an
    evaluation that passed, the numbers its finiteness was tested on.
    """

    __slots__ = ("ok", "rhs", "min_eig", "kappa", "eta", "hat", "point", "extrema")

    def __init__(
        self, ok, rhs=None, min_eig=math.nan, kappa=math.nan, eta=None, hat=None, point=None, extrema=None
    ):
        self.ok = ok
        self.rhs = rhs
        self.min_eig = min_eig
        self.kappa = kappa
        self.eta = eta
        self.hat = hat
        self.point = point
        self.extrema = extrema


def packed_block_terms(ops, packed):
    """The positivity test of a J-real form on ``ops``'s packed slots, with S_1 and S_n.

    Returns (lam_min, s1, s_n, k) per grid point: the smallest block
    eigenvalue, S_1, S_n (the product of the block eigenvalues) and what
    kappa, the sum of their reciprocals, is taken from: k = S_{n-1} for
    n <= 3 (kappa = S_{n-1} / S_n), the block eigenvalues for n = 4.  The
    blocks and quaternions come off the slots (``ops.quaternion_slots``);
    for n <= 3 every value is :func:`model.quaternion_terms`' closed form,
    and for n = 4 S_1 is the sum of the blocks and the slots are unpacked
    for :func:`model.block_eigenvalues`.  Every form on a grid is tested
    with it: the flow map's guard, ``fields.build_omega_h``'s background,
    the operators' preconditions and the identity suite's potentials.
    """
    a, z, s = ops.quaternion_slots(packed)
    if ops.n <= 3:
        (lam_min,), s1, s_n, s_prev = quaternion_terms(a, z, s)
        return lam_min, s1, s_n, s_prev
    s1 = block_sum(a)
    lam = block_eigenvalues(full_from_upper(ops.unpack_form(packed), 2 * ops.n), ops.n)
    return lam[..., 0], s1, np.prod(lam, axis=-1), lam


class FlowEngine:
    """Shared per-run workspace and the one implementation of the flow map.

    ``flow_rhs``, ``cfl_dt`` and the manufactured problems go through it.
    ``omega_h`` is a PackedTwoForm, whose slots the engine uses as they are.
    """

    def __init__(
        self,
        omega_h: PackedTwoForm,
        f: ScalarField,
        sigma: float = DEFAULT_SIGMA,
        margin: float = DEFAULT_MARGIN,
    ):
        self.grid = omega_h.grid
        self.n = self.grid.n
        self.ops = spectral_ops(self.grid)
        self.f = f.values
        self.sigma = sigma
        self.margin = margin
        self.halvings = 0
        self.evaluations = 0
        self._packed_omega_h = omega_h.slots
        self._s1_omega_h = block_sum(self.ops.quaternion_slots(omega_h.slots)[0])

    def evaluate(self, u_values, hat=None) -> _Stage:
        """Evolving form, positivity guard, right-hand side at one state.

        ``hat`` is the live-mode vector of ``u_values`` (``ops.live_fft``)
        when the caller already holds it.
        Runs on the packed J-real slots of the form.  The right-hand side is
        log S_n - f, S_n = Pf(omega_tilde) / Pf(Omega) the product of the
        block eigenvalues (Pf(Omega) = 1); the guard, S_1 and S_n come from
        :func:`packed_block_terms`.  u and the right-hand side are finite iff
        their extrema are: NaN reaches both, an infinity one of them.
        """
        self.evaluations += 1
        u_max, u_min = float(u_values.max()), float(u_values.min())
        if not (math.isfinite(u_max) and math.isfinite(u_min)):
            return _Stage(ok=False)
        if hat is None:
            hat = self.ops.live_fft(u_values)
        packed = self.ops.packed_form_from_hat(self._packed_omega_h, hat)
        lam_min, s1, s_n, k = packed_block_terms(self.ops, packed)
        del packed  # dead once read: the rest of the step runs without this slot stack
        min_eig, point = failing_point(lam_min, self.margin)
        if point is not None:
            return _Stage(ok=False, min_eig=min_eig, point=point)
        rhs = np.log(s_n) - self.f
        rhs_max, rhs_min = float(rhs.max()), float(rhs.min())
        if not (math.isfinite(rhs_max) and math.isfinite(rhs_min)):
            return _Stage(ok=False, rhs=rhs, min_eig=min_eig)
        # kappa = sum of reciprocal block eigenvalues = S_{n-1} / S_n
        kappa = float((k / s_n if self.n <= 3 else (1.0 / k).sum(axis=-1)).max())
        # S_1(Omega) = n, so S_1 of the form grows by exactly S_1(ddj u)
        return _Stage(True, rhs, min_eig, kappa, s1 - self._s1_omega_h, hat, extrema=(u_max, u_min, rhs_max, rhs_min))

    def evaluate_or_raise(self, u_values, what: str) -> _Stage:
        """:meth:`evaluate`, raising PositivityError naming the worst point.

        A state that passes the guard but whose right-hand side is not
        finite raises :func:`non_finite_rhs_error` instead.
        """
        stage = self.evaluate(u_values)
        if stage.rhs is not None and not stage.ok:
            raise non_finite_rhs_error(stage.rhs)
        if not stage.ok:
            where = f" at grid point {stage.point}" if stage.point is not None else ""
            raise PositivityError(
                f"{what} (min eigenvalue {stage.min_eig:.6e}){where}",
                point=stage.point,
                min_eigenvalue=stage.min_eig,
            )
        return stage

    def cfl_cap(self, stage: _Stage) -> float:
        """Parabolic bound of the Heun reference step."""
        return self.sigma * self.grid.min_spacing**2 / stage.kappa

    def step_cap(self, stage: _Stage) -> float:
        """Largest step of the semi-implicit scheme at this stage."""
        return self.sigma * stage.min_eig / S1_UNIT_SYMBOL

    def diagnostics(self, state: FlowState, stage: _Stage) -> DiagnosticsRecord:
        """The record of ``state``; ``stage`` is the evaluation at ``state.u``, whose extrema it reads."""
        u_max, u_min, rhs_max, rhs_min = stage.extrema
        return DiagnosticsRecord(
            step=state.step_count,
            t=state.t,
            dt=state.dt,
            sup_abs_ut=max(rhs_max, -rhs_min),
            osc_u=u_max - u_min,
            max_beta=float(self.ops.zbar_gradient_norm2(state.u.values).max()),
            max_eta=max(float(stage.eta.max()), -float(stage.eta.min())),
            min_eig_omega_tilde=stage.min_eig,
            osc_ut=rhs_max - rhs_min,
            spectral_tail=self.ops.spectral_tail(stage.hat),
        )

    def step(self, state: FlowState, stage: Optional[_Stage] = None):
        """One stabilized semi-implicit step with rejection and halving.

        ``stage`` is the evaluation at ``state.u`` (recomputed if absent).
        Returns the new state and its evaluation; raises StiffnessError
        after MAX_HALVINGS rejections.
        """
        if stage is None:
            stage = self.evaluate_or_raise(state.u.values, "flow state violates strict positivity")
        u = state.u.values
        rhs_hat = self.ops.live_fft(stage.rhs)
        a_s1 = self.ops.s1_live / stage.min_eig  # a * S_1 <= 0, real, on the live modes
        dt = min(state.dt, self.step_cap(stage))
        for _ in range(MAX_HALVINGS + 1):
            du_hat = dt / (1.0 - dt * a_s1) * rhs_hat
            new_u = u + self.ops.live_ifft_real(du_hat)
            # the live-mode vector of new_u, up to rounding
            new_stage = self.evaluate(new_u, stage.hat + du_hat)
            if new_stage.ok:
                return self._advance(state, new_u, dt), new_stage
            self.halvings += 1
            dt *= 0.5
        raise self._stiffness_error(state, dt)

    def heun_step(self, state: FlowState, stage: _Stage):
        """Explicit Heun step under :meth:`cfl_cap`; the reference integrator."""
        u = state.u.values
        dt = min(state.dt, self.cfl_cap(stage))
        for _ in range(MAX_HALVINGS + 1):
            predictor = u + dt * stage.rhs
            stage_pred = self.evaluate(predictor)
            if stage_pred.ok:
                corrected = u + 0.5 * dt * (stage.rhs + stage_pred.rhs)
                stage_new = self.evaluate(corrected)
                if stage_new.ok:
                    return self._advance(state, corrected, dt), stage_new
            self.halvings += 1
            dt *= 0.5
        raise self._stiffness_error(state, dt)

    def _advance(self, state: FlowState, u_values, dt: float) -> FlowState:
        return FlowState(ScalarField(self.grid, u_values), state.t + dt, dt, state.step_count + 1)

    @staticmethod
    def _stiffness_error(state: FlowState, dt: float) -> StiffnessError:
        return StiffnessError(
            f"step rejected after {MAX_HALVINGS} halvings "
            f"(t = {state.t:.6g}, dt reached {dt:.3e})"
        )


def non_finite_rhs_error(rhs) -> SpecValidationError:
    """The error for a state that passes the guard where log S_n - f is not finite."""
    point = tuple(int(i) for i in np.unravel_index(np.argmin(np.isfinite(rhs)), rhs.shape))
    return SpecValidationError(
        f"the right-hand side log S_n - f is {rhs[point]} at grid point {point}: S_n, the "
        "product of the block eigenvalues of the evolving form, overflows, or f is not finite"
    )


def cfl_dt(u: ScalarField, omega_h: PackedTwoForm, sigma: float = DEFAULT_SIGMA) -> float:
    """Parabolic step bound sigma * h_min^2 / kappa at the given state.

    kappa is the largest grid value of the sum of reciprocal block
    eigenvalues of the evolving form.
    """
    engine = FlowEngine(omega_h, ScalarField.zeros(u.grid), sigma=sigma, margin=0.0)
    stage = engine.evaluate_or_raise(u.values, "evolving form is not strictly positive")
    return engine.cfl_cap(stage)


def step(
    state: FlowState,
    omega_h: PackedTwoForm,
    f: ScalarField,
    sigma: float = DEFAULT_SIGMA,
    margin: float = DEFAULT_MARGIN,
) -> FlowState:
    """Single public semi-implicit step; see FlowEngine.step for the guard policy."""
    engine = FlowEngine(omega_h, f, sigma=sigma, margin=margin)
    new_state, _ = engine.step(state)
    return new_state


def run_to_steady(
    u0: ScalarField,
    omega_h: PackedTwoForm,
    f: ScalarField,
    tol_steady: float = 1e-8,
    t_max: float = 1000.0,
    sigma: float = DEFAULT_SIGMA,
    margin: float = DEFAULT_MARGIN,
    on_step: Optional[Callable[[FlowState, DiagnosticsRecord], None]] = None,
) -> SteadyResult:
    """Integrate until the right-hand side oscillation drops below tolerance.

    The initial state must satisfy the strict-positivity condition; a
    violation raises PositivityError before any stepping.  If t_max is
    reached first, the partial result is returned with converged=False.
    Diagnostics are recorded every step and forwarded to ``on_step``.
    """
    engine = FlowEngine(omega_h, f, sigma=sigma, margin=margin)
    stage = engine.evaluate_or_raise(
        u0.values, "initial data violates the strict-positivity condition"
    )
    state = FlowState(u=u0, t=0.0, dt=engine.step_cap(stage), step_count=0)
    dt_floor = state.dt * 0.5**MAX_HALVINGS
    history = []

    def record(st, sg):
        rec = engine.diagnostics(st, sg)
        history.append(rec)
        if on_step is not None:
            on_step(st, rec)
        return rec

    rec = record(state, stage)
    consecutive = 0
    while rec.osc_ut >= tol_steady and state.t < t_max:
        attempted_dt = min(state.dt, engine.step_cap(stage))
        try:
            new_state, new_stage = engine.step(state, stage)
            if new_state.dt < dt_floor:
                raise StiffnessError(
                    f"step stalled at the positivity margin (t = {new_state.t:.6g}, "
                    f"dt = {new_state.dt:.3e} below {dt_floor:.3e}, "
                    f"min eigenvalue {new_stage.min_eig:.3e})"
                )
        except StiffnessError as exc:
            exc.diagnostics = history[-1]
            raise
        consecutive = consecutive + 1 if new_state.dt >= attempted_dt else 0
        if consecutive >= GROW_AFTER_ACCEPTS:
            new_state.dt = min(new_state.dt * GROW_FACTOR, engine.step_cap(new_stage))
            consecutive = 0
        else:
            new_state.dt = min(new_state.dt, engine.step_cap(new_stage))
        state, stage = new_state, new_stage
        rec = record(state, stage)

    final_rhs = stage.rhs
    return SteadyResult(
        u_normalized=normalize(state.u),
        b_tilde=float(final_rhs.mean()),
        residual=float(final_rhs.max() - final_rhs.min()),
        converged=bool(rec.osc_ut < tol_steady),
        history=history,
        t_final=state.t,
        steps=state.step_count,
        halvings=engine.halvings,
        evaluations=engine.evaluations,
    )


def monitor_maximum_principle(
    history,
    step_slack: float = 1e-9,
    total_slack: float = 1e-7,
) -> bool:
    """Check the discrete maximum principle for sup |u_t| along a run.

    True iff the initial value is never exceeded beyond ``total_slack``
    and every step decreases sup |u_t| up to ``step_slack``.
    """
    if len(history) < 2:
        raise ValueError("need at least two diagnostics records")
    sup0 = history[0].sup_abs_ut
    prev = sup0
    for rec in history[1:]:
        if rec.sup_abs_ut > sup0 + total_slack:
            return False
        if rec.sup_abs_ut > prev + step_slack:
            return False
        prev = rec.sup_abs_ut
    return True

"""Differential operators of the quaternionic Monge-Ampère flow.

Everything here is a pure transform of fields on one grid: the twisted
differential d_J, the quaternionic Hessian, the evolving positive form,
the flow's logarithmic right-hand side, the gradient and half-Laplacian
diagnostics, the linearized operator and the induced metric form.  The
quaternionic Hessian and the evolving form are ``PackedTwoForm``s filled by
the stepper's own bundles, and its guard on their slots
(``flow.packed_block_terms``) tests the evolving form.  The right-hand side
is the stepper's own (FlowEngine).

Load-bearing identities are deliberately exposed through two independent
code paths each (fast multiplier path vs exact exterior expansion, metric
contraction vs real-form recombination) so the verification suite can
cross-check them on arbitrary inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import SpecValidationError
from .exterior import ExteriorElement, pfaffian, s_m
from .fields import PackedTwoForm, ScalarField, TorusGrid, spectral_ops
from .flow import FlowEngine, packed_block_terms
from .model import (
    j_conjugate_one_one,
    j_tables,
    positivity_matrix,
    require_positive_minimum,
    standard_form,
)


def _standard_entries(grid: TorusGrid):
    omega = standard_form(grid.n)
    return omega.reshape(omega.shape + (1,) * len(grid.shape))


def d_j(u: ScalarField):
    """The (1,0)-form d_J u = -J(dbar u), components stacked on axis 0.

    In the fixed frame (d_J u)_{2i} = -u_{conj(2i+1)} and
    (d_J u)_{2i+1} = u_{conj(2i)}.
    """
    ops = spectral_ops(u.grid)
    t = j_tables(u.grid.n)
    g = ops.zbar_gradient_batched_from_hat(ops.live_fft(u.values))
    sh = (2 * u.grid.n,) + (1,) * len(u.grid.shape)
    return t.dj_sign.reshape(sh) * g[t.sigma]


def del_del_j(u: ScalarField) -> PackedTwoForm:
    """Quaternionic Hessian of u, a J-real form field on packed slots."""
    ops = spectral_ops(u.grid)
    return PackedTwoForm(u.grid, ops.ddj_slots_from_hat(ops.live_fft(u.values)))


def half_laplacian(u: ScalarField) -> ScalarField:
    """Trace of the mixed complex Hessian, sum_k u_{k kbar}.

    Equals S_1 of the quaternionic Hessian of u; this is the diagnostic
    whose uniform bound controls the second-order estimate.
    """
    ops = spectral_ops(u.grid)
    return ScalarField(u.grid, ops.s1_from_hat(ops.live_fft(u.values)))


def s1_field(chi: PackedTwoForm) -> ScalarField:
    """Pointwise S_1 of a J-real form field, the sum of its quaternionic blocks.

    The blocks are read off the packed slots, where they are real, in block
    order; the form is not expanded.
    """
    blocks, _, _ = spectral_ops(chi.grid).quaternion_slots(chi.slots)
    return ScalarField(chi.grid, sum(blocks))


def flow_form(u: ScalarField, omega_h: PackedTwoForm) -> PackedTwoForm:
    """The stepper's evolving form Omega_h + (S_1(ddj u) Omega - ddj u) / (n - 1)."""
    ops = spectral_ops(u.grid)
    return PackedTwoForm(u.grid, ops.packed_form_from_hat(omega_h.slots, ops.live_fft(u.values)))


def flow_rhs(
    u: ScalarField,
    omega_h: PackedTwoForm,
    f: ScalarField,
    margin: float = 0.0,
) -> ScalarField:
    """Right-hand side log(Pf(evolving form) / Pf(Omega)) - f.

    Evaluated by the stepper.  Raises PositivityError (with the offending
    point and its minimum eigenvalue) when the evolving form leaves the
    positive cone, where the logarithm is undefined, or on non-finite
    values of u; SpecValidationError where the form is positive but the
    right-hand side is not finite (``flow.non_finite_rhs_error``).
    """
    engine = FlowEngine(omega_h, f, margin=margin)
    stage = engine.evaluate_or_raise(u.values, "the flow right-hand side is undefined")
    return ScalarField(u.grid, stage.rhs)


def gradient_energy(u: ScalarField) -> ScalarField:
    """Quarter squared gradient, computed from the flat metric.

    Equals sum_a |u_{z^a}|^2 = sum_a |u_{abar}|^2 for real u; nonnegative,
    zero exactly where du vanishes.  It is the reduction whose maximum the
    flow reports as ``max_beta`` (``SpectralOps.zbar_gradient_norm2``, one
    differentiation-matrix product per active real axis).  Precondition:
    ``u`` is a field on the live modes, with no content on a mode with a
    Nyquist index, as every band-limited sample and the flow's state are;
    there it equals the spectral norm of the z-bar gradient to rounding.
    """
    return ScalarField(u.grid, spectral_ops(u.grid).zbar_gradient_norm2(u.values))


def gradient_energy_wedge(u: ScalarField) -> ScalarField:
    """Quarter squared gradient via n du ^ d_J u ^ Omega^{n-1} / Omega^n.

    The independent wedge-path evaluation of the same quantity; the
    verification suite checks it against gradient_energy.
    """
    grid = u.grid
    ops = spectral_ops(grid)
    hat = ops.live_fft(u.values)
    du = ops.z_gradient_from_hat(hat)
    dju = d_j(u)
    chi = du[:, None] * dju[None, :] - du[None, :] * dju[:, None]
    value = s_m(chi, _standard_entries(grid), grid.n, 1)
    return ScalarField(grid, value.real)


def apply_linearized(u: ScalarField, v: ScalarField, omega_h: PackedTwoForm) -> ScalarField:
    """Spatial part of the linearized flow operator at u, applied to v.

    Evaluates (A ^ ddj v) / (evolving form)^n with
    A = n/(n-1) (S_{n-1} Omega^{n-1} - (evolving form)^{n-1}) through exact
    pointwise exterior algebra.  Annihilates constants exactly.
    """
    grid = u.grid
    n = grid.n
    omt = flow_form(u, omega_h)
    require_positive_minimum(packed_block_terms(spectral_ops(grid), omt.slots)[0], 0.0, "the evolving form")

    om_el = ExteriorElement.from_two_form(_standard_entries(grid))
    omt_el = ExteriorElement.from_two_form(omt.entries)
    om_pow = om_el.wedge_power(n - 1)
    omt_pow = omt_el.wedge_power(n - 1)
    top_omega = factorial(n) * pfaffian(standard_form(n))
    s_nm1 = n * omt_pow.wedge_top(om_el) / top_omega

    coeff_form = (om_pow.scale(s_nm1) - omt_pow).scale(n / (n - 1))
    denom = omt_pow.wedge_top(omt_el)
    ddjv = del_del_j(v)
    numer = coeff_form.wedge_top(ExteriorElement.from_two_form(ddjv.entries))
    return ScalarField(grid, (numer / denom).real)


# -- real (1,1)-form layer -------------------------------------------------


@dataclass
class RealOneOneForm:
    """A real (1,1)-form as its Hermitian coefficient matrix field.

    Normalized so the form induced by the standard (2,0)-form has the
    identity matrix; with that convention the determinant of the matrix
    equals the squared Pfaffian of the inducing (2,0)-form.
    """

    grid: TorusGrid
    matrix: np.ndarray

    def __post_init__(self):
        m = 2 * self.grid.n
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (m, m) + self.grid.shape:
            raise SpecValidationError("matrix shape does not match grid")

    def hermiticity_defect(self) -> float:
        return float(
            np.max(np.abs(self.matrix - np.conj(np.swapaxes(self.matrix, 0, 1))))
        )

    def det(self):
        moved = np.moveaxis(self.matrix, (0, 1), (-2, -1))
        return np.linalg.det(moved).real

    def min_eigenvalue(self):
        moved = np.moveaxis(self.matrix, (0, 1), (-2, -1))
        return np.linalg.eigvalsh(moved)[..., 0]


def induced_metric_form(u: ScalarField, omega_h: PackedTwoForm) -> RealOneOneForm:
    """Fundamental form of the hyperhermitian metric of the evolving form.

    Metric-contraction path: the Hermitian matrix is the positivity matrix
    of the evolving form.  Requires strict positivity.
    """
    omt = flow_form(u, omega_h)
    require_positive_minimum(packed_block_terms(spectral_ops(u.grid), omt.slots)[0], 0.0, "the evolving form")
    return RealOneOneForm(u.grid, positivity_matrix(omt.entries, u.grid.n))


def induced_metric_form_real_path(u: ScalarField, omega_h: PackedTwoForm) -> RealOneOneForm:
    """Same form assembled from real (1,1)-data instead of the (2,0) matrix.

    Combines the background fundamental form with the half-Laplacian times
    the standard form minus the J-symmetrized complex Hessian:

        M_h + (S_1(ddj u) Id - (H - JH)) / (n - 1),

    where H is the mixed complex Hessian (the matrix of i d dbar u) and JH
    the matrix of its J image.  Under the normalization fixed here the
    J-symmetrized combination H - JH carries coefficient one.
    """
    grid = u.grid
    n = grid.n
    ops = spectral_ops(grid)
    hat = ops.live_fft(u.values)
    hess = ops.mixed_hessian_from_hat(hat)
    eta = ops.s1_from_hat(hat)
    eye = np.eye(2 * n).reshape((2 * n, 2 * n) + (1,) * len(grid.shape))
    base = positivity_matrix(omega_h.entries, n)
    matrix = base + (eta * eye - (hess - j_conjugate_one_one(hess, n))) / (n - 1)
    return RealOneOneForm(grid, matrix)

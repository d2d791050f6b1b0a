"""Operator layer: d_J, quaternionic Hessian, evolving form, linearization."""

import numpy as np
import pytest

from qmaflow.errors import PositivityError
from qmaflow.fields import (
    ScalarField,
    TorusGrid,
    TrigPolySpec,
    TrigTerm,
    build_omega_h,
    constant_two_form_field,
    sample,
    spectral_ops,
)
from qmaflow.exterior import full_from_upper
from qmaflow.model import (
    build_model,
    min_positivity_eigenvalue,
    positivity_matrix,
    require_positive_minimum,
    standard_form,
)
from qmaflow.operators import (
    apply_linearized,
    d_j,
    del_del_j,
    flow_form,
    flow_rhs,
    gradient_energy,
    gradient_energy_wedge,
    half_laplacian,
    induced_metric_form,
    induced_metric_form_real_path,
    s1_field,
)
from qmaflow.verify import admissible_potential, build_manufactured
from support import apply_j_one_form

GRID = TorusGrid(n=2, active_dims=(0, 4), sizes=(32, 32))
RICH_GRID = TorusGrid(n=2, active_dims=(0, 1, 6), sizes=(8, 8, 8))
MODEL = build_model(2)


def cos_x0(grid=GRID):
    return sample(TrigPolySpec.from_terms([TrigTerm((1,) + (0,) * (len(grid.sizes) - 1), 1.0)]), grid)


def random_field(grid, seed=0, amplitude=0.2):
    rng = np.random.default_rng(seed)
    d = len(grid.active_dims)
    terms = []
    for _ in range(5):
        k = tuple(int(rng.integers(-2, 3)) for _ in range(d))
        if not any(k):
            k = (1,) + (0,) * (d - 1)
        terms.append(TrigTerm(k, amplitude * float(rng.uniform(0.2, 1.0)), float(rng.uniform(0, 6.28))))
    return sample(TrigPolySpec.from_terms(terms), grid)


def omega_field(grid=GRID):
    return constant_two_form_field(grid, standard_form(grid.n))


# -- d_J ---------------------------------------------------------------------


def test_d_j_of_constant_vanishes():
    assert np.max(np.abs(d_j(ScalarField.constant(GRID, 3.0)))) == 0.0


def test_d_j_z0_plane_structure():
    u = cos_x0()
    dj = d_j(u)
    u0bar = -0.5 * np.sin(GRID.coordinates()[0])  # d/dzbar^0 cos x^0
    assert np.max(np.abs(dj[1] - u0bar)) < 1e-13
    assert np.max(np.abs(dj[0])) < 1e-14  # u does not depend on z^1
    assert np.max(np.abs(dj[2:])) < 1e-14


def test_d_j_matches_j_table_oracle():
    u = random_field(RICH_GRID, seed=3)
    ops = spectral_ops(RICH_GRID)
    hat = ops.live_fft(u.values)
    dbar = ops.zbar_gradient_batched_from_hat(hat)
    zero = np.zeros_like(dbar)
    jh, _ = apply_j_one_form(zero, dbar, RICH_GRID.n)
    oracle = -jh
    assert np.max(np.abs(d_j(u) - oracle)) < 1e-12


# -- quaternionic Hessian ------------------------------------------------------


def test_del_del_j_of_zero_and_constants():
    assert np.max(np.abs(del_del_j(ScalarField.zeros(GRID)).entries)) == 0.0
    assert np.max(np.abs(del_del_j(ScalarField.constant(GRID, 5.0)).entries)) == 0.0


def test_del_del_j_cosine_block():
    u = cos_x0()
    dd = del_del_j(u)
    x0 = GRID.coordinates()[0]
    expected = np.broadcast_to(-0.25 * np.cos(x0), GRID.shape)
    assert np.max(np.abs(dd.entries[0, 1] - expected)) < 1e-13
    s1 = s1_field(dd)
    assert np.max(np.abs(s1.values - expected)) < 1e-13
    hl = half_laplacian(u)
    assert np.max(np.abs(s1.values - hl.values)) < 1e-14


def test_del_del_j_is_j_real():
    u = random_field(RICH_GRID, seed=11)
    assert del_del_j(u).j_reality_defect() <= 1e-10


def test_s1_field_of_standard_form_is_n():
    assert np.all(s1_field(omega_field()).values == 2.0)


def test_s1_field_linearity():
    u = random_field(RICH_GRID, seed=1)
    v = random_field(RICH_GRID, seed=2)
    a, b = 1.7, -0.6
    left = s1_field(del_del_j(a * u + b * v))
    right = a * s1_field(del_del_j(u)) + b * s1_field(del_del_j(v))
    assert np.max(np.abs(left.values - right.values)) < 1e-12


# -- evolving form --------------------------------------------------------------


def test_flow_form_at_zero_and_constant_potential():
    oh = build_omega_h(MODEL, GRID, 1.3, TrigPolySpec.from_terms([TrigTerm((1, 0), 0.05)]))
    for u in (ScalarField.zeros(GRID), ScalarField.constant(GRID, -2.0)):
        omt = flow_form(u, oh)
        assert np.max(np.abs(omt.entries - oh.entries)) == 0.0


def test_flow_form_hessian_reconstruction():
    oh = build_omega_h(MODEL, RICH_GRID, 1.0, TrigPolySpec.from_terms([TrigTerm((1, 0, 0), 0.05)]))
    u = random_field(RICH_GRID, seed=8, amplitude=0.1)
    omt = flow_form(u, oh)
    dd = del_del_j(u)
    # both forms are the flow's own bundles, bit for bit, and expand to the
    # entries of the full Hessian bundle
    ops = spectral_ops(RICH_GRID)
    hat = ops.live_fft(u.values)
    assert dd.slots.tobytes() == ops.ddj_slots_from_hat(hat).tobytes()
    assert dd.entries.tobytes() == full_from_upper(ops.ddj_upper_s1_from_hat(hat)[0], 4).tobytes()
    assert omt.slots.tobytes() == ops.packed_form_from_hat(oh.slots, hat).tobytes()
    # S_1 off the slots is the sum of the full form's blocks, in block order
    for form in (dd, omt, oh):
        blocks = sum(form.entries[2 * i, 2 * i + 1] for i in range(2))
        assert s1_field(form).values.tobytes() == blocks.real.tobytes()
    s1_t = s1_field(omt).values
    s1_h = s1_field(oh).values
    om = standard_form(2).reshape(4, 4, 1, 1, 1)
    recon = (oh.entries - s1_h * om + s1_t * om - omt.entries) * 1.0  # n - 1 = 1
    assert np.max(np.abs(recon - dd.entries)) < 1e-10


# -- right-hand side -------------------------------------------------------------


def test_flow_rhs_trivial_zero():
    rhs = flow_rhs(ScalarField.zeros(GRID), omega_field(), ScalarField.zeros(GRID))
    assert np.max(np.abs(rhs.values)) == 0.0


def test_flow_rhs_scaling_log4():
    oh2 = constant_two_form_field(GRID, 2.0 * standard_form(2))
    rhs = flow_rhs(ScalarField.zeros(GRID), oh2, ScalarField.zeros(GRID))
    assert np.max(np.abs(rhs.values - np.log(4.0))) < 1e-14


def test_flow_rhs_manufactured_stationarity():
    uspec = TrigPolySpec.from_terms([TrigTerm((1, 0), 0.1), TrigTerm((1, 1), 0.05)])
    prob = build_manufactured(uspec, GRID)
    rhs = flow_rhs(prob.u_star, prob.omega_h, prob.f)
    assert rhs.max_abs() < 1e-12


def test_flow_rhs_positivity_error_carries_point():
    u = sample(TrigPolySpec.from_terms([TrigTerm((1, 0), 10.0)]), GRID)
    with pytest.raises(PositivityError) as err:
        flow_rhs(u, omega_field(), ScalarField.zeros(GRID))
    assert err.value.point is not None
    assert err.value.min_eigenvalue <= 0


def test_flow_rhs_translation_invariance():
    # only derivatives of u enter; the shift survives solely as transform
    # round-off proportional to the constant
    oh = build_omega_h(MODEL, GRID, 1.0, TrigPolySpec.from_terms([TrigTerm((0, 1), 0.05)]))
    f = random_field(GRID, seed=4, amplitude=0.1)
    u = random_field(GRID, seed=5, amplitude=0.1)
    r0 = flow_rhs(u, oh, f)
    r1 = flow_rhs(u + 17.5, oh, f)
    assert np.max(np.abs(r1.values - r0.values)) < 1e-12


# -- gradient energy --------------------------------------------------------------


def test_gradient_energy_constant_is_zero():
    assert gradient_energy(ScalarField.constant(GRID, 2.0)).max_abs() == 0.0


def test_gradient_energy_cosine():
    u = cos_x0()
    x0 = GRID.coordinates()[0]
    expected = np.broadcast_to(0.25 * np.sin(x0) ** 2, GRID.shape)
    assert np.max(np.abs(gradient_energy(u).values - expected)) < 1e-13


def test_gradient_energy_dual_paths_agree():
    u = random_field(RICH_GRID, seed=19)
    metric = gradient_energy(u)
    wedge = gradient_energy_wedge(u)
    assert np.max(np.abs(metric.values - wedge.values)) < 1e-10
    assert metric.values.min() >= 0.0


def test_gradient_energy_vanishes_only_at_critical_points():
    u = cos_x0()
    beta = gradient_energy(u).values
    x0 = np.broadcast_to(GRID.coordinates()[0], GRID.shape)
    du = np.abs(np.sin(x0))
    assert np.all(beta[du > 0.1] > 1e-4)
    assert np.max(beta[du < 1e-12]) < 1e-20


# -- linearized operator ------------------------------------------------------------


def test_apply_linearized_annihilates_constants():
    oh = build_omega_h(MODEL, GRID, 1.0, TrigPolySpec.from_terms([TrigTerm((0, 1), 0.05)]))
    u = random_field(GRID, seed=6, amplitude=0.1)
    out = apply_linearized(u, ScalarField.constant(GRID, 4.0), oh)
    assert out.max_abs() == 0.0


def test_apply_linearized_flat_background_is_half_laplacian():
    v = random_field(GRID, seed=7, amplitude=0.5)
    out = apply_linearized(ScalarField.zeros(GRID), v, omega_field())
    assert np.max(np.abs(out.values - half_laplacian(v).values)) < 1e-12


def test_apply_linearized_matches_centered_difference():
    oh = build_omega_h(MODEL, GRID, 1.0, TrigPolySpec.from_terms([TrigTerm((0, 1), 0.05)]))
    rng = np.random.default_rng(12)
    u, _, _ = admissible_potential(rng, GRID, oh)
    v = random_field(GRID, seed=13, amplitude=0.5)
    lv = apply_linearized(u, v, oh).values
    f0 = ScalarField.zeros(GRID)
    eps = 1e-4
    diff = (
        flow_rhs(u + eps * v, oh, f0).values - flow_rhs(u + (-eps) * v, oh, f0).values
    ) / (2 * eps)
    assert np.max(np.abs(diff - lv)) < 5e-7


# -- induced metric form --------------------------------------------------------------


def test_induced_metric_form_flat_is_identity():
    form = induced_metric_form(ScalarField.zeros(GRID), omega_field())
    eye = np.eye(4).reshape(4, 4, 1, 1)
    assert np.max(np.abs(form.matrix - eye)) == 0.0
    assert form.hermiticity_defect() == 0.0


def test_induced_metric_form_dual_paths_agree():
    oh = build_omega_h(MODEL, RICH_GRID, 1.0, TrigPolySpec.from_terms([TrigTerm((0, 1, 0), 0.05)]))
    u = random_field(RICH_GRID, seed=14, amplitude=0.1)
    metric = induced_metric_form(u, oh)
    real = induced_metric_form_real_path(u, oh)
    assert np.max(np.abs(metric.matrix - real.matrix)) < 1e-10
    assert metric.hermiticity_defect() < 1e-12
    assert np.all(metric.min_eigenvalue() > 0)


def test_induced_metric_determinant_identity():
    # top power of the induced form against the exponentiated equation
    oh = build_omega_h(MODEL, GRID, 1.0, TrigPolySpec.from_terms([TrigTerm((1, 1), 0.04)]))
    f = random_field(GRID, seed=15, amplitude=0.1)
    u = random_field(GRID, seed=16, amplitude=0.1)
    rhs = flow_rhs(u, oh, f)
    det_u = induced_metric_form(u, oh).det()
    det_flat = np.linalg.det(
        np.moveaxis(positivity_matrix(standard_form(2), 2), (0, 1), (-2, -1))
    ).real
    ratio = det_u / det_flat
    assert np.max(np.abs(ratio - np.exp(2.0 * (rhs.values + f.values)))) < 1e-10


@pytest.mark.parametrize("grid", [GRID, TorusGrid(n=3, active_dims=(0, 6), sizes=(8, 8))], ids=["n2", "n3"])
@pytest.mark.parametrize("operator", ["apply_linearized", "induced_metric_form"])
def test_operators_reject_an_evolving_form_outside_the_cone(grid, operator):
    # the precondition is the flow's guard on the slots; it names the worst
    # point in the words of the eigenvalue test of the full form
    oh = build_omega_h(build_model(grid.n), grid, 1.0, TrigPolySpec.from_terms([TrigTerm((1, 1), 0.05)]))
    u = sample(TrigPolySpec.from_terms([TrigTerm((1, 0), 6.0, 0.3), TrigTerm((0, 1), 3.0, 1.1)]), grid)
    min_eig = min_positivity_eigenvalue(flow_form(u, oh).entries, grid.n)
    with pytest.raises(PositivityError) as full:
        require_positive_minimum(min_eig, 0.0, "the evolving form")
    with pytest.raises(PositivityError) as err:
        if operator == "apply_linearized":
            apply_linearized(u, u, oh)
        else:
            induced_metric_form(u, oh)
    assert err.value.point == full.value.point is not None
    assert err.value.min_eigenvalue == pytest.approx(full.value.min_eigenvalue, rel=1e-15, abs=0.0)
    assert err.value.min_eigenvalue < 0
    assert str(err.value) == str(full.value)

"""Time stepper: guards, CFL bound, steady detection, monitors."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qmaflow import fields
from qmaflow.errors import PositivityError, SpecValidationError, StiffnessError
from qmaflow.exterior import full_from_upper, pfaffian
from qmaflow.fields import (
    DFT_MATRIX_MAX_AXIS,
    PackedTwoForm,
    ScalarField,
    TorusGrid,
    TrigPolySpec,
    TrigTerm,
    build_omega_h,
    constant_two_form_field,
    sample,
    spectral_ops,
)
from qmaflow.flow import (
    MAX_HALVINGS,
    DiagnosticsRecord,
    FlowEngine,
    FlowState,
    cfl_dt,
    monitor_maximum_principle,
    normalize,
    packed_block_terms,
    run_to_steady,
    step,
)
from qmaflow.model import (
    block_eigenvalues,
    build_model,
    min_positivity_eigenvalue,
    positivity_eigenvalues,
    positivity_matrix,
    standard_form,
)
from qmaflow.operators import flow_form
from qmaflow.verify import (
    admissible_potential,
    build_manufactured,
    default_identity_grid,
    fit_exponential_decay,
    random_j_real_positive,
)

from support import full_grid_multipliers, stacked_axis_gradient_norm2, stacked_gradient_norm2, traced_peak

GRID = TorusGrid(n=2, active_dims=(0, 4), sizes=(16, 16))
MODEL = build_model(2)


def omega_field(grid=GRID):
    return constant_two_form_field(grid, standard_form(grid.n))


@pytest.fixture(scope="module")
def manufactured_run():
    uspec = TrigPolySpec.from_terms([TrigTerm((1, 0), 0.1), TrigTerm((1, 1), 0.05)])
    rspec = TrigPolySpec.from_terms([TrigTerm((0, 1), 0.05)])
    prob = build_manufactured(uspec, GRID, c=1.0, rho=rspec)
    result = run_to_steady(
        ScalarField.zeros(GRID), prob.omega_h, prob.f, tol_steady=1e-8, t_max=200.0
    )
    return prob, result


# -- normalize -----------------------------------------------------------------


def test_normalize_constant_vanishes():
    assert normalize(ScalarField.constant(GRID, 7.0)).max_abs() == 0.0


def test_normalize_mean_zero_unchanged_and_idempotent():
    u = sample(TrigPolySpec.from_terms([TrigTerm((1, 0), 1.0)]), GRID)
    n1 = normalize(u)
    assert np.max(np.abs(n1.values - u.values)) < 1e-13
    n2 = normalize(n1)
    assert np.max(np.abs(n2.values - n1.values)) < 1e-15
    rng = np.random.default_rng(1)
    w = ScalarField(GRID, rng.normal(size=GRID.shape))
    assert abs(normalize(w).mean()) < 1e-13


# -- CFL ------------------------------------------------------------------------


def test_cfl_dt_flat_background():
    h = 2 * np.pi / 16
    dt = cfl_dt(ScalarField.zeros(GRID), omega_field())
    assert dt == pytest.approx(0.2 * h * h / 2.0, rel=1e-12)


def test_cfl_dt_doubles_when_form_doubles():
    oh2 = constant_two_form_field(GRID, 2.0 * standard_form(2))
    dt1 = cfl_dt(ScalarField.zeros(GRID), omega_field())
    dt2 = cfl_dt(ScalarField.zeros(GRID), oh2)
    assert dt2 == pytest.approx(2.0 * dt1, rel=1e-12)


def test_cfl_kappa_matches_bruteforce_eigen_scan():
    rho = TrigPolySpec.from_terms([TrigTerm((1, 1), 0.05)])
    oh = build_omega_h(MODEL, GRID, 1.2, rho)
    rng = np.random.default_rng(9)
    u, _, _ = admissible_potential(rng, GRID, oh)
    engine = FlowEngine(oh, ScalarField.zeros(GRID))
    stage = engine.evaluate(u.values)
    omt = flow_form(u, oh)
    m = np.moveaxis(positivity_matrix(omt.entries, 2), (0, 1), (-2, -1))
    eig = np.linalg.eigvalsh(m)
    paired = 0.5 * (eig[..., 0::2] + eig[..., 1::2])
    kappa_brute = float((1.0 / paired).sum(axis=-1).max())
    assert stage.kappa == pytest.approx(kappa_brute, rel=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_engine_guard_matches_bruteforce_eigen_scan(n):
    # kappa and min_eig of the stepper's guard (closed form for n = 2, 3,
    # paired eigvalsh for n = 4) against a direct scan of the positivity matrix
    grid = TorusGrid(n=n, active_dims=(0, 1, 2 * n + 2), sizes=(8, 8, 8))
    rho = TrigPolySpec.from_terms([TrigTerm((1, 1, 0), 0.05), TrigTerm((0, 1, 1), 0.03)])
    oh = build_omega_h(build_model(n), grid, 1.2, rho)
    rng = np.random.default_rng(9)
    u, _, _ = admissible_potential(rng, grid, oh)
    stage = FlowEngine(oh, ScalarField.zeros(grid)).evaluate(u.values)
    m = np.moveaxis(positivity_matrix(flow_form(u, oh).entries, n), (0, 1), (-2, -1))
    eig = np.linalg.eigvalsh(m)
    paired = 0.5 * (eig[..., 0::2] + eig[..., 1::2])
    assert stage.ok
    assert stage.kappa == pytest.approx(float((1.0 / paired).sum(axis=-1).max()), rel=1e-10)
    assert stage.min_eig == pytest.approx(float(eig.min()), rel=1e-10)


def test_n3_positivity_tests_take_no_eigensolver(monkeypatch):
    # n = 3 takes its block eigenvalues in closed form everywhere: the
    # background check, the flow's guard and the library's positivity test
    def no_eigensolver(m):
        raise AssertionError("an n = 3 positivity test called eigvalsh")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolver)
    grid = TorusGrid(n=3, active_dims=(0, 1, 8), sizes=(8, 8, 8))
    uspec = TrigPolySpec.from_terms([TrigTerm((1, 0, 0), 0.1), TrigTerm((1, 1, 1), 0.05)])
    rspec = TrigPolySpec.from_terms([TrigTerm((0, 1, 1), 0.05)])
    prob = build_manufactured(uspec, grid, rho=rspec)
    engine = FlowEngine(prob.omega_h, prob.f)
    assert engine.evaluate(prob.u_star.values).ok
    assert not engine.evaluate(40.0 * prob.u_star.values).ok
    assert float(np.min(min_positivity_eigenvalue(prob.omega_h.entries, 3))) > 0


# -- the packed flow map -------------------------------------------------------------


def _smooth_field(grid, seed, ddj_size):
    """A random real field on the modes |k| <= 1, scaled so its Hessian peaks at ddj_size."""
    ops = spectral_ops(grid)
    freqs = np.meshgrid(*[np.fft.fftfreq(s) * s for s in grid.sizes], indexing="ij")
    low = np.all([np.abs(k) <= 1 for k in freqs], axis=0)
    noise = np.random.default_rng(seed).standard_normal(grid.shape)
    u = np.fft.ifftn(low * np.fft.fftn(noise)).real
    upper, _ = ops.ddj_upper_s1_from_hat(ops.live_fft(u))
    return ddj_size * u / np.max(np.abs(upper))


def _background(grid, kind, seed):
    if kind == "rho":  # c Omega + ddj(rho), varying over the grid
        rho = TrigPolySpec.single((1,) + (0,) * (len(grid.sizes) - 2) + (1,), 0.03)
        return build_omega_h(build_model(grid.n), grid, 1.1, rho)
    # a constant non-standard J-real form: on the z0 plane its off-block
    # entries sit where every multiplier of the flow map vanishes
    alpha = random_j_real_positive(np.random.default_rng(seed), grid.n)
    return constant_two_form_field(grid, alpha)


PACKED_CASES = {
    "n2-4^8-dft": (TorusGrid(n=2, active_dims=tuple(range(8)), sizes=(4,) * 8), "rho"),
    "n2-16x16": (TorusGrid(n=2, active_dims=(0, 4), sizes=(16, 16)), "rho"),
    "n3-8^3": (TorusGrid(n=3, active_dims=(0, 1, 8), sizes=(8, 8, 8)), "rho"),
    "n4-z0-8x8": (TorusGrid(n=4, active_dims=(0, 8), sizes=(8, 8)), "rho"),
    **{
        f"n{n}-z0-constant": (TorusGrid(n=n, active_dims=(0, 2 * n), sizes=(8, 8)), "constant")
        for n in (2, 3, 4)
    },
}


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("name", list(PACKED_CASES))
def test_packed_flow_map_matches_references(name):
    # the engine's packed J-real slots against the unpacked references: the
    # form from the Hessian bundle, eta from S_1, the right-hand side from
    # the full-matrix Pfaffian of flow_form
    grid, kind = PACKED_CASES[name]
    n = grid.n
    oh = _background(grid, kind, seed=31)
    f = ScalarField(grid, _smooth_field(grid, 32, 0.2))
    u = ScalarField(grid, _smooth_field(grid, 33, 0.1))
    engine = FlowEngine(oh, f)
    ops = engine.ops
    hat = ops.live_fft(u.values)
    stage = engine.evaluate(u.values, hat)
    assert stage.ok
    # S_1's multiplier is real: the complex product's imaginary part cancels exactly
    z, zbar, s1_mult = full_grid_multipliers(ops)
    assert s1_mult.dtype == float
    assert not np.any(sum(a * b for a, b in zip(z, zbar)).imag)
    assert np.array_equal(ops.s1_live, s1_mult.reshape(-1)[ops._live_index])

    ddj, s1 = ops.ddj_upper_s1_from_hat(hat)
    omega_upper = np.array([standard_form(n)[j, k] for j, k in ops.pairs])
    omega_upper = omega_upper.reshape((-1,) + (1,) * len(grid.shape))
    oh_upper = np.stack([oh.entries[j, k] for j, k in ops.pairs])
    form_ref = oh_upper + (s1 * omega_upper - ddj) / (n - 1)
    omt = flow_form(u, oh)
    form = ops.unpack_form(omt.slots)
    assert _rel(form, form_ref) <= 1e-12
    assert _rel(stage.eta, ops.s1_from_hat(hat)) <= 1e-12

    pf = pfaffian(omt.entries).real
    rhs_ref = np.log(pf / pfaffian(standard_form(n)).real) - f.values
    assert _rel(stage.rhs, rhs_ref) <= 1e-12
    assert _rel(pfaffian(full_from_upper(form_ref, 2 * n)).real, pf) <= 1e-12


@pytest.mark.parametrize("name", list(PACKED_CASES))
def test_slot_invariants_are_block_eigenvalue_symmetric_functions(name):
    # S_1 and S_2 of the positivity test on the packed slots (S_2 is S_n for
    # n = 2 and S_{n-1} for n = 3) against e_1 and e_2 of the block
    # eigenvalues of the unpacked form
    grid, kind = PACKED_CASES[name]
    n = grid.n
    ops = spectral_ops(grid)
    u = ScalarField(grid, _smooth_field(grid, 33, 0.1))
    form = ops.unpack_form(flow_form(u, _background(grid, kind, seed=31)).slots)
    _, s1, s_n, k = packed_block_terms(ops, ops.pack_j_real(form))
    lam = block_eigenvalues(full_from_upper(form, 2 * n), n)
    e1 = lam.sum(axis=-1)
    assert _rel(s1, e1) <= 1e-13
    if n <= 3:
        s2 = s_n if n == 2 else k
        assert _rel(s2, 0.5 * (e1 * e1 - (lam * lam).sum(axis=-1))) <= 1e-13


@pytest.mark.parametrize("name", list(PACKED_CASES))
def test_packed_block_terms_match_the_eigensolver_pairs(name):
    # the positivity test of every form on a grid against its oracle, the
    # paired spectrum of the unpacked form's positivity matrix
    grid, kind = PACKED_CASES[name]
    n = grid.n
    omt = flow_form(ScalarField(grid, _smooth_field(grid, 33, 0.1)), _background(grid, kind, seed=31))
    lam_min, s1, s_n, k = packed_block_terms(spectral_ops(grid), omt.slots)
    eig = positivity_eigenvalues(omt.entries, n)
    paired = 0.5 * (eig[..., 0::2] + eig[..., 1::2])
    e1 = paired.sum(axis=-1)
    assert np.max(np.abs(lam_min - paired[..., 0])) <= 1e-12
    assert np.max(np.abs(s1 - e1)) <= 1e-12
    assert np.max(np.abs(s_n - paired.prod(axis=-1))) <= 1e-12
    # kappa = sum 1 / lambda is taken from S_{n-1} / S_n for n <= 3, from
    # the block eigenvalues themselves for n = 4
    k_ref = {2: e1, 3: 0.5 * (e1 * e1 - (paired * paired).sum(axis=-1)), 4: paired}[n]
    assert np.max(np.abs(k - k_ref)) <= 1e-12


@pytest.mark.parametrize("order", [(0, 1, 1), (1, 0, 1), (1, 1, 0)])
def test_packed_block_terms_of_diagonal_forms_with_two_equal_blocks(order):
    # test_model's diagonal forms with two equal blocks, packed on a 40 x 50 grid:
    # a double root, where the closed form's arccos costs half the digits
    grid = TorusGrid(n=3, active_dims=(0, 6), sizes=(40, 50))
    blocks = np.random.default_rng(12).uniform(0.5, 1.5, (2, 2000))[list(order)].reshape((3,) + grid.shape)
    ops = spectral_ops(grid)
    zero = np.zeros(grid.shape)
    upper = [blocks[j // 2] if k == j + 1 and j % 2 == 0 else zero for j, k in ops.pairs]
    lam_min, s1, s_n, k = packed_block_terms(ops, ops.pack_j_real(upper))
    e1 = blocks.sum(axis=0)
    assert np.max(np.abs(lam_min - blocks.min(axis=0))) <= 2e-8
    assert np.max(np.abs(s1 - e1)) <= 1e-12
    assert np.max(np.abs(s_n - blocks.prod(axis=0))) <= 1e-12
    assert np.max(np.abs(k - 0.5 * (e1 * e1 - (blocks * blocks).sum(axis=0)))) <= 1e-12


# 3^8 grids on all 8 coordinates (n = 2) and on x^0..x^3, x^6..x^9 (n = 3), and the identity grids
ONE_TEST_GRIDS = {
    "n2-3^8": TorusGrid(n=2, active_dims=tuple(range(8)), sizes=(3,) * 8),
    "n3-3^8": TorusGrid(n=3, active_dims=(0, 1, 2, 3, 6, 7, 8, 9), sizes=(3,) * 8),
    "n2-identity": default_identity_grid(2),
    "n3-identity": default_identity_grid(3),
}


@pytest.mark.parametrize("name", list(ONE_TEST_GRIDS))
def test_one_positivity_test_on_slots_and_on_full_forms(name):
    # the guard on a grid form's packed slots and block_eigenvalues on its
    # full entries are one closed form, so they agree bit for bit
    grid = ONE_TEST_GRIDS[name]
    ops = spectral_ops(grid)
    oh = _background(grid, "rho", seed=31)
    omt = flow_form(ScalarField(grid, _smooth_field(grid, 33, 0.1)), oh)
    for form in (oh, omt):
        lam_min = packed_block_terms(ops, form.slots)[0]
        assert np.array_equal(lam_min, block_eigenvalues(form.entries, grid.n)[..., 0])


ZERO_ETA_CASES = {
    "n2-4^8": (PACKED_CASES["n2-4^8-dft"][0], [((1, 0, 0, 0, 0, 0, 1, 0), 0.03), ((0, 1, 0, 0, 0, 1, 0, 0), 0.02)]),
    "n3-3^8": (
        ONE_TEST_GRIDS["n3-3^8"],
        [((1,) + (0,) * 7, 0.05), ((0,) * 7 + (1,), 0.03), ((1,) * 8, 0.02)],
    ),
    "n3-8^3": (PACKED_CASES["n3-8^3"][0], [((1, 0, 1), 0.05), ((0, 1, 1), 0.03)]),
    "n4-z0-8x8": (PACKED_CASES["n4-z0-8x8"][0], [((1, 0), 0.05), ((1, 1), 0.03)]),
}


@pytest.mark.parametrize("name", list(ZERO_ETA_CASES))
def test_eta_is_exactly_zero_at_zero_potential(name):
    # eta = S_1(ddj u) is S_1 of the evolving form less the background's;
    # both are the blocks' sum in block order, so at u = 0 it is exactly 0
    grid, terms = ZERO_ETA_CASES[name]
    rho = TrigPolySpec.from_terms([TrigTerm(k, amplitude) for k, amplitude in terms])
    oh = build_omega_h(build_model(grid.n), grid, 1.0, rho)
    stage = FlowEngine(oh, ScalarField.zeros(grid)).evaluate(np.zeros(grid.shape))
    assert stage.ok and np.all(stage.eta == 0)


def test_packed_background_keeps_entries_with_vanishing_multipliers():
    # on the z0 plane no multiplier reaches an off-block entry, yet a
    # constant J-real background is non-zero there and enters the Pfaffian
    grid, _ = PACKED_CASES["n2-z0-constant"]
    alpha = random_j_real_positive(np.random.default_rng(34), 2)
    engine = FlowEngine(constant_two_form_field(grid, alpha), ScalarField.zeros(grid))
    stage = engine.evaluate(np.zeros(grid.shape))
    assert stage.ok and abs(alpha[0, 2]) > 0.01
    assert np.allclose(stage.rhs, np.log(pfaffian(alpha).real), rtol=0, atol=1e-14)


@pytest.mark.parametrize("where", ["partner", "block"])
def test_engine_rejects_a_background_that_is_not_j_real(where):
    alpha = random_j_real_positive(np.random.default_rng(35), 2)
    j, k = (0, 2) if where == "partner" else (0, 1)
    bump = 0.05 if where == "partner" else 0.05j  # a complex block, or a broken partner relation
    alpha[j, k] += bump
    alpha[k, j] -= bump
    with pytest.raises(SpecValidationError, match="J-real"):
        FlowEngine(constant_two_form_field(GRID, alpha), ScalarField.zeros(GRID))


def test_constant_form_is_packed_from_views_of_its_entries():
    # the constant background is packed slot by slot from broadcast views of
    # the matrix, never as its (2n, 2n) + grid copy (run4's 4^8 grid)
    grid = TorusGrid(n=2, active_dims=tuple(range(8)), sizes=(4,) * 8)
    alpha = random_j_real_positive(np.random.default_rng(37), 2)
    oh, peak = traced_peak(lambda: constant_two_form_field(grid, alpha))
    assert isinstance(oh, PackedTwoForm) and peak < 2 * oh.slots.nbytes
    assert np.array_equal(oh.entries, np.broadcast_to(alpha.reshape((4, 4) + (1,) * 8), (4, 4) + grid.shape))
    with pytest.raises(SpecValidationError, match="shape"):
        constant_two_form_field(grid, standard_form(3))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_engine_accepts_j_real_backgrounds(n):
    grid = TorusGrid(n=n, active_dims=(0, 1, 2 * n), sizes=(4, 4, 4))
    rho = TrigPolySpec.from_terms([TrigTerm((1, 1, 0), 0.02), TrigTerm((0, 1, 1), 0.02)])
    alpha = random_j_real_positive(np.random.default_rng(36), n)
    for oh in (
        build_omega_h(build_model(n), grid, 1.0, rho),
        constant_two_form_field(grid, standard_form(n)),
        constant_two_form_field(grid, alpha),
    ):
        assert FlowEngine(oh, ScalarField.zeros(grid)).evaluate(np.zeros(grid.shape)).ok


def test_cfl_dt_requires_positivity():
    u = sample(TrigPolySpec.from_terms([TrigTerm((1, 0), 10.0)]), GRID)
    with pytest.raises(PositivityError):
        cfl_dt(u, omega_field())


# -- stepping ----------------------------------------------------------------------


def test_step_constant_dynamics_exact():
    f = ScalarField.constant(GRID, 0.4)
    state = FlowState(u=ScalarField.zeros(GRID), t=0.0, dt=0.01, step_count=0)
    for _ in range(50):
        state = step(state, omega_field(), f)
    assert state.step_count == 50
    assert np.max(np.abs(state.u.values + 0.4 * state.t)) < 1e-12


def test_step_keeps_manufactured_solution_fixed():
    uspec = TrigPolySpec.from_terms([TrigTerm((1, 0), 0.1), TrigTerm((1, 1), 0.05)])
    prob = build_manufactured(uspec, GRID)
    engine = FlowEngine(prob.omega_h, prob.f)
    stage = engine.evaluate(prob.u_star.values)
    state = FlowState(u=prob.u_star, t=0.0, dt=engine.cfl_cap(stage), step_count=0)
    for _ in range(100):
        state, stage = engine.step(state, stage)
    assert np.max(np.abs(state.u.values - prob.u_star.values)) < 1e-10


def test_step_rejects_huge_dt():
    # a violently rough source makes the first attempt overshoot the cone
    f = sample(TrigPolySpec.from_terms([TrigTerm((3, 2), 40.0)]), GRID)
    state = FlowState(u=ScalarField.zeros(GRID), t=0.0, dt=1e6, step_count=0)
    new_state = step(state, omega_field(), f)
    assert new_state.dt < 1e6
    assert new_state.step_count == 1
    omt = flow_form(new_state.u, omega_field())
    assert float(np.min(min_positivity_eigenvalue(omt.entries, 2))) > 0


def test_step_stiffness_error_after_max_halvings():
    f = sample(TrigPolySpec.from_terms([TrigTerm((1, 0), 1.0)]), GRID)
    engine = FlowEngine(omega_field(), f, margin=1.0 - 1e-12)
    stage = engine.evaluate(np.zeros(GRID.shape))
    assert stage.ok  # the flat start sits exactly at eigenvalue one
    state = FlowState(u=ScalarField.zeros(GRID), t=0.0, dt=0.01, step_count=0)
    with pytest.raises(StiffnessError):
        engine.step(state, stage)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_evaluation_tests_finiteness_by_extrema(bad):
    # NaN reaches both extrema and an infinity one of them: a non-finite u is
    # rejected before the form is built, a non-finite right-hand side after;
    # a finite evaluation keeps the extrema its diagnostics read
    u = np.zeros(GRID.shape)
    u[2, 3] = bad
    engine = FlowEngine(omega_field(), ScalarField.zeros(GRID))
    stage = engine.evaluate(u)
    assert not stage.ok and stage.rhs is None and stage.extrema is None
    f = np.zeros(GRID.shape)
    f[2, 3] = bad
    stage = FlowEngine(omega_field(), ScalarField(GRID, f)).evaluate(np.zeros(GRID.shape))
    assert not stage.ok and stage.rhs is not None and stage.extrema is None
    u = sample(TrigPolySpec.single((1, 1), 0.1), GRID).values
    stage = engine.evaluate(u)
    assert stage.ok and stage.extrema == (u.max(), u.min(), stage.rhs.max(), stage.rhs.min())


def test_non_finite_right_hand_side_fails_a_start_and_rejects_a_trial_step():
    # the flat start passes the guard, but log S_n - f is not finite at one
    # point: the initial state raises a SpecValidationError naming it, while
    # a trial step there is a rejection, halved like any other
    f = np.zeros(GRID.shape)
    f[2, 3] = np.inf
    engine = FlowEngine(omega_field(), ScalarField(GRID, f))
    stage = engine.evaluate(np.zeros(GRID.shape))
    assert not stage.ok and stage.min_eig == pytest.approx(1.0)
    with pytest.raises(SpecValidationError, match=r"is -inf at grid point \(2, 3\)"):
        run_to_steady(ScalarField.zeros(GRID), omega_field(), ScalarField(GRID, f))
    start = FlowEngine(omega_field(), ScalarField.zeros(GRID)).evaluate(np.zeros(GRID.shape))
    state = FlowState(u=ScalarField.zeros(GRID), t=0.0, dt=0.01, step_count=0)
    with pytest.raises(StiffnessError):
        engine.step(state, start)
    assert engine.halvings == MAX_HALVINGS + 1


def test_step_constant_source_exact_far_above_cfl():
    # the constant mode has symbol zero, so the semi-implicit step is exact
    # at any dt; 0.5 is more than thirty times the parabolic cap
    f = ScalarField.constant(GRID, 0.4)
    engine = FlowEngine(omega_field(), f)
    stage = engine.evaluate(np.zeros(GRID.shape))
    dt = 0.5
    assert dt > 30 * cfl_dt(ScalarField.zeros(GRID), omega_field())
    assert engine.step_cap(stage) > dt
    state = FlowState(u=ScalarField.zeros(GRID), t=0.0, dt=dt, step_count=0)
    for _ in range(40):
        state, stage = engine.step(state, stage)
        assert state.dt == dt
    assert state.t == pytest.approx(40 * dt)
    assert np.max(np.abs(state.u.values + 0.4 * state.t)) < 1e-12
    assert engine.halvings == 0


def test_step_carries_the_spectrum_of_u():
    # each step hands the next evaluation old spectrum + update spectrum
    # instead of transforming the new state; it must stay live_fft(u), on a
    # DFT-matrix grid and on a numpy.fft grid
    uspec = TrigPolySpec.from_terms([TrigTerm((1, 0), 0.1), TrigTerm((1, 1), 0.05)])
    rspec = TrigPolySpec.from_terms([TrigTerm((0, 1), 0.05)])
    numpy_grid = TorusGrid(n=2, active_dims=(0, 4), sizes=(DFT_MATRIX_MAX_AXIS + 8, 16))
    for grid, on_dft in ((GRID, True), (numpy_grid, False)):
        prob = build_manufactured(uspec, grid, c=1.0, rho=rspec)
        engine = FlowEngine(prob.omega_h, prob.f)
        assert (engine.ops._live_dft is not None) == on_dft
        stage = engine.evaluate_or_raise(np.zeros(grid.shape), "initial data")
        state = FlowState(u=ScalarField.zeros(grid), t=0.0, dt=engine.step_cap(stage), step_count=0)
        for _ in range(40):
            state, stage = engine.step(state, stage)
        hat = engine.ops.live_fft(state.u.values)
        assert stage.hat.shape == (len(engine.ops._live_index),)
        assert np.max(np.abs(stage.hat - hat)) <= 1e-12 * np.max(np.abs(hat))
        assert engine.evaluations == 41


def _heun_to_steady(prob, grid, tol_steady=1e-8):
    """The Heun reference integrator at its CFL cap, to the same tolerance."""
    engine = FlowEngine(prob.omega_h, prob.f)
    stage = engine.evaluate_or_raise(np.zeros(grid.shape), "initial data")
    state = FlowState(u=ScalarField.zeros(grid), t=0.0, dt=engine.cfl_cap(stage), step_count=0)
    while stage.rhs.max() - stage.rhs.min() >= tol_steady:
        state.dt = engine.cfl_cap(stage)
        state, stage = engine.heun_step(state, stage)
    return normalize(state.u), float(stage.rhs.mean()), state.step_count


@pytest.mark.parametrize(
    "grid",
    [
        TorusGrid(n=2, active_dims=(0, 4), sizes=(16, 16)),
        TorusGrid(n=3, active_dims=(0, 6), sizes=(8, 8)),
    ],
    ids=["n2-16x16", "n3-8x8"],
)
def test_step_and_heun_reference_reach_same_limit(grid):
    uspec = TrigPolySpec.from_terms([TrigTerm((1, 0), 0.1), TrigTerm((1, 1), 0.05)])
    rspec = TrigPolySpec.from_terms([TrigTerm((0, 1), 0.05)])
    prob = build_manufactured(uspec, grid, c=1.0, rho=rspec)
    result = run_to_steady(
        ScalarField.zeros(grid), prob.omega_h, prob.f, tol_steady=1e-8, t_max=200.0
    )
    u_heun, b_heun, heun_steps = _heun_to_steady(prob, grid)
    assert result.converged
    assert np.max(np.abs(result.u_normalized.values - u_heun.values)) <= 1e-7
    assert abs(result.b_tilde - b_heun) <= 1e-9
    assert 10 * result.steps < heun_steps


@pytest.mark.parametrize(
    "grid",
    [
        TorusGrid(n=2, active_dims=(0, 4), sizes=(16, 16)),
        TorusGrid(n=3, active_dims=(0, 6), sizes=(8, 8)),
    ],
    ids=["n2-16x16", "n3-8x8"],
)
def test_dft_matrices_reach_the_numpy_fft_fixed_point(grid, monkeypatch):
    # the same manufactured run on live-mode DFT matrices and forced onto numpy.fft
    uspec = TrigPolySpec.from_terms([TrigTerm((1, 0), 0.1), TrigTerm((1, 1), 0.05)])
    rspec = TrigPolySpec.from_terms([TrigTerm((0, 1), 0.05)])
    results = []
    for max_axis, on_dft in ((fields.DFT_MATRIX_MAX_AXIS, True), (0, False)):
        monkeypatch.setattr(fields, "DFT_MATRIX_MAX_AXIS", max_axis)
        monkeypatch.setattr(fields, "_SPECTRAL_CACHE", {})
        assert (spectral_ops(grid)._live_dft is not None) == on_dft
        prob = build_manufactured(uspec, grid, c=1.0, rho=rspec)
        results.append(
            run_to_steady(ScalarField.zeros(grid), prob.omega_h, prob.f, tol_steady=1e-8, t_max=200.0)
        )
    dft, ref = results
    assert dft.converged and ref.converged and dft.steps == ref.steps
    assert np.max(np.abs(dft.u_normalized.values - ref.u_normalized.values)) <= 1e-13
    assert abs(dft.b_tilde - ref.b_tilde) <= 1e-13


def test_limit_has_no_nyquist_content():
    # on a 4x4 grid products of unit modes alias into the Nyquist index 2,
    # which the derivative multipliers cannot see; the projected update
    # keeps u out of those modes, so the limit is the band-limited u_star
    grid = TorusGrid(n=2, active_dims=(0, 4), sizes=(4, 4))
    uspec = TrigPolySpec.from_terms([TrigTerm((1, 0), 0.1), TrigTerm((1, 1), 0.05)])
    rspec = TrigPolySpec.from_terms([TrigTerm((0, 1), 0.05)])
    prob = build_manufactured(uspec, grid, c=1.0, rho=rspec)
    result = run_to_steady(
        ScalarField.zeros(grid), prob.omega_h, prob.f, tol_steady=1e-8, t_max=200.0
    )
    hat = np.fft.fftn(result.u_normalized.values) / grid.num_points
    assert result.converged
    assert np.max(np.abs(hat[2, :])) < 1e-15 and np.max(np.abs(hat[:, 2])) < 1e-15
    target = normalize(prob.u_star)
    assert np.max(np.abs(result.u_normalized.values - target.values)) < 1e-6


def test_run_counts_halvings(manufactured_run):
    # a violently rough source overshoots the cone at the capped step; the
    # first accepted step shows every halving the run made
    f = sample(TrigPolySpec.from_terms([TrigTerm((3, 2), 40.0)]), GRID)
    result = run_to_steady(ScalarField.zeros(GRID), omega_field(), f, t_max=0.005)
    first, second = result.history[:2]
    assert result.steps == 1
    assert result.halvings > 0
    assert second.dt == first.dt / 2**result.halvings
    assert second.min_eig_omega_tilde > 0
    assert manufactured_run[1].halvings == 0


def test_trajectory_translation_equivariance():
    uspec = TrigPolySpec.from_terms([TrigTerm((1, 0), 0.1)])
    prob = build_manufactured(uspec, GRID)
    engine = FlowEngine(prob.omega_h, prob.f)

    def run_steps(u0, count=50):
        stage = engine.evaluate(u0.values)
        state = FlowState(u=u0, t=0.0, dt=engine.cfl_cap(stage), step_count=0)
        for _ in range(count):
            state, stage = engine.step(state, stage)
        return state

    a = run_steps(ScalarField.zeros(GRID))
    b = run_steps(ScalarField.constant(GRID, 3.0))
    assert np.max(np.abs(b.u.values - a.u.values - 3.0)) < 1e-11


# -- run_to_steady -------------------------------------------------------------------


def test_run_constant_source():
    f = ScalarField.constant(GRID, 0.25)
    result = run_to_steady(ScalarField.zeros(GRID), omega_field(), f)
    assert result.converged
    assert result.b_tilde == pytest.approx(-0.25, abs=1e-10)
    assert result.u_normalized.max_abs() == 0.0
    assert result.residual == 0.0


def test_run_initial_positivity_rejected():
    u0 = sample(TrigPolySpec.from_terms([TrigTerm((1, 0), 10.0)]), GRID)
    with pytest.raises(PositivityError):
        run_to_steady(u0, omega_field(), ScalarField.zeros(GRID))


def test_run_t_max_returns_partial():
    uspec = TrigPolySpec.from_terms([TrigTerm((1, 0), 0.1)])
    prob = build_manufactured(uspec, GRID)
    result = run_to_steady(
        ScalarField.zeros(GRID), prob.omega_h, prob.f, tol_steady=1e-13, t_max=0.5
    )
    assert not result.converged
    assert result.t_final >= 0.5
    assert result.history[-1].osc_ut > 1e-13


def test_run_manufactured_converges(manufactured_run):
    prob, result = manufactured_run
    assert result.converged
    target = normalize(prob.u_star)
    assert np.max(np.abs(result.u_normalized.values - target.values)) < 1e-6
    assert abs(result.b_tilde) < 1e-8
    assert result.residual < 1e-8


def test_run_manufactured_histories(manufactured_run):
    _, result = manufactured_run
    hist = result.history
    assert monitor_maximum_principle(hist)
    assert all(r.min_eig_omega_tilde > 0 for r in hist)
    ts = [r.t for r in hist]
    assert all(t2 > t1 for t1, t2 in zip(ts, ts[1:]))
    oscs = [r.osc_u for r in hist]
    assert max(oscs) < 1.0  # uniformly bounded oscillation
    assert all(np.isfinite(r.spectral_tail) and r.spectral_tail < 1e-3 for r in hist)


def test_run_steady_state_solves_elliptic_equation(manufactured_run):
    # at convergence the normalized limit satisfies the stationary equation
    # with the reported constant, pointwise within ten_x the residual tol
    prob, result = manufactured_run
    from qmaflow.operators import flow_rhs

    rhs = flow_rhs(result.u_normalized, prob.omega_h, prob.f)
    assert np.max(np.abs(rhs.values - result.b_tilde)) <= 10 * 1e-8


def test_run_manufactured_exponential_decay(manufactured_run):
    prob, result = manufactured_run
    # distance to the stationary potential decays exponentially; fit the
    # oscillation of u_t, which is equivalent up to the spectral gap
    hist = result.history
    half = [r for r in hist if r.t >= result.t_final / 2 and r.osc_ut > 0]
    rate, r2 = fit_exponential_decay([r.t for r in half], [r.osc_ut for r in half])
    assert rate < 0
    assert r2 > 0.99


def test_run_manufactured_n4_converges():
    # the first n=4 flow: an 8^4 grid over the z0 and z1 planes
    grid = TorusGrid(n=4, active_dims=(0, 1, 8, 9), sizes=(8, 8, 8, 8))
    uspec = TrigPolySpec.from_terms(
        [TrigTerm((1, 0, 0, 0), 0.1), TrigTerm((1, 0, 1, 0), 0.05), TrigTerm((0, 1, 0, 0), 0.05)]
    )
    rspec = TrigPolySpec.from_terms([TrigTerm((0, 0, 0, 1), 0.05)])
    prob = build_manufactured(uspec, grid, c=1.0, rho=rspec)
    result = run_to_steady(
        ScalarField.zeros(grid), prob.omega_h, prob.f, tol_steady=1e-8, t_max=200.0
    )
    assert result.converged
    target = normalize(prob.u_star)
    assert np.max(np.abs(result.u_normalized.values - target.values)) <= 1e-7
    assert abs(result.b_tilde) < 1e-8
    assert all(r.min_eig_omega_tilde > 0 for r in result.history)
    assert monitor_maximum_principle(result.history)


def test_flow_engine_setup_peak_is_below_two_packed_backgrounds():
    # a full background form is packed from views of its entries, slot by
    # slot, with no copy of its upper triangle (run4's 4^8 background)
    grid = TorusGrid(n=2, active_dims=tuple(range(8)), sizes=(4,) * 8)
    packed = build_omega_h(MODEL, grid, 1.0, TrigPolySpec.single((0, 0, 0, 1, 0, 0, 1, 0), 0.02))
    entries = packed.entries
    f = ScalarField.zeros(grid)
    ops = spectral_ops(grid)
    slots, peak = traced_peak(lambda: ops.pack_j_real([entries[j, k] for j, k in ops.pairs]))
    assert peak < 2 * slots.nbytes
    # a packed background is used as it is: the engine allocates only S_1's terms
    engine, peak = traced_peak(lambda: FlowEngine(packed, f))
    assert engine._packed_omega_h is packed.slots and peak < packed.slots.nbytes


def test_diagnostics_never_hold_the_gradient_stack():
    # max_beta adds sum_a |u_{abar}|^2 up one axis derivative at a time: on
    # 4^8 the row peaks below one 4-slot gradient stack, with the numbers of
    # the stacked axis derivatives and, to rounding, of the spectral stack
    grid = TorusGrid(n=2, active_dims=tuple(range(8)), sizes=(4,) * 8)
    prob = build_manufactured(
        TrigPolySpec.from_terms([TrigTerm((1, 0, 0, 0, 0, 0, 0, 0), 0.05), TrigTerm((0, 1, 0, 0, 0, 1, 0, 1), 0.03)]),
        grid,
        c=1.0,
        rho=TrigPolySpec.single((0, 0, 0, 1, 0, 0, 1, 0), 0.02),
    )
    engine = FlowEngine(prob.omega_h, prob.f)
    stage = engine.evaluate(prob.u_star.values)
    state = FlowState(prob.u_star, 0.0, 0.1, 0)
    record, peak = traced_peak(lambda: engine.diagnostics(state, stage))
    assert peak < 4 * 2**20
    assert record.max_beta == float(stacked_axis_gradient_norm2(engine.ops, state.u.values).max()) > 0
    spectral = float(stacked_gradient_norm2(engine.ops, stage.hat).max())
    assert abs(record.max_beta - spectral) < 1e-14 * spectral


# -- maximum-principle monitor ----------------------------------------------------


def test_monitor_constant_history():
    recs = [
        DiagnosticsRecord(i, 0.1 * i, 0.1, 0.3, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0)
        for i in range(5)
    ]
    assert monitor_maximum_principle(recs)


def test_monitor_rejects_fabricated_jump():
    recs = [
        DiagnosticsRecord(0, 0.0, 0.1, 0.3, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0),
        DiagnosticsRecord(1, 0.1, 0.1, 0.2, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0),
        DiagnosticsRecord(2, 0.2, 0.1, 0.2 + 1e-6, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0),
    ]
    assert not monitor_maximum_principle(recs)


def test_monitor_needs_two_records():
    with pytest.raises(ValueError):
        monitor_maximum_principle(
            [DiagnosticsRecord(0, 0.0, 0.1, 0.3, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0)]
        )


def test_benchmark_tracing_installs_on_the_flow_module():
    # perfbench/tracing.py wraps names it looks up on qmaflow.flow (and the
    # other modules); a name missing there would break every traced benchmark
    # run.  A fresh process, so the global patching reaches no other test.
    # n = 4, the dimension whose flow map still calls block_eigenvalues (n = 2
    # and n = 3 take their block eigenvalues in closed form off the slots).
    root = Path(__file__).resolve().parents[1]
    script = """
import json
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
from qmaflow.fields import ScalarField, TorusGrid, TrigPolySpec
from qmaflow.flow import run_to_steady
from qmaflow.verify import build_manufactured
grid = TorusGrid(n=4, active_dims=(0, 8), sizes=(8, 8))
prob = build_manufactured(TrigPolySpec.single((1, 0), 0.1), grid)
run_to_steady(ScalarField.zeros(grid), prob.omega_h, prob.f, tol_steady=1e-6)
calls = tracing.summarize(tracer.names, tracer.spans)
print(json.dumps({name: entry["calls"] for name, entry in calls.items()}))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout.splitlines()[-1])
    # every evaluation calls it once, and so does build_omega_h's check of the
    # background, which runs the flow map's positivity test on its slots
    assert calls["flow.evaluate"] > 0 and calls["model.block_eigenvalues"] == calls["flow.evaluate"] + 1
    assert calls["exterior.pfaffian_upper"] == 0  # the flow map computes no Pfaffian

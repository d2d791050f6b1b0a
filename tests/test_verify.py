"""Verification layer: suite determinism, manufactured problems, linearization."""

import numpy as np
import pytest

from qmaflow import verify
from qmaflow.errors import PositivityError, SpecValidationError
from qmaflow.exterior import pfaffian, top_quotient
from qmaflow.fields import ScalarField, TorusGrid, TrigPolySpec, TrigTerm, build_omega_h, sample
from qmaflow.model import build_model, standard_form
from qmaflow.operators import flow_rhs
from qmaflow.verify import (
    TRIAL_BLOCK,
    admissible_potential,
    build_manufactured,
    default_identity_grid,
    fit_exponential_decay,
    j_real_projection,
    linearization_order_check,
    random_antisymmetric,
    random_j_real_positive,
    run_identity_suite,
)
from qmaflow.model import j_reality_defect

GRID = TorusGrid(n=2, active_dims=(0, 4), sizes=(32, 32))


def test_identity_suite_small_run_passes():
    reports = run_identity_suite(2, trials=10, seed=123)
    assert reports and all(r.passed for r in reports)
    names = {r.name for r in reports}
    assert "metric_form_dual_path" in names
    assert "volume_form_top_coefficient" in names


def test_identity_suite_reproducible():
    a = run_identity_suite(2, trials=5, seed=77)
    b = run_identity_suite(2, trials=5, seed=77)
    assert [(r.name, r.max_rel_err) for r in a] == [(r.name, r.max_rel_err) for r in b]
    c = run_identity_suite(2, trials=5, seed=78)
    assert [r.max_rel_err for r in a] != [r.max_rel_err for r in c]


def test_identity_suite_n4_pointwise_only():
    reports = run_identity_suite(4, trials=2, seed=1)
    assert all(r.passed for r in reports)
    assert {r.name for r in reports} == {
        "pfaffian_squared_equals_det",
        "top_quotient_dual_path",
        "volume_form_top_coefficient",
    }


def test_stacked_trials_match_per_trial_loop(monkeypatch):
    n, seed, trials = 2, 31, TRIAL_BLOCK + 1
    block_sizes = []
    stacked = verify._pointwise_identities

    def recording(anti, alpha, n):
        block_sizes.append(anti.shape[-1])
        return stacked(anti, alpha, n)

    monkeypatch.setattr(verify, "_pointwise_identities", recording)
    reports = {r.name: r.max_rel_err for r in run_identity_suite(n, trials, seed)}
    assert block_sizes == [TRIAL_BLOCK, 1]

    worst = dict.fromkeys(
        ("pfaffian_squared_equals_det", "top_quotient_dual_path", "volume_form_top_coefficient"),
        0.0,
    )
    for trial in range(trials):
        rng = verify._trial_rng(seed, trial)
        anti = random_antisymmetric(rng, 2 * n)
        alpha = random_j_real_positive(rng, n)
        det = np.linalg.det(anti)
        q_slow = top_quotient(alpha, standard_form(n), n, method="exterior")
        q_fast = top_quotient(alpha, standard_form(n), n, method="pfaffian")
        errs = {
            "pfaffian_squared_equals_det": abs(pfaffian(anti) ** 2 - det) / max(abs(det), 1.0),
            "top_quotient_dual_path": abs(q_fast - q_slow) / max(abs(q_slow), 1.0),
            "volume_form_top_coefficient": verify._volume_identity_err(alpha, n),
        }
        for name, err in errs.items():
            worst[name] = max(worst[name], err)
    for name, err in worst.items():
        assert abs(reports[name] - err) <= 1e-15


@pytest.mark.parametrize("planted", [0, 3])
def test_defect_in_one_stacked_trial_is_reported(monkeypatch, planted):
    exact = verify.positivity_matrix

    def defective(entries, n):
        matrix = exact(entries, n).copy()
        matrix[0, 0, planted] += 1e-6  # only trial ``planted`` of the block
        return matrix

    monkeypatch.setattr(verify, "positivity_matrix", defective)
    reports = {r.name: r for r in run_identity_suite(4, trials=4, seed=2)}
    assert not reports["volume_form_top_coefficient"].passed
    assert reports["volume_form_top_coefficient"].max_rel_err > 1e-8
    assert reports["pfaffian_squared_equals_det"].passed
    assert reports["top_quotient_dual_path"].passed


def test_identity_suite_rejects_bad_n():
    with pytest.raises(SpecValidationError):
        run_identity_suite(5, trials=1, seed=0)
    with pytest.raises(ValueError):
        run_identity_suite(1, trials=1, seed=0)


def test_j_real_projection_produces_j_real_forms():
    rng = np.random.default_rng(2)
    for n in (2, 3):
        raw = rng.normal(size=(2 * n, 2 * n)) + 1j * rng.normal(size=(2 * n, 2 * n))
        raw = 0.5 * (raw - raw.T)
        proj = j_real_projection(raw, n)
        assert j_reality_defect(proj, n) < 1e-13
        # projecting twice changes nothing
        assert np.allclose(j_real_projection(proj, n), proj, atol=1e-13)


def test_random_j_real_positive_has_margin():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        alpha = random_j_real_positive(rng, n)
        assert j_reality_defect(alpha, n) < 1e-12


# -- manufactured construction ------------------------------------------------


def test_manufactured_zero_potential():
    prob = build_manufactured(TrigPolySpec.from_terms([]), GRID)
    assert prob.f.max_abs() == 0.0  # background Omega gives log 1
    rho = TrigPolySpec.from_terms([TrigTerm((0, 1), 0.05)])
    prob2 = build_manufactured(TrigPolySpec.from_terms([]), GRID, rho=rho)
    assert prob2.f.max_abs() > 0.0
    assert flow_rhs(prob2.u_star, prob2.omega_h, prob2.f).max_abs() < 1e-14


def test_manufactured_cosine_is_stationary():
    uspec = TrigPolySpec.from_terms([TrigTerm((1, 0), 0.1)])
    prob = build_manufactured(uspec, GRID)
    assert flow_rhs(prob.u_star, prob.omega_h, prob.f).max_abs() < 1e-13
    assert prob.positivity_margin > 0.9


def test_manufactured_large_amplitude_rejected_with_hint():
    uspec = TrigPolySpec.from_terms([TrigTerm((1, 0), 10.0)])
    with pytest.raises(PositivityError) as err:
        build_manufactured(uspec, GRID)
    message = str(err.value)
    assert "rescale" in message
    # the reported factor actually works
    factor = float(message.rsplit("at most", 1)[1].strip())
    assert factor < 1.0
    build_manufactured(uspec.scaled(factor * 0.9), GRID)


# -- linearization order ---------------------------------------------------------


def test_linearization_constant_direction_is_exact():
    model = build_model(2)
    oh = build_omega_h(model, GRID, 1.0, None)
    u = sample(TrigPolySpec.from_terms([TrigTerm((1, 0), 0.05)]), GRID)
    res = linearization_order_check(u, ScalarField.constant(GRID, 2.0), oh)
    # both sides vanish; what remains is transform round-off divided by 2 eps
    assert max(res.errors) < 1e-10


def test_linearization_order_flat_background():
    model = build_model(2)
    oh = build_omega_h(model, GRID, 1.0, None)
    rng = np.random.default_rng(10)
    v, _, _ = admissible_potential(rng, GRID, oh, amplitude=0.5)
    res = linearization_order_check(ScalarField.zeros(GRID), v, oh)
    assert res.slope >= 1.9


def test_linearization_order_random_state():
    model = build_model(2)
    oh = build_omega_h(model, GRID, 1.0, TrigPolySpec.from_terms([TrigTerm((0, 1), 0.05)]))
    rng = np.random.default_rng(20)
    u, _, _ = admissible_potential(rng, GRID, oh, amplitude=0.2)
    v, _, _ = admissible_potential(rng, GRID, oh, amplitude=0.6)
    res = linearization_order_check(u, v, oh)
    assert res.slope >= 1.9
    assert res.errors[0] > res.errors[-1]


# -- decay fit --------------------------------------------------------------------


def test_fit_exponential_decay_recovers_rate():
    ts = np.linspace(0.0, 10.0, 40)
    vals = 3.0 * np.exp(-0.7 * ts)
    rate, r2 = fit_exponential_decay(ts, vals)
    assert rate == pytest.approx(-0.7, rel=1e-10)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_exponential_decay([0.0, 1.0], [1.0, 0.5])


def test_default_identity_grids_cover_all_entries():
    # with all but one complex direction active, every quaternionic Hessian
    # entry of a random potential is nonzero somewhere
    for n in (2, 3):
        grid = default_identity_grid(n)
        model = build_model(n)
        oh = build_omega_h(model, grid, 1.0, None)
        rng = np.random.default_rng(5)
        u, _, _ = admissible_potential(rng, grid, oh)
        from qmaflow.operators import del_del_j

        entries = del_del_j(u).entries
        m = 2 * n
        for j in range(m):
            for k in range(j + 1, m):
                assert np.max(np.abs(entries[j, k])) > 1e-8, (j, k)

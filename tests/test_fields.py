"""Grids, sampling, spectral derivatives, background form construction."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import fft as sp_fft

import qmaflow
from qmaflow import cli, fields

from qmaflow.dft import _KroneckerDft, _axis_groups
from qmaflow.errors import PositivityError, SpecValidationError
from qmaflow.exterior import full_from_upper
from qmaflow.fields import (
    DFT_MATRIX_MAX_AXIS,
    PackedTwoForm,
    ScalarField,
    SpectralOps,
    TorusGrid,
    TrigPolySpec,
    TrigTerm,
    build_omega_h,
    differentiation_matrix,
    sample,
    spectral_ops,
)
from qmaflow.flow import FlowEngine, FlowState
from qmaflow.model import (
    build_model,
    j_tables,
    min_positivity_eigenvalue,
    require_positive_minimum,
    standard_form,
)
from qmaflow.verify import default_identity_grid

from support import (
    below_nyquist,
    full_grid_multipliers,
    full_mixed_hessian,
    live_rows,
    per_slot_inverse,
    stacked_axis_gradient_norm2,
    stacked_gradient_norm2,
    stacked_inverse,
    stacked_live_fft,
    stacked_rows,
    traced,
    traced_peak,
)


@pytest.fixture
def grid():
    return TorusGrid(n=2, active_dims=(0, 4), sizes=(64, 64))


def field_from(grid, fn):
    coords = grid.coordinates()
    return ScalarField(grid, np.broadcast_to(fn(*coords), grid.shape).copy())


def test_grid_validation():
    with pytest.raises(SpecValidationError):
        TorusGrid(n=2, active_dims=(), sizes=())
    with pytest.raises(SpecValidationError):
        TorusGrid(n=2, active_dims=(4, 0), sizes=(8, 8))
    with pytest.raises(SpecValidationError):
        TorusGrid(n=2, active_dims=(0, 8), sizes=(8, 8))
    with pytest.raises(SpecValidationError):
        TorusGrid(n=2, active_dims=(0,), sizes=(8, 8))
    g = TorusGrid(n=2, active_dims=(0, 4), sizes=(8, 16))
    assert g.min_spacing == pytest.approx(2 * np.pi / 16)
    assert g.axis_of(4) == 1 and g.axis_of(2) is None


def test_grid_too_large_to_allocate_is_rejected():
    # 2^64 points: the point count is exact (np.prod wraps it to 0) and one
    # complex field would exceed the address space, so the grid is invalid
    with pytest.raises(SpecValidationError, match=str(2**64)):
        TorusGrid(n=2, active_dims=(0, 4), sizes=(2**32, 2**32))


def test_sample_constant_and_cosine(grid):
    const = TrigPolySpec.from_terms([TrigTerm((0, 0), 2.5)])
    assert np.all(sample(const, grid).values == 2.5)
    cos0 = TrigPolySpec.from_terms([TrigTerm((1, 0), 1.0)])
    f = sample(cos0, grid)
    assert f.values[0, 0] == pytest.approx(1.0)
    assert f.max_abs() == pytest.approx(1.0)


def test_sample_linearity(grid):
    t1 = TrigTerm((1, 0), 0.7, 0.3)
    t2 = TrigTerm((2, 1), 0.4, 1.1)
    both = sample(TrigPolySpec.from_terms([t1, t2]), grid)
    split = sample(TrigPolySpec.from_terms([t1]), grid) + sample(
        TrigPolySpec.from_terms([t2]), grid
    )
    assert np.allclose(both.values, split.values, atol=1e-15)


def test_band_limit_enforced(grid):
    bad = TrigPolySpec.from_terms([TrigTerm((32, 0), 1.0)])
    with pytest.raises(SpecValidationError):
        sample(bad, grid)


def test_partial_z_cosine(grid):
    u = field_from(grid, lambda x0, x4: np.cos(x0))
    ops = spectral_ops(grid)
    dz = ops.z_gradient_from_hat(ops.live_fft(u.values))
    x0 = grid.coordinates()[0]
    assert np.max(np.abs(dz[0] - (-0.5 * np.sin(x0)))) < 1e-13
    # independent of the other complex directions
    assert np.max(np.abs(dz[1])) == 0.0
    assert np.max(np.abs(dz[2])) == 0.0


def test_partial_z_plus_zbar_is_real_derivative(grid):
    rng = np.random.default_rng(3)
    spec = TrigPolySpec.from_terms(
        [
            TrigTerm((int(k0), int(k4)), float(a), float(p))
            for k0, k4, a, p in zip(
                rng.integers(-5, 6, 5),
                rng.integers(-5, 6, 5),
                rng.uniform(0.1, 1, 5),
                rng.uniform(0, 6.28, 5),
            )
        ]
    )
    u = sample(spec, grid)
    # d/dx^0 of a cosine term, exactly: -k_0 a sin(<k, x> + p) = k_0 a cos(<k, x> + p + pi / 2)
    dx0 = sample(TrigPolySpec.from_terms([TrigTerm(t.k, t.k[0] * t.amplitude, t.phase + np.pi / 2) for t in spec.terms]), grid)
    assert np.max(np.abs(dx0.values - _partial_x0(spectral_ops(grid), u.values))) < 1e-12


def _partial_x0(ops, values):
    """d/dx^0 of a real field, d/dz^0 + d/dzbar^0, from the two gradient bundles."""
    hat = ops.live_fft(values)
    return ops.z_gradient_from_hat(hat)[0] + ops.zbar_gradient_batched_from_hat(hat)[0]


def test_spectral_vs_finite_difference_second_order():
    """Centered differences at two resolutions converge to the spectral
    derivative at second order (error ratio close to 4)."""
    spec = TrigPolySpec.from_terms([TrigTerm((3, 1), 0.8, 0.2), TrigTerm((1, 2), 0.5, 1.0)])
    errors = []
    for size in (64, 128):
        g = TorusGrid(n=2, active_dims=(0, 4), sizes=(size, size))
        u = sample(spec, g)
        ops = spectral_ops(g)
        spectral = _partial_x0(ops, u.values).real
        h = g.spacings[0]
        fd = (np.roll(u.values, -1, axis=0) - np.roll(u.values, 1, axis=0)) / (2 * h)
        errors.append(np.max(np.abs(fd - spectral)))
    ratio = errors[0] / errors[1]
    assert 3.5 < ratio < 4.5


def test_mixed_partials_commute(grid):
    # the two orders of single derivatives on the full grid agree, and with
    # the Hessian bundle's one multiplier
    u = field_from(grid, lambda x0, x4: np.cos(2 * x0 + x4) + 0.3 * np.sin(x4))
    ops = spectral_ops(grid)
    z, zbar, _ = full_grid_multipliers(ops)
    spectrum = ops.fft(u.values)
    a = np.fft.ifftn(z[0] * np.fft.fftn(np.fft.ifftn(zbar[0] * spectrum)))
    b = np.fft.ifftn(zbar[0] * np.fft.fftn(np.fft.ifftn(z[0] * spectrum)))
    assert np.max(np.abs(a - b)) < 1e-12
    assert np.max(np.abs(ops.mixed_hessian_from_hat(ops.live_fft(u.values))[0, 0] - a)) < 1e-12


def test_product_rule_for_resolved_products(grid):
    f_spec = TrigPolySpec.from_terms([TrigTerm((2, 1), 0.7)])
    g_spec = TrigPolySpec.from_terms([TrigTerm((1, 3), 0.4, 0.5)])
    f = sample(f_spec, grid)
    g = sample(g_spec, grid)
    ops = spectral_ops(grid)

    def dz0(values):
        return ops.z_gradient_from_hat(ops.live_fft(values))[0]

    lhs = dz0(f.values * g.values)
    rhs = f.values * dz0(g.values) + g.values * dz0(f.values)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_mean_of_pure_modes_vanishes(grid):
    u = sample(TrigPolySpec.from_terms([TrigTerm((3, 2), 1.0, 0.7)]), grid)
    assert abs(u.mean()) < 1e-14


def test_hessian_hermitian_symmetry(grid):
    u = field_from(grid, lambda x0, x4: np.cos(x0 + 2 * x4))
    ops = spectral_ops(grid)
    H = ops.mixed_hessian_from_hat(ops.live_fft(u.values))
    full = full_mixed_hessian(ops, u.values)
    assert np.max(np.abs(H - full)) < 1e-13
    swapped = np.conj(np.swapaxes(full, 0, 1))
    assert np.max(np.abs(full - swapped)) < 1e-13


# z0-plane grids and grids on which every complex coordinate has an active
# axis with nonzero wavenumbers, odd and even sizes; a size-2 axis carries
# only the (zeroed) Nyquist index, so its derivative multipliers vanish
BUNDLE_GRIDS = {
    "n2-z0-16x15": TorusGrid(n=2, active_dims=(0, 4), sizes=(16, 15)),
    "n2-z0-10x6": TorusGrid(n=2, active_dims=(0, 4), sizes=(10, 6)),
    "n2-full-3x4": TorusGrid(n=2, active_dims=tuple(range(8)), sizes=(3, 4) * 4),
    "n3-z0-9x8": TorusGrid(n=3, active_dims=(0, 6), sizes=(9, 8)),
    # the Hessian reaches the non-adjacent blocks 0 and 2
    "n3-x0x4-6x7": TorusGrid(n=3, active_dims=(0, 4), sizes=(6, 7)),
    "n3-full-3x2": TorusGrid(
        n=3, active_dims=tuple(range(12)), sizes=(3, 2, 3, 2, 3, 2, 2, 3, 2, 3, 2, 3)
    ),
    "n4-z0-7x6": TorusGrid(n=4, active_dims=(0, 8), sizes=(7, 6)),
    "n4-every-z": TorusGrid(
        n=4, active_dims=(0, 2, 4, 6, 9, 11, 13, 15), sizes=(3, 4, 3, 3, 3, 3, 3, 4)
    ),
}


def _ddj_multiplier(ops, j, k):
    """Grid-sized multiplier of the (j, k) quaternionic Hessian entry."""
    t = j_tables(ops.n)
    z, zbar, _ = full_grid_multipliers(ops)
    first = t.dj_sign[k] * z[j] * zbar[t.sigma[k]]
    second = t.dj_sign[j] * z[k] * zbar[t.sigma[j]]
    return np.broadcast_to(first - second, ops.grid.shape)


def _negated_frequencies(mult):
    """mult(-xi) on the FFT index grid."""
    for axis in range(mult.ndim):
        mult = np.roll(np.flip(mult, axis=axis), 1, axis=axis)
    return mult


@pytest.mark.parametrize("name", list(BUNDLE_GRIDS))
def test_packed_bundle_matches_per_entry_oracle(name):
    # the oracle transforms every mixed second derivative and combines
    # them through the J tables, without using J-reality
    grid = BUNDLE_GRIDS[name]
    ops = spectral_ops(grid)
    t = j_tables(grid.n)
    u = 5.0 * np.random.default_rng(11).standard_normal(grid.shape)
    hat = ops.live_fft(u)
    H = full_mixed_hessian(ops, u)
    oracle = np.stack(
        [t.dj_sign[k] * H[j, t.sigma[k]] - t.dj_sign[j] * H[k, t.sigma[j]] for j, k in ops.pairs]
    )
    s1_oracle = np.einsum("aa...->...", H)
    upper, s1 = ops.ddj_upper_s1_from_hat(hat)
    scale = np.max(np.abs(oracle))
    assert upper.shape == oracle.shape and s1.dtype == float
    assert np.max(np.abs(upper - oracle)) <= 1e-13 * scale
    assert np.max(np.abs(s1 - s1_oracle)) <= 1e-13 * np.max(np.abs(s1_oracle))
    # an entry no multiplier reaches is exactly zero, also where it shares a slot
    dead = [e for e, (j, k) in enumerate(ops.pairs) if not np.any(_ddj_multiplier(ops, j, k))]
    assert np.all(upper[dead] == 0)


@pytest.mark.parametrize("name", list(BUNDLE_GRIDS))
def test_packed_bundle_partner_signs_match_multipliers(name):
    # for a real field, entry p equals sign * conj(entry e) iff
    # M_p(xi) = sign * conj(M_e(-xi)); the blocks have real multipliers.
    # The one layout holds every entry once; the Hessian bundle transforms a
    # slot iff its multiplier is not zero, and no more slots than it must
    ops = spectral_ops(BUNDLE_GRIDS[name])
    mults = [_ddj_multiplier(ops, j, k) for j, k in ops.pairs]
    entries, partners, signs, real_blocks, imag_blocks = ops._form_layout
    for e, p, sign in zip(entries, partners, signs.ravel()):
        assert np.array_equal(mults[p], sign * np.conj(_negated_frequencies(mults[e])))
    blocks = [*real_blocks, *imag_blocks]
    assert sorted([*entries, *partners, *blocks]) == list(range(len(ops.pairs)))
    for e in blocks:
        assert np.all(mults[e].imag == 0)
    block_slots = itertools.zip_longest(real_blocks, imag_blocks)
    slots = [[e] for e in entries] + [[a] if b is None else [a, b] for a, b in block_slots]
    live = [c for c, members in enumerate(slots) if any(np.any(mults[e]) for e in members)]
    assert list(ops._ddj_live) == live
    live_pairs = sum(bool(np.any(mults[e])) for e in entries)
    live_blocks = sum(bool(np.any(mults[e])) for e in blocks)
    assert len(live) == live_pairs + math.ceil(live_blocks / 2)
    # a block's form multiplier is the sum of the other blocks' Hessian ones
    form_blocks = sum(bool(np.any([mults[f] for f in blocks if f != e])) for e in blocks)
    assert len(ops._form_rows[0]) == live_pairs + math.ceil(form_blocks / 2)


@pytest.mark.parametrize("name", ["n2-z0-16x15", "n2-full-3x4", "n3-full-3x2"])
def test_zbar_gradient_batched_matches_partial_zbar(name):
    grid = BUNDLE_GRIDS[name]
    ops = spectral_ops(grid)
    u = np.random.default_rng(12).standard_normal(grid.shape)
    batched = ops.zbar_gradient_batched_from_hat(ops.live_fft(u))
    assert batched.shape == (2 * grid.n,) + grid.shape
    _, zbar, _ = full_grid_multipliers(ops)
    spectrum = ops.fft(u)
    for a in range(2 * grid.n):
        single = np.fft.ifftn(zbar[a] * spectrum)
        if not np.any(zbar[a]):
            assert np.all(batched[a] == 0) and np.all(single == 0)
        assert np.max(np.abs(batched[a] - single)) <= 1e-13 * max(np.max(np.abs(single)), 1.0)


def _close(a, b):
    assert a.shape == b.shape
    assert np.max(np.abs(a - b)) <= 1e-13 * max(np.max(np.abs(b)), 1e-300)


def _assert_hermitian(hat):
    negated = np.ix_(*[-np.arange(size) % size for size in hat.shape])
    assert np.array_equal(hat, np.conj(hat[negated]))


def _on_grid(ops, live):
    """A live-mode vector scattered onto the full grid, zero off the live modes."""
    full = np.zeros(ops.grid.num_points, dtype=complex)
    full[ops._live_index] = live
    return full.reshape(ops.grid.shape)


def _live_pair_matches_scipy_fft(ops, u):
    """The step pair on live-mode vectors against scipy.fft on the full grid."""
    live = sp_fft.fftn(u).reshape(-1)[ops._live_index]
    _close(ops.live_fft(u), live)
    _close(ops.live_ifft_real(live), sp_fft.ifftn(_on_grid(ops, live)).real)
    du_hat = live / (1.0 - ops.s1_live)
    kept = du_hat.copy()
    _close(ops.live_ifft_real(du_hat), sp_fft.ifftn(_on_grid(ops, du_hat)).real)
    assert np.array_equal(du_hat, kept)  # the step carries du_hat on
    return live


def _matches_scipy_fft(ops, u):
    """The full transforms, the step pair and single derivatives against scipy.fft."""
    z = u + 1j * np.random.default_rng(17).standard_normal(u.shape)
    hat = ops.fft(u)
    _assert_hermitian(hat)
    _close(hat, sp_fft.fftn(u))
    _close(ops.fft(z), sp_fft.fftn(z))
    _close(ops.ifft(hat), sp_fft.ifftn(hat))
    live = _live_pair_matches_scipy_fft(ops, u)
    projected = below_nyquist(ops) * sp_fft.fftn(u)
    z, _, s1_mult = full_grid_multipliers(ops)
    _close(ops.s1_from_hat(live), sp_fft.ifftn(s1_mult * projected).real)
    _close(ops.z_gradient_from_hat(live)[0], sp_fft.ifftn(z[0] * projected))


# grids with an axis longer than DFT_MATRIX_MAX_AXIS keep numpy.fft; the
# others are forced onto it, the reference backend of the DFT-matrix tests
NUMPY_GRIDS = {
    "n2-z0-64x64": TorusGrid(n=2, active_dims=(0, 4), sizes=(64, 64)),
    "n2-z0-4x64": TorusGrid(n=2, active_dims=(0, 4), sizes=(4, 64)),
    **{name: BUNDLE_GRIDS[name] for name in ("n2-z0-16x15", "n2-z0-10x6", "n3-z0-9x8", "n4-z0-7x6")},
}


@pytest.mark.parametrize("name", list(NUMPY_GRIDS))
def test_numpy_backend_matches_scipy_fft(name, monkeypatch):
    grid = NUMPY_GRIDS[name]
    if max(grid.sizes) <= DFT_MATRIX_MAX_AXIS:
        monkeypatch.setattr(fields, "DFT_MATRIX_MAX_AXIS", 0)
    ops = SpectralOps(grid)
    assert ops._live_dft is None
    _matches_scipy_fft(ops, np.random.default_rng(13).standard_normal(grid.shape))


LIVE_PAIR_GRIDS = {
    "5x4": TorusGrid(n=2, active_dims=(0, 4), sizes=(5, 4)),
    "8x8": TorusGrid(n=2, active_dims=(0, 4), sizes=(8, 8)),
    "4^8": TorusGrid(n=2, active_dims=tuple(range(8)), sizes=(4,) * 8),
}


@pytest.mark.parametrize("backend", ["dft", "numpy"])
@pytest.mark.parametrize("name", list(LIVE_PAIR_GRIDS))
def test_live_mode_vectors_match_scipy_fft(name, backend, monkeypatch):
    # live_fft is scipy's fftn on the live modes, in _live_index order, and
    # live_ifft_real is ifftn(...).real of a live vector put back on the grid
    grid = LIVE_PAIR_GRIDS[name]
    if backend == "numpy":
        monkeypatch.setattr(fields, "DFT_MATRIX_MAX_AXIS", 0)
    ops = SpectralOps(grid)
    assert (ops._live_dft is not None) == (backend == "dft")
    u = np.random.default_rng(18).standard_normal(grid.shape)
    assert ops.live_fft(u).shape == (len(ops._live_index),)
    _matches_scipy_fft(ops, u)
    with pytest.raises(TypeError):
        ops.live_fft(u + 0j)


def test_threshold_grid_transforms_exactly_as_scipy_fft():
    # the rule's boundary: a longest axis of DFT_MATRIX_MAX_AXIS points takes
    # DFT matrices, one point more takes numpy.fft; both transform as scipy.fft
    for size, on_dft in ((DFT_MATRIX_MAX_AXIS, True), (DFT_MATRIX_MAX_AXIS + 1, False)):
        grid = TorusGrid(n=2, active_dims=(0, 4), sizes=(size, 6))
        ops = SpectralOps(grid)
        assert (ops._live_dft is not None) == on_dft
        _matches_scipy_fft(ops, np.random.default_rng(14).standard_normal(grid.shape))


def test_small_grids_never_load_scipy():
    # a fresh process: a 16x16 flow (DFT matrices) and run3's 64x64 flow
    # (numpy.fft) import nothing once qmaflow.cli is loaded, not even
    # numpy.random; every identity suite (DFT matrices) imports nothing once
    # numpy.random, which its generators need, is loaded
    script = """
import sys
import qmaflow.cli
from qmaflow.fields import ScalarField, TorusGrid, TrigPolySpec, TrigTerm
from qmaflow.flow import run_to_steady
from qmaflow.verify import build_manufactured, run_identity_suite

before = set(sys.modules)
uspec = TrigPolySpec.from_terms([TrigTerm((1, 0), 0.1), TrigTerm((1, 1), 0.05)])
for size in (16, 64):
    grid = TorusGrid(n=2, active_dims=(0, 4), sizes=(size, size))
    prob = build_manufactured(uspec, grid, c=1.0, rho=TrigPolySpec.single((0, 1), 0.05))
    result = run_to_steady(ScalarField.zeros(grid), prob.omega_h, prob.f, tol_steady=1e-8, t_max=200.0)
    assert result.converged
assert set(sys.modules) == before, sorted(set(sys.modules) - before)
assert "numpy.random" not in sys.modules, "numpy.random was loaded"
import numpy.random
before = set(sys.modules)
for n in (2, 3, 4):
    assert all(r.passed for r in run_identity_suite(n, trials=1))
assert "scipy" not in sys.modules, "scipy was loaded"
assert set(sys.modules) == before, sorted(set(sys.modules) - before)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(qmaflow.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


DFT_GRIDS = {
    "4^8": TorusGrid(n=2, active_dims=tuple(range(8)), sizes=(4,) * 8),
    "8^4": TorusGrid(n=2, active_dims=(0, 1, 4, 5), sizes=(8,) * 4),
    **{name: BUNDLE_GRIDS[name] for name in ("n2-full-3x4", "n3-full-3x2", "n4-every-z")},
    "n2-z0-16x16": TorusGrid(n=2, active_dims=(0, 4), sizes=(16, 16)),
    "n3-z0-8x8": TorusGrid(n=3, active_dims=(0, 6), sizes=(8, 8)),
    "identity-n2": default_identity_grid(2),
    "identity-n3": default_identity_grid(3),
    "n2-z0-5x7": TorusGrid(n=2, active_dims=(0, 4), sizes=(5, 7)),
    "n2-2x8x6": TorusGrid(n=2, active_dims=(0, 1, 4), sizes=(2, 8, 6)),
    "3^8": TorusGrid(n=2, active_dims=tuple(range(8)), sizes=(3,) * 8),
}


@pytest.mark.parametrize(
    "sizes, groups",
    [
        ((4,) * 8, [[0, 1], [2, 3], [4, 5], [6, 7]]),
        ((3,) * 12, [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9], [10, 11]]),
        ((4,) * 5, [[0, 1], [2, 3], [4]]),
        ((8, 8), [[0, 1]]),
        ((16, 16), [[0], [1]]),
        ((8,) * 3, [[0, 1], [2]]),
        ((2,) * 8, [list(range(8))]),
    ],
    ids=["4^8", "3^12", "4^5", "8x8", "16x16", "8^3", "2^8"],
)
def test_dft_groups_close_at_eight_live_modes(sizes, groups):
    # a group closes once its axes keep 8 live modes (N - 1 of an even axis
    # of N points, N of an odd one); 2-point axes keep one each
    assert _axis_groups(sizes) == groups


@pytest.mark.parametrize("name", list(DFT_GRIDS))
def test_dft_matrix_backend_matches_scipy_fft(name, monkeypatch):
    # grids of short axes transform every derivative and the step pair by
    # DFT matrices on the live modes only; input with content on every mode,
    # scipy.fft as the reference for the full transforms and the same grid
    # forced onto numpy.fft as the reference for the rest
    grid = DFT_GRIDS[name]
    ops = SpectralOps(grid)
    monkeypatch.setattr(fields, "DFT_MATRIX_MAX_AXIS", 0)
    ref = SpectralOps(grid)
    assert ops._live_dft is not None and ref._live_dft is None
    rng = np.random.default_rng(16)
    u = rng.standard_normal(grid.shape)
    z = u + 1j * rng.standard_normal(grid.shape)
    full = ops.fft(u)

    _assert_hermitian(full)
    _close(full, sp_fft.fftn(u))
    _close(ops.fft(z), sp_fft.fftn(z))
    _close(ops.ifft(z), sp_fft.ifftn(z))
    # the step's pair on both backends: forward onto the live modes, real
    # inverse of an update
    hat = _live_pair_matches_scipy_fft(ops, u)
    _live_pair_matches_scipy_fft(ref, u)
    for a, b in zip(ops.ddj_upper_s1_from_hat(hat), ref.ddj_upper_s1_from_hat(hat)):
        _close(a, b)
    _close(ops.zbar_gradient_batched_from_hat(hat), ref.zbar_gradient_batched_from_hat(hat))
    _close(ops.z_gradient_from_hat(hat), ref.z_gradient_from_hat(hat))
    _close(ops.mixed_hessian_from_hat(hat), ref.mixed_hessian_from_hat(hat))
    _close(ops.s1_from_hat(hat), ref.s1_from_hat(hat))


@pytest.mark.parametrize("size", [2, 3, 4, 5, 8, 9, 16, 31, 32, 64, 512])
def test_differentiation_matrix_is_trefethens(size):
    # Spectral Methods in MATLAB, ch. 3: the periodic Fourier differentiation
    # matrix, cot for even sizes (Nyquist mode zeroed) and csc for odd ones
    h = 2 * np.pi / size
    j = np.subtract.outer(np.arange(size), np.arange(size))
    off = j != 0
    angle = np.where(off, j * h / 2, 1.0)
    edge = 1 / np.tan(angle) if size % 2 == 0 else 1 / np.sin(angle)
    expected = np.where(off, 0.5 * (-1.0) ** j * edge, 0.0)
    matrix = differentiation_matrix(size)
    assert matrix.dtype == float and matrix.shape == (size, size)
    assert np.max(np.abs(matrix - expected)) < 1e-13 * max(1.0, np.max(np.abs(expected)))
    if size == 2:
        assert np.max(np.abs(matrix)) < 1e-15


NORM_GRIDS = {
    "n2-4^8": TorusGrid(n=2, active_dims=tuple(range(8)), sizes=(4,) * 8),
    "n2-3^8": TorusGrid(n=2, active_dims=tuple(range(8)), sizes=(3,) * 8),
    "n2-z0-16x16": TorusGrid(n=2, active_dims=(0, 4), sizes=(16, 16)),
    "n3-z0-8x8": TorusGrid(n=3, active_dims=(0, 6), sizes=(8, 8)),
    "n2-z0-64x64": TorusGrid(n=2, active_dims=(0, 4), sizes=(64, 64)),
    "n2-z0-128x128": TorusGrid(n=2, active_dims=(0, 4), sizes=(128, 128)),
    "identity-n2": default_identity_grid(2),
    "identity-n3": default_identity_grid(3),
}


@pytest.mark.parametrize("name", list(NORM_GRIDS))
def test_gradient_norm_from_matrices_equals_the_spectral_norm(name):
    # on a field on the live modes the axis products give the transforms'
    # sum_a |u_{abar}|^2; a constant adds nothing beyond the rounding of the
    # shifted samples, and alone differentiates to exactly zero
    grid = NORM_GRIDS[name]
    ops = SpectralOps(grid)
    u = ops.live_ifft_real(ops.live_fft(np.random.default_rng(23).standard_normal(grid.shape)))
    spectral = stacked_gradient_norm2(ops, ops.live_fft(u))
    norm2 = ops.zbar_gradient_norm2(u)
    assert norm2.shape == grid.shape and norm2.dtype == float
    assert np.max(np.abs(norm2 - spectral)) < 1e-13 * np.max(spectral)
    assert np.max(np.abs(ops.zbar_gradient_norm2(u + 1e3) - norm2)) < 1e-11 * np.max(norm2)
    assert np.all(ops.zbar_gradient_norm2(np.full(grid.shape, 2.5)) == 0.0)


def _held_arrays(value):
    """Every array an attribute value holds, in lists, tuples and DFT matrices."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _held_arrays(item)
    elif isinstance(value, _KroneckerDft):
        yield from _held_arrays(vars(value)["_operands"])


@pytest.mark.parametrize("name", ["n2-full-3x4", "n2-z0-64x64", "n3-z0-9x8"])
def test_spectral_ops_holds_no_full_grid_complex_array(name):
    # every multiplier is built and held on the live modes only; on a grid
    # with Nyquist modes those are fewer than the grid's points
    grid = {**BUNDLE_GRIDS, **NUMPY_GRIDS}[name]
    ops = SpectralOps(grid)
    assert len(ops._live_index) < grid.num_points
    held = [a for value in vars(ops).values() for a in _held_arrays(value)]
    assert any(a.dtype == complex for a in held)
    for a in held:
        if a.dtype == complex:
            assert grid.num_points not in a.shape and a.shape[-len(grid.shape) :] != grid.shape


# the bundles transform slot by slot; on these grids (three on DFT matrices
# of several groups, one of a single group, one on numpy.fft) they must give
# the numbers of the transforms that took every slot at once, except on the
# grid of a single group: a slot alone is a vector-matrix product there,
# which BLAS may round otherwise than the matrix product of the stack, so
# its reference transforms one slot at a time
SLOT_GRIDS = {
    "n2-4^8": TorusGrid(n=2, active_dims=tuple(range(8)), sizes=(4,) * 8),
    "n3-identity": default_identity_grid(3),
    "n4-8^4": TorusGrid(n=4, active_dims=(0, 1, 8, 9), sizes=(8,) * 4),
    "n2-8x8-one-group": TorusGrid(n=2, active_dims=(0, 1), sizes=(8, 8)),
    "n2-z0-64x64": TorusGrid(n=2, active_dims=(0, 4), sizes=(64, 64)),
}


def _slot_problem(grid):
    """A field with content on every mode, its live-mode vector and a packed base of random slots."""
    ops = spectral_ops(grid)
    rng = np.random.default_rng(31)
    u = rng.standard_normal(grid.shape)
    hat = ops.live_fft(u)
    base = rng.standard_normal(ops.ddj_slots_from_hat(hat).shape) + 0j
    return ops, u, hat, base


@pytest.mark.parametrize("name", list(SLOT_GRIDS))
def test_slot_by_slot_bundles_equal_the_stacked_transforms(name):
    ops, u, hat, base = _slot_problem(SLOT_GRIDS[name])
    inverse = per_slot_inverse if name == "n2-8x8-one-group" else stacked_inverse
    assert np.array_equal(hat, stacked_live_fft(ops, u))
    assert np.array_equal(ops.live_ifft_real(hat), stacked_inverse(ops, hat[None])[0].real)
    ddj = stacked_rows(ops, live_rows(ops, "ddj"), hat, inverse)
    ddj.real[ops._ddj_dead_parts[0]] = 0.0
    ddj.imag[ops._ddj_dead_parts[1]] = 0.0
    assert np.array_equal(ops.ddj_slots_from_hat(hat), ddj)
    assert np.array_equal(ops.packed_form_from_hat(base, hat), stacked_rows(ops, live_rows(ops, "form"), hat, inverse) + base)
    assert np.array_equal(ops.zbar_gradient_batched_from_hat(hat), stacked_rows(ops, live_rows(ops, "zbar"), hat, inverse))
    live_u = ops.live_ifft_real(hat)  # the norm reads position space: a field on the live modes
    norm2 = ops.zbar_gradient_norm2(live_u)
    assert np.array_equal(norm2, stacked_axis_gradient_norm2(ops, live_u))
    assert np.max(np.abs(norm2 - stacked_gradient_norm2(ops, hat, inverse))) < 1e-13 * np.max(norm2)
    assert np.array_equal(ops.z_gradient_from_hat(hat), stacked_rows(ops, live_rows(ops, "z"), hat, inverse))


@pytest.mark.parametrize("name", ["n2-4^8", "n2-8x8-one-group", "n2-z0-64x64"])
def test_bundle_outputs_share_no_memory(name):
    # the grid's SpectralOps is shared, and its transforms reuse scratch
    # buffers: nothing a call returns may alias them or another call's result
    ops, u, hat, base = _slot_problem(SLOT_GRIDS[name])
    scratch = [] if ops._live_dft is None else ops._live_dft._scratch + ops._live_idft._scratch
    calls = [
        lambda: ops.packed_form_from_hat(base, hat),
        lambda: ops.ddj_slots_from_hat(hat),
        lambda: ops.zbar_gradient_batched_from_hat(hat),
        lambda: ops.zbar_gradient_norm2(u),
        lambda: ops.z_gradient_from_hat(hat),
        lambda: ops.mixed_hessian_from_hat(hat),
        lambda: ops.live_ifft_real(hat),
        lambda: ops.live_fft(u),
    ]
    for call in calls:
        first, second = call(), call()
        assert np.array_equal(first, second)
        assert not np.shares_memory(first, second)
        assert not any(np.shares_memory(result, buf) for result in (first, second) for buf in scratch)
        assert not any(np.shares_memory(first, a) for a in (u, hat, base))


@pytest.mark.parametrize("name", ["n2-4^8", "n3-identity", "n4-8^4"])
def test_forward_and_inverse_transforms_share_one_scratch_pair(name):
    # the two never run at once: one pair of buffers, sized for the larger
    # of each direction's products, serves both
    ops = SpectralOps(SLOT_GRIDS[name])
    forward, inverse = ops._live_dft, ops._live_idft
    assert len(forward._scratch) == 2
    assert all(f is i for f, i in zip(forward._scratch, inverse._scratch))
    for k, buf in enumerate(forward._scratch):
        results = forward._results[k::2] + inverse._results[k::2]
        assert all(np.shares_memory(result, buf) for result in results)
        assert buf.size == max((result.size for result in results), default=0)


def test_bundle_peaks_stay_below_their_output_and_one_slot():
    # each slot's multiplier meets hat as its turn comes and is transformed
    # straight into its slot: no stack of products, no stacked intermediates
    ops, _, hat, base = _slot_problem(SLOT_GRIDS["n2-4^8"])
    for call in (lambda: ops.packed_form_from_hat(base, hat), lambda: ops.ddj_slots_from_hat(hat)):
        slots, peak = traced_peak(call)
        assert peak < slots.nbytes + slots[0].nbytes


def test_a_flow_never_builds_the_hermitian_gather(monkeypatch):
    # a 4^8 flow transforms by DFT matrices only; the full FFT's index table
    # (one integer per grid point) is built by the first full FFT
    monkeypatch.setattr(fields, "_SPECTRAL_CACHE", {})
    grid = SLOT_GRIDS["n2-4^8"]
    omega_h = build_omega_h(build_model(2), grid, 1.0, TrigPolySpec.single((0, 0, 0, 1, 0, 0, 1, 0), 0.02))
    f = sample(TrigPolySpec.single((1, 0, 0, 0, 0, 1, 0, 0), 0.1), grid)
    engine = FlowEngine(omega_h, f)
    engine.step(FlowState(ScalarField.zeros(grid), 0.0, 0.05, 0))
    ops = engine.ops

    def grid_sized_index_tables():
        held = [a for value in vars(ops).values() for a in _held_arrays(value)]
        return [a for a in held if a.dtype.kind == "i" and a.size >= grid.num_points]

    assert not grid_sized_index_tables()
    _assert_hermitian(ops.fft(f.values))
    assert grid_sized_index_tables()


def test_a_flow_on_dft_matrices_never_builds_the_live_index(monkeypatch):
    # 3^8 has no Nyquist mode, so the live modes' flat indices would be the
    # whole grid; a flow step reads only their count
    monkeypatch.setattr(fields, "_SPECTRAL_CACHE", {})
    grid = TorusGrid(n=2, active_dims=tuple(range(8)), sizes=(3,) * 8)
    omega_h = build_omega_h(build_model(2), grid, 1.0, TrigPolySpec.single((0, 0, 0, 1, 0, 0, 1, 0), 0.02))
    f = sample(TrigPolySpec.single((1, 0, 0, 0, 0, 1, 0, 0), 0.1), grid)
    engine = FlowEngine(omega_h, f)
    state, _ = engine.step(FlowState(ScalarField.zeros(grid), 0.0, 0.05, 0))
    assert state.step_count == 1 and engine.ops._live_dft is not None
    assert "_live_index" not in vars(engine.ops)
    assert np.array_equal(engine.ops._live_index, np.arange(grid.num_points))


def test_spectral_ops_keeps_no_grid_sized_array():
    # on run4's 4^8 grid every table and buffer is smaller than the grid;
    # the live modes' flat indices, built on first read, follow the Nyquist rule
    grid = SLOT_GRIDS["n2-4^8"]
    ops = SpectralOps(grid)
    held = [a for value in vars(ops).values() for a in _held_arrays(value)]
    held += [buf for dft in (ops._live_dft, ops._live_idft) for buf in dft._scratch]
    assert max(a.size for a in held) < grid.num_points
    keep = np.ones(grid.shape)
    for p in range(len(grid.shape)):
        keep[(slice(None),) * p + (grid.sizes[p] // 2,)] = 0.0
    assert np.array_equal(ops._live_index, np.flatnonzero(keep))


def _manufactured_config(grid, rho_k):
    """A run config of a manufactured problem on ``grid`` with a background rho."""
    first = [1] + [0] * (len(grid.sizes) - 1)
    return {
        "n": grid.n,
        "grid": {"active_dims": list(grid.active_dims), "sizes": list(grid.sizes)},
        "omega_h": {"c": 1.0, "rho": [{"k": rho_k, "amplitude": 0.02}]},
        "f": {"manufactured": {"u_star": [{"k": first, "amplitude": 0.05}]}},
        "tol_steady": 1e-6,
        "t_max": 100.0,
    }


@pytest.mark.parametrize(
    "grid, rho_k",
    [(SLOT_GRIDS["n2-4^8"], [0, 0, 0, 1, 0, 0, 1, 0]), (default_identity_grid(3), [0, 1, 0, 0, 1])],
    ids=["4^8", "n3-identity"],
)
def test_a_flow_setup_keeps_no_derivative_or_hessian_stack(grid, rho_k, tmp_path, monkeypatch):
    # the setup reads the Hessian bundle (rho's) and the flow reads the form's
    # rows: of the complex multipliers only the form's rows reach the live
    # modes' count; the first derivatives and the Hessian are kept as factors
    # and products of two factors, on at most four axes
    monkeypatch.setattr(fields, "_SPECTRAL_CACHE", {})
    omega_h, f, _ = cli._build_problem(cli.RunConfig.from_json(_manufactured_config(grid, rho_k), tmp_path))
    ops = FlowEngine(omega_h, f).ops
    rows, stack = ops._form_rows
    assert stack.shape == (len(rows),) + ops._live_shape
    held = [a for name, value in vars(ops).items() if name not in ("_live_dft", "_live_idft") for a in _held_arrays(value)]
    multipliers = [a for a in held if a.dtype == complex and a is not stack]
    assert multipliers and max(a.size for a in multipliers) < ops._live_count
    assert ops.s1_live.shape == (ops._live_count,) and ops.s1_live.flags.c_contiguous


def test_spectral_ops_retains_the_flows_stacks_and_little_else():
    # a fresh SpectralOps of run4's 4^8 grid keeps the form's rows, S_1's
    # multiplier, the tail mask and the DFT scratch; everything else (the
    # DFT matrices, the first-derivative factors, the Hessian's products,
    # the tables) is small beside one live row
    ops, _, retained = traced(lambda: SpectralOps(SLOT_GRIDS["n2-4^8"]))
    flow = ops._form_rows[1].nbytes + ops.s1_live.nbytes + ops._tail_live.nbytes
    flow += sum(buf.nbytes for buf in ops._live_dft._scratch)
    assert retained < flow + 128 * 1024


@pytest.mark.parametrize("sizes", [(4, 4), (5, 4)], ids=["4x4", "5x4"])
def test_every_multiplier_vanishes_on_nyquist_modes(sizes):
    # one Nyquist rule: a mode with a Nyquist index on any even axis is
    # invisible to every derivative, also along an axis it does not vary on
    grid = TorusGrid(n=2, active_dims=(0, 1), sizes=sizes)
    ops = SpectralOps(grid)
    nyquist = np.zeros(grid.shape, dtype=bool)
    for p, size in enumerate(sizes):
        if size % 2 == 0:
            nyquist[(slice(None),) * p + (size // 2,)] = True
    assert np.array_equal(ops._live_index, np.flatnonzero(~nyquist))
    z, zbar, s1_mult = full_grid_multipliers(ops)
    mults = z + zbar + [s1_mult]
    for mult in mults:
        assert np.all(np.broadcast_to(mult, grid.shape)[nyquist] == 0)
    assert any(np.any(mult) for mult in mults)
    # the multipliers are held, or made, on the live modes only
    assert len(ops._live_index) == np.count_nonzero(~nyquist)
    for kind in ("z", "zbar", "ddj", "form"):
        _, stack, _ = live_rows(ops, kind)
        assert stack.shape[1:] == (len(ops._live_index),) and np.any(stack)

    x0, x1 = grid.coordinates()
    hidden = np.cos(x0) * np.cos(2 * x1)  # Nyquist index on axis 1
    # a live-mode vector has no entry for a Nyquist mode: hidden's is zero
    live = ops.fft(hidden).reshape(-1)[ops._live_index]
    assert np.all(live == 0) and np.max(np.abs(ops.live_fft(hidden))) < 1e-14
    upper, s1 = ops.ddj_upper_s1_from_hat(live)
    assert np.all(upper == 0) and np.all(s1 == 0)
    # so are its derivatives along x^0 and x^1, d/dz^a + d/dzbar^a for a = 0, 1
    assert np.all(ops.z_gradient_from_hat(live) == 0)
    assert np.all(ops.zbar_gradient_batched_from_hat(live) == 0)
    k = (sizes[0] - 1) // 2  # the highest live wavenumber on axis 0
    seen = np.cos(k * x0) * np.cos(x1)
    assert np.max(np.abs(_partial_x0(ops, seen) + k * np.sin(k * x0) * np.cos(x1))) < 1e-13


def test_dft_matrix_grids_never_load_scipy():
    # a fresh process: building the 4^8 operators and taking a flow step
    # transforms by DFT matrices and imports no scipy
    script = """
import sys
from qmaflow.fields import ScalarField, SpectralOps, TorusGrid, TrigPolySpec, build_omega_h, sample
from qmaflow.flow import FlowEngine, FlowState
from qmaflow.model import build_model

grid = TorusGrid(n=2, active_dims=tuple(range(8)), sizes=(4,) * 8)
assert SpectralOps(grid)._live_dft is not None
omega_h = build_omega_h(build_model(2), grid, 1.0, TrigPolySpec.single((0, 0, 0, 1, 0, 0, 1, 0), 0.02))
f = sample(TrigPolySpec.single((1, 0, 0, 0, 0, 1, 0, 0), 0.1), grid)
state, stage = FlowEngine(omega_h, f).step(FlowState(ScalarField.zeros(grid), 0.0, 0.05, 0))
assert state.step_count == 1 and stage.ok and state.u.osc() > 0
assert "scipy" not in sys.modules, "scipy was loaded"
"""
    env = dict(os.environ, PYTHONPATH=str(Path(qmaflow.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_spectral_tail_detects_high_modes():
    g = TorusGrid(n=2, active_dims=(0, 4), sizes=(32, 32))
    ops = spectral_ops(g)
    low = sample(TrigPolySpec.from_terms([TrigTerm((1, 0), 1.0)]), g)
    high = sample(TrigPolySpec.from_terms([TrigTerm((14, 0), 1.0)]), g)
    assert ops.spectral_tail(ops.live_fft(low.values)) < 1e-20
    assert ops.spectral_tail(ops.live_fft(high.values)) > 0.9
    flat = ScalarField.constant(g, 3.0)
    assert ops.spectral_tail(ops.live_fft(flat.values)) == 0.0
    # the live-mode tail is the full-grid one of the field's live modes:
    # |k| >= size / 3 on some axis, the mean mode left out of the total
    u = np.random.default_rng(19).standard_normal(g.shape)
    power = np.abs(below_nyquist(ops) * sp_fft.fftn(u)) ** 2
    k = np.abs(np.fft.fftfreq(32) * 32)
    tail = (k[:, None] >= 32 / 3) | (k[None, :] >= 32 / 3)
    expected = power[tail].sum() / (power.sum() - power[0, 0])
    assert ops.spectral_tail(ops.live_fft(u)) == pytest.approx(expected, rel=1e-12)
    # on axes of 2 or 4 points the top third holds only Nyquist modes, which
    # are not live: the tail reads 0 on 4^8 whatever the field
    g4 = TorusGrid(n=2, active_dims=tuple(range(8)), sizes=(4,) * 8)
    u4 = np.random.default_rng(20).standard_normal(g4.shape)
    assert spectral_ops(g4).spectral_tail(spectral_ops(g4).live_fft(u4)) == 0.0


def test_spectral_tail_reads_one_on_three_point_axes():
    # on a 3-point axis |k| >= size / 3 holds every non-mean mode, so on a
    # 3^d grid the tail is all of a field's non-mean energy: 1 up to rounding
    g3 = TorusGrid(n=2, active_dims=(0, 1, 4, 5), sizes=(3,) * 4)
    ops = spectral_ops(g3)
    assert np.all(ops._tail_live[1:]) and not ops._tail_live[0]
    for seed in range(3):
        u = np.random.default_rng(seed).standard_normal(g3.shape)
        assert ops.spectral_tail(ops.live_fft(u)) == pytest.approx(1.0, abs=1e-15)
    low = sample(TrigPolySpec.single((1, 0, 0, 0), 1.0), g3)
    assert ops.spectral_tail(ops.live_fft(low.values + 5.0)) == pytest.approx(1.0, abs=1e-15)
    assert ops.spectral_tail(ops.live_fft(np.full(g3.shape, 2.0))) == 0.0


def test_scalar_field_arithmetic(grid):
    u = ScalarField.constant(grid, 1.0)
    v = u + 2.0
    assert v.mean() == pytest.approx(3.0)
    assert (2.0 * u - u).mean() == pytest.approx(1.0)
    assert (-u).mean() == pytest.approx(-1.0)
    assert u.osc() == 0.0


# -- background form ---------------------------------------------------------


def test_build_omega_h_trivial(grid):
    model = build_model(2)
    oh = build_omega_h(model, grid, 1.0, None)
    target = standard_form(2).reshape(4, 4, 1, 1)
    assert np.max(np.abs(oh.entries - target)) == 0.0
    assert oh.j_reality_defect() == 0.0


def test_build_omega_h_small_perturbation_positive(grid):
    model = build_model(2)
    rho = TrigPolySpec.from_terms([TrigTerm((1, 0), 0.05)])
    oh = build_omega_h(model, grid, 1.0, rho)
    assert oh.j_reality_defect() < 1e-12
    # block entry picks up a quarter of the second derivative
    x0 = grid.coordinates()[0]
    expected = 1.0 - 0.0125 * np.cos(x0)
    assert np.max(np.abs(oh.entries[0, 1] - expected)) < 1e-12


def test_build_omega_h_large_perturbation_rejected(grid):
    model = build_model(2)
    rho = TrigPolySpec.from_terms([TrigTerm((1, 0), 10.0)])
    with pytest.raises(PositivityError) as err:
        build_omega_h(model, grid, 1.0, rho)
    assert err.value.min_eigenvalue < 0
    assert err.value.point is not None


def test_build_omega_h_rejects_nonpositive_scale(grid):
    with pytest.raises(SpecValidationError):
        build_omega_h(build_model(2), grid, -1.0, None)


def test_build_omega_h_rejects_nan_scale(grid):
    with pytest.raises(SpecValidationError, match="must be positive"):
        build_omega_h(build_model(2), grid, float("nan"), None)


def test_build_omega_h_peak_is_below_two_form_fields():
    # the form is built, checked and returned on its packed slots and never
    # expanded, so it never holds even half of one full array (run4's 4^8
    # background: 3.1 MB of slots against 16.8 MB of entries)
    grid = TorusGrid(n=2, active_dims=tuple(range(8)), sizes=(4,) * 8)
    rho = TrigPolySpec.single((0, 0, 0, 1, 0, 0, 1, 0), 0.02)
    spectral_ops(grid)  # built once per grid, before the measurement
    oh, peak = traced_peak(lambda: build_omega_h(build_model(2), grid, 1.0, rho))
    assert isinstance(oh, PackedTwoForm)
    assert peak < oh.entries.nbytes / 2


def _unpacked_background_entries(grid, c, rho):
    """The background as it was built before it was packed: ddj(rho)'s upper
    triangle from the Hessian bundle, c added to the blocks, expanded in full."""
    ops = spectral_ops(grid)
    upper, _ = ops.ddj_upper_s1_from_hat(ops.live_fft(sample(rho, grid).values))
    for e, (j, k) in enumerate(ops.pairs):
        if j % 2 == 0 and k == j + 1:
            upper[e] += c * standard_form(grid.n)[j, k]
    return full_from_upper(upper, 2 * grid.n)


def _spec(*terms):
    return TrigPolySpec.from_terms([TrigTerm(k, a, p) for k, a, p in terms])


@pytest.mark.parametrize(
    "grid, rho",
    [
        (TorusGrid(n=2, active_dims=(0, 4), sizes=(16, 16)), _spec(((1, 1), 0.05, 0.3))),
        (TorusGrid(n=2, active_dims=tuple(range(8)), sizes=(4,) * 8), _spec(((0, 0, 0, 1, 0, 0, 1, 0), 0.02, 0.0))),
        (TorusGrid(n=3, active_dims=(0, 6), sizes=(8, 8)), _spec(((0, 1), 0.05, 0.0))),
        (TorusGrid(n=3, active_dims=(0, 1, 6, 7), sizes=(8,) * 4), _spec(((1, 0, 0, 1), 0.03, 0.4), ((0, 1, 1, 0), 0.02, 1.3))),
        (TorusGrid(n=4, active_dims=(0, 8), sizes=(8, 8)), _spec(((1, 1), 0.05, 0.7))),
        (TorusGrid(n=4, active_dims=(0, 1, 8, 9), sizes=(8,) * 4), _spec(((1, 0, 0, 1), 0.03, 0.4), ((0, 1, 1, 0), 0.02, 1.3))),
    ],
)
def test_packed_background_is_the_packing_of_the_full_form(grid, rho):
    # the packed build gives the very slots of packing the old full form, and
    # expands to the very same entries
    oh = build_omega_h(build_model(grid.n), grid, 1.3, rho)
    full = _unpacked_background_entries(grid, 1.3, rho)
    ops = spectral_ops(grid)
    packed = ops.pack_j_real([full[j, k] for j, k in ops.pairs])
    assert isinstance(oh, PackedTwoForm) and oh.n == grid.n
    assert oh.slots.dtype == packed.dtype and oh.slots.tobytes() == packed.tobytes()
    assert np.array_equal(oh.entries, full)
    assert oh.j_reality_defect() == 0.0
    # the flow uses a packed form's slots as they are
    assert FlowEngine(oh, ScalarField.zeros(grid))._packed_omega_h is oh.slots


@pytest.mark.parametrize(
    "grid, rho",
    [
        (TorusGrid(n=2, active_dims=(0, 4), sizes=(64, 64)), _spec(((1, 0), 9.0, 0.3), ((0, 1), 7.0, 1.1), ((1, 1), 3.0, 0.5))),
        (
            TorusGrid(n=2, active_dims=tuple(range(8)), sizes=(4,) * 8),
            _spec(((1, 0, 0, 1, 0, 0, 1, 0), 2.0, 0.4), ((0, 1, 0, 0, 1, 0, 0, 1), 1.5, 1.3)),
        ),
        (
            TorusGrid(n=3, active_dims=(0, 1, 6, 7), sizes=(8,) * 4),
            _spec(((1, 0, 0, 1), 3.0, 0.4), ((0, 1, 1, 0), 2.5, 1.3), ((1, 1, 0, 0), 1.0, 2.0)),
        ),
        (TorusGrid(n=4, active_dims=(0, 8), sizes=(8, 8)), _spec(((1, 0), 9.0, 0.3), ((0, 1), 7.0, 1.1), ((1, 1), 3.0, 0.5))),
    ],
)
def test_failing_background_reports_what_the_full_form_test_reports(grid, rho):
    # the check on the slots names the worst point and its min eigenvalue as
    # the eigenvalue test of the full form does, in the same words
    entries = _unpacked_background_entries(grid, 1.0, rho)
    with pytest.raises(PositivityError) as full:
        require_positive_minimum(min_positivity_eigenvalue(entries, grid.n), 1e-10, "the background form")
    with pytest.raises(PositivityError) as packed:
        build_omega_h(build_model(grid.n), grid, 1.0, rho)
    assert packed.value.point == full.value.point is not None
    assert packed.value.min_eigenvalue == pytest.approx(full.value.min_eigenvalue, rel=1e-15, abs=0.0)
    assert str(packed.value) == str(full.value)


def test_packed_two_form_rejects_a_wrong_slot_count():
    grid = TorusGrid(n=3, active_dims=(0, 6), sizes=(8, 8))
    with pytest.raises(SpecValidationError, match="packed form shape"):
        PackedTwoForm(grid, np.zeros((7, 8, 8), dtype=complex))


def test_trig_spec_json_round_trip():
    spec = TrigPolySpec.from_terms([TrigTerm((1, -2), 0.3, 0.1), TrigTerm((0, 1), 0.5)])
    again = TrigPolySpec.from_json(spec.to_json())
    assert again == spec
    with pytest.raises(SpecValidationError):
        TrigPolySpec.from_json([{"amplitude": 1.0}])
    with pytest.raises(SpecValidationError):
        TrigPolySpec.from_json({"k": [1]})

"""Model calibration: J tables, standard form, positivity machinery."""

import math

import numpy as np
import pytest

from qmaflow.errors import PositivityError, SpecValidationError
from qmaflow.model import (
    apply_j_one_form,
    apply_j_vector,
    block_eigenvalues,
    build_model,
    is_strictly_positive,
    j_conjugate_one_one,
    j_reality_defect,
    min_positivity_eigenvalue,
    pair_form_vector,
    positivity_matrix,
    require_positive_minimum,
    standard_form,
)
from qmaflow.verify import j_real_projection, random_antisymmetric, random_j_real_positive


def basis_one_form(n, idx, antiholomorphic=False):
    hol = np.zeros(2 * n, dtype=complex)
    anti = np.zeros(2 * n, dtype=complex)
    (anti if antiholomorphic else hol)[idx] = 1.0
    return hol, anti


def test_build_model_validates_n():
    with pytest.raises(ValueError, match="1/\\(n-1\\)"):
        build_model(1)
    with pytest.raises(ValueError):
        build_model(5)
    with pytest.raises(ValueError):
        build_model(0)
    for n in (2, 3, 4):
        assert build_model(n).n == n


@pytest.mark.parametrize("n", [2, 3, 4])
def test_j_squares_to_minus_one_on_forms_and_vectors(n):
    eye = np.eye(2 * n, dtype=complex)
    zero = np.zeros((2 * n, 2 * n), dtype=complex)
    for apply in (apply_j_one_form, apply_j_vector):
        h1, a1 = apply(eye, zero, n)
        h2, a2 = apply(h1, a1, n)
        assert np.allclose(h2, -eye) and np.allclose(a2, zero)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_standard_form_is_j_real(n):
    assert j_reality_defect(standard_form(n), n) == 0.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_positivity_matrix_of_standard_form_is_identity(n):
    assert np.array_equal(positivity_matrix(standard_form(n), n), np.eye(2 * n))


@pytest.mark.parametrize("n", [2, 3])
def test_j_duality_on_all_basis_pairs(n):
    """(J form)(vector) = form(J vector) across the full coordinate basis."""
    for form_anti in (False, True):
        for j in range(2 * n):
            fh, fa = basis_one_form(n, j, form_anti)
            jfh, jfa = apply_j_one_form(fh, fa, n)
            for vec_anti in (False, True):
                for k in range(2 * n):
                    vh, va = basis_one_form(n, k, vec_anti)
                    jvh, jva = apply_j_vector(vh, va, n)
                    lhs = pair_form_vector(jfh, jfa, vh, va)
                    rhs = pair_form_vector(fh, fa, jvh, jva)
                    assert lhs == pytest.approx(rhs, abs=1e-15)


def test_j_reality_defect_detects_single_entry_form():
    # dz^0 ^ dz^2 alone is mapped by J onto dzbar^1 ^ dzbar^3, so the
    # defect against its conjugate is of order one
    alpha = np.zeros((4, 4), dtype=complex)
    alpha[0, 2] = 1.0
    alpha[2, 0] = -1.0
    assert j_reality_defect(alpha, 2) >= 1.0


def test_positivity_matrix_hermitian_iff_j_real():
    rng = np.random.default_rng(8)
    alpha = random_j_real_positive(rng, 2)
    m = positivity_matrix(alpha, 2)
    assert np.max(np.abs(m - m.conj().T)) <= 1e-12
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 2] = 1.0
    skew[2, 0] = -1.0
    m_bad = positivity_matrix(skew, 2)
    assert np.max(np.abs(m_bad - m_bad.conj().T)) > 0.5


def test_negative_standard_form_not_positive():
    assert not is_strictly_positive(-standard_form(2), 2, margin=0.0)
    assert np.allclose(positivity_matrix(-standard_form(2), 2), -np.eye(4))


def test_perturbed_block_eigenvalues():
    # knocking one block down to -0.5 gives eigenvalues {1, 1, -0.5, -0.5}
    alpha = standard_form(2).copy()
    alpha[0, 1] = -0.5
    alpha[1, 0] = 0.5
    eig = np.linalg.eigvalsh(positivity_matrix(alpha, 2))
    assert np.allclose(sorted(eig), [-0.5, -0.5, 1.0, 1.0])
    assert not is_strictly_positive(alpha, 2, margin=0.0)


def test_is_strictly_positive_rejects_a_form_that_is_not_j_real():
    # the n = 2 closed form reads only the real parts of the blocks and the
    # Pfaffian: this form's block eigenvalues are (1, 1), but it is not
    # J-real and its positivity matrix has the eigenvalue 1 + 1j (twice)
    alpha = standard_form(2).astype(complex)
    alpha[0, 1], alpha[1, 0] = 1 + 1j, -1 - 1j
    assert j_reality_defect(alpha, 2) == pytest.approx(2.0)
    assert np.allclose(block_eigenvalues(alpha, 2), [1.0, 1.0])
    with pytest.raises(SpecValidationError, match="not J-real"):
        is_strictly_positive(alpha, 2, margin=0.0)
    # a defect at rounding level is accepted
    alpha[0, 1], alpha[1, 0] = 1 + 1e-14j, -1 - 1e-14j
    assert is_strictly_positive(alpha, 2, margin=0.0)


def test_margin_semantics():
    om = standard_form(2)
    assert is_strictly_positive(om, 2, margin=0.0)
    assert is_strictly_positive(om, 2, margin=0.5)
    assert not is_strictly_positive(om, 2, margin=1.0)  # min eigenvalue is 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_block_eigenvalues_match_eigensolver_pairs(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        alpha = random_j_real_positive(rng, n)
        lam = block_eigenvalues(alpha, n)
        eig = np.linalg.eigvalsh(positivity_matrix(alpha, n))
        paired = 0.5 * (eig[0::2] + eig[1::2])
        assert np.allclose(np.sort(lam), np.sort(paired), atol=1e-10)
        # the eigenvalues really do come in pairs
        assert np.max(np.abs(eig[0::2] - eig[1::2])) <= 1e-10
        # the positivity test agrees with the full eigensolver, its oracle
        assert min_positivity_eigenvalue(alpha, n) == pytest.approx(eig[0], abs=1e-10)
    if n in (2, 3):
        # near the flat form, a double (n = 2) or triple (n = 3) root: the
        # closed forms take their roots about the mean eigenvalue, so they
        # keep full precision there
        for scale in 10.0 ** np.arange(-12, 0):
            alpha = standard_form(n) + scale * j_real_projection(random_antisymmetric(rng, 2 * n), n)
            eig = np.linalg.eigvalsh(positivity_matrix(alpha, n))
            paired = 0.5 * (eig[0::2] + eig[1::2])
            assert np.max(np.abs(block_eigenvalues(alpha, n) - paired)) <= 1e-12


@pytest.mark.parametrize("order", [(0, 1, 1), (1, 0, 1), (1, 1, 0)])
def test_block_eigenvalues_of_diagonal_forms_with_two_equal_blocks(order):
    # the n = 3 forms of a flow on the z^0 plane: no off-diagonal entries and
    # two blocks exactly equal, a double root.  The closed form's arccos
    # argument is +-1 there, where rounding costs half the digits: over
    # 600,000 such forms with blocks in [0.5, 1.5] the error was at most 9.4e-9
    rng = np.random.default_rng(12)
    blocks = rng.uniform(0.5, 1.5, (2, 2000))[list(order)]
    entries = np.zeros((6, 6, 2000), dtype=complex)
    for i, b in enumerate(blocks):
        entries[2 * i, 2 * i + 1], entries[2 * i + 1, 2 * i] = b, -b
    exact = np.sort(blocks, axis=0).T
    assert np.max(np.abs(block_eigenvalues(entries, 3) - exact)) <= 2e-8


def test_det_of_positivity_matrix_is_pfaffian_squared():
    from qmaflow.exterior import pfaffian

    rng = np.random.default_rng(4)
    for n in (2, 3):
        alpha = random_j_real_positive(rng, n)
        det = np.linalg.det(positivity_matrix(alpha, n)).real
        assert det == pytest.approx(pfaffian(alpha).real ** 2, rel=1e-12)


def test_require_strictly_positive_reports_point():
    entries = np.broadcast_to(
        standard_form(2).reshape(4, 4, 1, 1), (4, 4, 3, 3)
    ).copy()
    entries[0, 1, 2, 1] = -0.25
    entries[1, 0, 2, 1] = 0.25
    with pytest.raises(PositivityError) as err:
        require_positive_minimum(min_positivity_eigenvalue(entries, 2), 0.0, "test form")
    assert err.value.point == (2, 1)
    assert err.value.min_eigenvalue == pytest.approx(-0.25, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_entry_fails_at_its_point_without_the_eigensolver(n, bad, monkeypatch):
    eigvalsh = np.linalg.eigvalsh

    def finite_only(m):
        assert np.all(np.isfinite(m)), "a non-finite form reached the eigensolver"
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", finite_only)
    entries = np.broadcast_to(
        standard_form(n).reshape(2 * n, 2 * n, 1, 1), (2 * n, 2 * n, 3, 2)
    ).copy()
    # neither the n = 2 closed form nor the Pfaffian reads a diagonal entry
    entries[1, 1, 2, 0] = bad
    with pytest.raises(PositivityError) as err:
        require_positive_minimum(min_positivity_eigenvalue(entries, n), 0.0, "test form")
    assert err.value.point == (2, 0)
    assert math.isnan(err.value.min_eigenvalue)
    assert not is_strictly_positive(entries, n, margin=0.0)


def test_j_conjugate_one_one_is_involutive_up_to_sign():
    # applying the (1,1) J-image twice returns the original matrix
    rng = np.random.default_rng(31)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = 0.5 * (h + h.conj().T)
    twice = j_conjugate_one_one(j_conjugate_one_one(h, 2), 2)
    assert np.allclose(twice, h, atol=1e-14)


def test_min_positivity_eigenvalue_batched():
    rng = np.random.default_rng(41)
    stack = np.stack([random_j_real_positive(rng, 2) for _ in range(6)], axis=-1)
    mins = min_positivity_eigenvalue(stack, 2)
    assert mins.shape == (6,)
    assert np.all(mins > 0)

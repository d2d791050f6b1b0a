"""Exterior algebra: wedge, Pfaffian, S_m, top quotients against oracles."""

import itertools
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmaflow import exterior
from qmaflow.exterior import (
    REFERENCE_CACHE_SIZE,
    WEDGE_PLAN_CACHE_SIZE,
    ExteriorElement,
    perfect_matchings,
    pfaffian,
    pfaffian_upper,
    s_m,
    top_quotient,
)
from qmaflow.model import positivity_matrix, standard_form
from qmaflow.verify import random_j_real_positive

from support import traced_peak, wedge_per_call


def two_form(n, entries):
    m = np.zeros((2 * n, 2 * n), dtype=complex)
    for (j, k), v in entries.items():
        m[j, k] = v
        m[k, j] = -v
    return m


def random_antisymmetric(rng, m):
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return 0.5 * (a - a.T)


# -- oracles ---------------------------------------------------------------


def wedge_two_forms_bruteforce(a, b):
    """Coefficient map of a ^ b for 2-forms via full permutation expansion."""
    m = a.shape[0]
    out = {}
    for subset in itertools.combinations(range(m), 4):
        total = 0.0 + 0.0j
        for perm in itertools.permutations(range(4)):
            sign = perm_sign(perm)
            p, q, r, s = (subset[i] for i in perm)
            total += sign * a[p, q] * b[r, s]
        out[subset] = total / 4.0  # 2! * 2! orderings within each factor
    return out


def perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def pfaffian_recursive(a, rows=None):
    """First-row expansion Pfaffian, the independent reference."""
    if rows is None:
        rows = list(range(a.shape[0]))
    if not rows:
        return 1.0 + 0.0j
    first = rows[0]
    total = 0.0 + 0.0j
    for pos in range(1, len(rows)):
        rest = rows[1:pos] + rows[pos + 1 :]
        total += (-1) ** (pos - 1) * a[first, rows[pos]] * pfaffian_recursive(a, rest)
    return total


def elementary_symmetric(values, m):
    return sum(
        np.prod(combo) for combo in itertools.combinations(values, m)
    ) if m else 1.0


def merge_sign(mask_a, mask_b):
    """Sign of sorting the generators of mask_a followed by those of mask_b."""
    sign = 1
    for j in range(mask_b.bit_length()):
        if (mask_b >> j) & 1 and (mask_a >> (j + 1)).bit_count() & 1:
            sign = -sign
    return sign


def wedge_reference(a, b):
    """Coefficient map of a ^ b by a scalar loop over every pair of terms."""
    out = {}
    for ka, ca in a.coeffs.items():
        for kb, cb in b.coeffs.items():
            if ka & kb:
                continue
            term = merge_sign(ka, kb) * ca * cb
            out[ka | kb] = out[ka | kb] + term if ka | kb in out else term
    return out


def random_element(rng, n_gen, max_terms, shape=(), parity=None):
    """Sparse element with random keys and coefficient shape ``shape``.

    ``parity`` 0 keeps even-degree keys only; None mixes every degree.
    """
    masks = [k for k in range(1 << n_gen) if parity is None or k.bit_count() % 2 == parity]
    count = int(rng.integers(0, max_terms + 1))
    keys = rng.choice(masks, size=min(count, len(masks)), replace=False)
    return ExteriorElement(
        n_gen,
        {int(k): rng.normal(size=shape) + 1j * rng.normal(size=shape) for k in keys},
    )


def assert_same_element(got, expected, rel):
    """Same keys, and every coefficient within ``rel`` of the largest one."""
    assert set(got.coeffs) == set(expected)
    scale = max([1.0] + [float(np.max(np.abs(v))) for v in expected.values()])
    for key, value in expected.items():
        assert np.max(np.abs(got.coeffs[key] - value)) <= rel * scale


# -- wedge ------------------------------------------------------------------


def test_wedge_disjoint_subsets():
    a = ExteriorElement(4, {0b0011: 1.0})
    b = ExteriorElement(4, {0b1100: 1.0})
    assert a.wedge(b).coefficient(0b1111) == 1.0


def test_wedge_repeated_generator_vanishes():
    a = ExteriorElement(4, {0b0011: 1.0})
    b = ExteriorElement(4, {0b1001: 1.0})
    assert a.wedge(b).coeffs == {}


def test_wedge_matches_permutation_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = random_antisymmetric(rng, 6)
        b = random_antisymmetric(rng, 6)
        ab = ExteriorElement.from_two_form(a).wedge(ExteriorElement.from_two_form(b))
        oracle = wedge_two_forms_bruteforce(a, b)
        for subset, expected in oracle.items():
            mask = sum(1 << i for i in subset)
            assert ab.coefficient(mask) == pytest.approx(expected, abs=1e-12)


def test_wedge_graded_commutative_even_degree():
    rng = np.random.default_rng(5)
    a = ExteriorElement.from_two_form(random_antisymmetric(rng, 8))
    b = ExteriorElement.from_two_form(random_antisymmetric(rng, 8))
    ab = a.wedge(b)
    ba = b.wedge(a)
    assert set(ab.coeffs) == set(ba.coeffs)
    for key, val in ab.coeffs.items():
        # identical terms, possibly summed in a different order
        assert ba.coeffs[key] == pytest.approx(val, rel=1e-14, abs=1e-14)


def test_wedge_bilinear():
    rng = np.random.default_rng(6)
    a = random_antisymmetric(rng, 6)
    b = random_antisymmetric(rng, 6)
    c = random_antisymmetric(rng, 6)
    lhs = ExteriorElement.from_two_form(2.0 * a + 1.5 * b).wedge(
        ExteriorElement.from_two_form(c)
    )
    ea, eb, ec = (ExteriorElement.from_two_form(x) for x in (a, b, c))
    rhs = ea.wedge(ec).scale(2.0) + eb.wedge(ec).scale(1.5)
    for key in set(lhs.coeffs) | set(rhs.coeffs):
        assert lhs.coefficient(key) == pytest.approx(rhs.coefficient(key), abs=1e-12)


def test_wedge_mismatched_generators_rejected():
    with pytest.raises(ValueError):
        ExteriorElement(4, {0b11: 1.0}).wedge(ExteriorElement(6, {0b11: 1.0}))


@pytest.mark.parametrize(
    "shape_a, shape_b",
    [((), ()), ((), (3, 4)), ((5,), ()), ((2, 1), (1, 3))],
)
def test_wedge_matches_scalar_reference(shape_a, shape_b):
    rng = np.random.default_rng(sum(map(len, (shape_a, shape_b))))
    empty = 0
    for _ in range(40):
        n_gen = int(rng.integers(2, 9))
        a = random_element(rng, n_gen, 10, shape_a)
        b = random_element(rng, n_gen, 10, shape_b)
        expected = wedge_reference(a, b)
        empty += not expected
        assert_same_element(a.wedge(b), expected, rel=1e-13)
    assert empty  # some draws have no disjoint pair at all


def test_from_two_form_rejects_too_few_generators():
    a = random_antisymmetric(np.random.default_rng(0), 4)
    shifted = ExteriorElement.from_two_form(a, n_gen=6, shift=2)
    assert shifted.wedge_power(2).coefficient(0b111100) == pytest.approx(2 * pfaffian(a))
    with pytest.raises(ValueError):
        ExteriorElement.from_two_form(a, n_gen=5, shift=2)
    with pytest.raises(ValueError):
        ExteriorElement.from_two_form(a, n_gen=3)


# -- top coefficients by complementary pairing ----------------------------------

BROADCAST_SHAPES = [((), ()), ((), (3, 4)), ((5,), ()), ((2, 1), (1, 3))]


def complementary_pair(rng, n_gen, shape_a, shape_b, parity):
    """Random a and b where b holds the complements of about half of a's keys."""
    a = random_element(rng, n_gen, 8, shape_a, parity)
    full = (1 << n_gen) - 1
    partners = [full ^ key for key in a.coeffs if rng.random() < 0.5]
    b = random_element(rng, n_gen, 4, shape_b)
    coeffs = {key: rng.normal(size=shape_b) + 1j * rng.normal(size=shape_b) for key in partners}
    return a, ExteriorElement(n_gen, {**b.coeffs, **coeffs})


@pytest.mark.parametrize("parity", [None, 1])
@pytest.mark.parametrize("shape_a, shape_b", BROADCAST_SHAPES)
def test_wedge_top_matches_the_product_top(shape_a, shape_b, parity):
    # mixed and odd degrees, so the graded merge sign of every pair counts
    rng = np.random.default_rng(len(shape_a) + 3 * len(shape_b) + 7 * (parity or 0))
    paired = 0
    for _ in range(40):
        a, b = complementary_pair(rng, int(rng.integers(1, 9)), shape_a, shape_b, parity)
        got, expected = a.wedge_top(b), a.wedge(b).top_coefficient()
        paired += bool(np.any(expected != 0))
        assert np.shape(got) == np.broadcast_shapes(a.stack.shape[1:], b.stack.shape[1:])
        assert got.dtype == np.result_type(a.stack, b.stack)
        scale = max([1.0] + [float(np.max(np.abs(v))) for v in (a.stack, b.stack) if v.size])
        assert np.max(np.abs(got - expected), initial=0.0) <= 1e-13 * scale**2 * max(a.keys.size, 1)
    assert paired > 20


def test_wedge_top_of_an_empty_or_unpaired_factor_is_a_typed_zero():
    full = ExteriorElement(4, {0b0011: np.ones((2, 1)), 0b1100: np.ones((2, 1))})
    unpaired = ExteriorElement(4, {0b0001: np.ones(3, dtype=complex), 0b0110: np.ones(3, dtype=complex)})
    for a, b in ((full, unpaired), (unpaired, full)):
        top = a.wedge_top(b)
        assert top.shape == (2, 3) and top.dtype == complex and not np.any(top)
        assert a.wedge(b).top_coefficient() == 0
    empty = ExteriorElement(4)
    for a, b in ((empty, unpaired), (unpaired, empty)):
        top = a.wedge_top(b)
        assert top.shape == (3,) and top.dtype == complex and not np.any(top)


def test_wedge_top_mismatched_generators_rejected():
    with pytest.raises(ValueError):
        ExteriorElement(4, {0b11: 1.0}).wedge_top(ExteriorElement(6, {0b1100: 1.0}))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_wedge_power_top_matches_the_power_top(n):
    # the induced real form on 4n generators (16 for n = 4), whose even
    # powers pair a power with itself and odd ones a power with the next
    rng = np.random.default_rng(n)
    alpha = np.stack([random_j_real_positive(rng, n) for _ in range(2)], axis=-1)
    omega = ExteriorElement.from_one_one_form(positivity_matrix(alpha, n))
    chi = ExteriorElement.from_two_form(random_antisymmetric(rng, 2 * n))
    for element, degree in ((omega, 4 * n), (chi, 2 * n)):
        for p in range(1, degree + 1):
            expected = element.wedge_power(p).top_coefficient()
            got = element.wedge_power_top(p)
            assert np.max(np.abs(got - expected)) <= 1e-12 * max(float(np.max(np.abs(expected))), 1.0)
    assert np.all(omega.wedge_power_top(2 * n) != 0)


# -- wedge plans, cached by key set -------------------------------------------


def assert_bit_identical(got, expected):
    assert np.array_equal(got.keys, expected.keys)
    assert got.stack.dtype == expected.stack.dtype
    assert np.array_equal(got.stack, expected.stack)


def test_wedge_is_bit_identical_to_the_per_call_algorithm():
    rng = np.random.default_rng(20)
    for shape_a, shape_b in BROADCAST_SHAPES:
        for _ in range(20):
            n_gen = int(rng.integers(2, 9))
            a = random_element(rng, n_gen, 10, shape_a)
            b = random_element(rng, n_gen, 10, shape_b)
            assert_bit_identical(a.wedge(b), wedge_per_call(a, b))
            assert_bit_identical(b.wedge(a), wedge_per_call(b, a))
    # the n = 4 chain of the volume identity: omega^p on 16 generators
    alpha = np.stack([random_j_real_positive(rng, 4) for _ in range(3)], axis=-1)
    omega = ExteriorElement.from_one_one_form(positivity_matrix(alpha, 4))
    power = omega
    for _ in range(7):
        expected = wedge_per_call(power, omega)
        power = power.wedge(omega)
        assert_bit_identical(power, expected)
    chi = ExteriorElement.from_two_form(random_antisymmetric(rng, 8))
    assert_bit_identical(chi.wedge(chi), wedge_per_call(chi, chi))


def test_a_warm_plan_serves_other_coefficients_dtypes_and_shapes():
    rng = np.random.default_rng(21)
    exterior._wedge_plan.cache_clear()
    a = ExteriorElement.from_two_form(random_antisymmetric(rng, 6))
    b = ExteriorElement.from_two_form(random_antisymmetric(rng, 6)[..., None, None] * np.ones((2, 3)))
    assert_bit_identical(a.wedge(b), wedge_per_call(a, b))
    assert exterior._wedge_plan.cache_info().misses == 1
    for coefficients in (rng.normal(size=(6, 6, 3)), rng.normal(size=(6, 6)).astype(np.float32)):
        c = ExteriorElement.from_two_form(coefficients - np.swapaxes(coefficients, 0, 1))
        for x, y in ((c, b), (a, c), (c, c)):
            assert_bit_identical(x.wedge(y), wedge_per_call(x, y))
    info = exterior._wedge_plan.cache_info()
    assert info.misses == 1 and info.hits == 6


def test_wedge_plan_cache_is_bounded_and_compact():
    exterior._wedge_plan.cache_clear()
    rng = np.random.default_rng(22)
    for key in range(1, 2 * WEDGE_PLAN_CACHE_SIZE + 1):
        a = ExteriorElement(12, {key: 1.0})
        a.wedge(random_element(rng, 12, 6))
    info = exterior._wedge_plan.cache_info()
    assert info.maxsize == WEDGE_PLAN_CACHE_SIZE and info.currsize == WEDGE_PLAN_CACHE_SIZE
    keys = ExteriorElement.from_two_form(random_antisymmetric(rng, 8)).keys.tobytes()
    out_keys, terms = exterior._wedge_plan(keys, keys, True)
    assert not out_keys.flags.writeable
    for idx, slots, odd in terms:
        assert (idx.dtype, slots.dtype, odd.dtype) == (np.int32, np.int32, bool)


def test_wedge_peak_stays_within_the_longer_stack_and_output():
    # omega^3 ^ omega on 16 generators over a block of 64 trials: one
    # term's products at a time, never a stack of them; a cold call also
    # keeps the plan it builds
    rng = np.random.default_rng(23)
    alpha = np.stack([random_j_real_positive(rng, 4) for _ in range(64)], axis=-1)
    omega = ExteriorElement.from_one_one_form(positivity_matrix(alpha, 4))
    cube = omega.wedge_power(3)
    exterior._wedge_plan.cache_clear()
    out, cold = traced_peak(lambda: cube.wedge(omega))
    keys, terms = exterior._wedge_plan(omega.keys.tobytes(), cube.keys.tobytes(), False)
    plan = keys.nbytes + sum(array.nbytes for term in terms for array in term)
    out, warm = traced_peak(lambda: cube.wedge(omega))
    assert warm <= cube.stack.nbytes + out.stack.nbytes
    assert cold <= cube.stack.nbytes + out.stack.nbytes + plan


# -- algebraic properties ------------------------------------------------------

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)
seeds = st.integers(0, 2**32 - 1)
generator_counts = st.integers(2, 8)


@PROPERTY_SETTINGS
@given(seed=seeds, n_gen=generator_counts)
def test_wedge_associative(seed, n_gen):
    rng = np.random.default_rng(seed)
    a, b, c = (random_element(rng, n_gen, 8, parity=0) for _ in range(3))
    assert_same_element(a.wedge(b).wedge(c), a.wedge(b.wedge(c)).coeffs, rel=1e-12)


@PROPERTY_SETTINGS
@given(seed=seeds, n_gen=generator_counts)
def test_wedge_even_elements_commute(seed, n_gen):
    rng = np.random.default_rng(seed)
    a, b = (random_element(rng, n_gen, 8, parity=0) for _ in range(2))
    assert_same_element(a.wedge(b), b.wedge(a).coeffs, rel=1e-13)


@PROPERTY_SETTINGS
@given(seed=seeds, n_gen=generator_counts)
def test_wedge_distributive(seed, n_gen):
    rng = np.random.default_rng(seed)
    a, b, c = (random_element(rng, n_gen, 8, parity=0) for _ in range(3))
    assert_same_element(a.wedge(b + c), (a.wedge(b) + a.wedge(c)).coeffs, rel=1e-13)


@PROPERTY_SETTINGS
@given(seed=seeds, m=st.integers(1, 4))
def test_top_power_is_pfaffian_and_its_square_is_det(seed, m):
    a = random_antisymmetric(np.random.default_rng(seed), 2 * m)
    pf = pfaffian(a)
    top = ExteriorElement.from_two_form(a).wedge_power(m).top_coefficient()
    assert abs(top / factorial(m) - pf) <= 1e-12 * max(abs(pf), 1.0)
    det = np.linalg.det(a)
    assert abs(pf**2 - det) <= 1e-12 * max(abs(det), 1.0)


# -- Pfaffian ----------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pfaffian_standard_form_is_one(n):
    assert pfaffian(standard_form(n)) == 1.0


def test_pfaffian_4x4_closed_form():
    rng = np.random.default_rng(3)
    a = random_antisymmetric(rng, 4)
    expected = a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2]
    assert pfaffian(a) == pytest.approx(expected, abs=1e-14)
    assert pfaffian_recursive(a) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("m", [4, 6, 8])
def test_pfaffian_matches_recursive_oracle(m):
    rng = np.random.default_rng(m)
    for _ in range(5):
        a = random_antisymmetric(rng, m)
        assert pfaffian(a) == pytest.approx(pfaffian_recursive(a), rel=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_pfaffian_squared_is_determinant(n):
    rng = np.random.default_rng(17 + n)
    for _ in range(20):
        a = random_antisymmetric(rng, 2 * n)
        det = np.linalg.det(a)
        assert pfaffian(a) ** 2 == pytest.approx(det, rel=1e-12)


def test_pfaffian_power_normalization():
    # omega^n = n! Pf(omega) e_0 ^ ... ^ e_{2n-1}
    rng = np.random.default_rng(2)
    for n in (2, 3):
        a = random_antisymmetric(rng, 2 * n)
        top = ExteriorElement.from_two_form(a).wedge_power(n).top_coefficient()
        assert top == pytest.approx(factorial(n) * pfaffian(a), rel=1e-12)


def test_pfaffian_upper_matches_full():
    rng = np.random.default_rng(9)
    for m in (4, 6):
        a = random_antisymmetric(rng, m)
        upper = np.stack([a[j, k] for j in range(m) for k in range(j + 1, m)])
        assert pfaffian_upper(upper, m) == pytest.approx(pfaffian(a), rel=1e-13)


def test_pfaffian_vectorized_over_grid():
    rng = np.random.default_rng(10)
    batch = rng.normal(size=(4, 4, 5, 7)) + 1j * rng.normal(size=(4, 4, 5, 7))
    batch = 0.5 * (batch - np.swapaxes(batch, 0, 1))
    vec = pfaffian(batch)
    for i in range(5):
        for j in range(7):
            assert vec[i, j] == pytest.approx(pfaffian(batch[:, :, i, j]), rel=1e-12)


def test_perfect_matchings_counts():
    assert len(perfect_matchings(4)) == 3
    assert len(perfect_matchings(6)) == 15
    assert len(perfect_matchings(8)) == 105


# -- S_m ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_s_m_of_standard_form_is_binomial(n):
    om = standard_form(n)
    for m in range(n + 1):
        assert s_m(om, om, n, m) == pytest.approx(comb(n, m), abs=1e-14)


def test_s_m_block_diagonal_elementary_symmetric():
    om = standard_form(2)
    chi = two_form(2, {(0, 1): 2.0, (2, 3): 3.0})
    assert s_m(chi, om, 2, 1) == pytest.approx(5.0)
    assert s_m(chi, om, 2, 2) == pytest.approx(6.0)
    rng = np.random.default_rng(30)
    for n in (2, 3):
        blocks = rng.uniform(0.5, 2.0, size=n)
        chi = two_form(n, {(2 * i, 2 * i + 1): blocks[i] for i in range(n)})
        for m in range(n + 1):
            assert s_m(chi, standard_form(n), n, m) == pytest.approx(
                elementary_symmetric(blocks, m), rel=1e-12
            )


def test_s_m_m_zero_is_one():
    rng = np.random.default_rng(1)
    chi = random_antisymmetric(rng, 6)
    assert s_m(chi, standard_form(3), 3, 0) == pytest.approx(1.0)


def test_s_m_rejects_bad_m_and_degenerate_omega():
    om = standard_form(2)
    with pytest.raises(ValueError):
        s_m(om, om, 2, 3)
    with pytest.raises(ValueError):
        s_m(om, np.zeros((4, 4), dtype=complex), 2, 1)


def test_s_m_takes_a_constant_forms_terms_from_its_cache_bit_for_bit():
    # the standard form's Pfaffian and power are built once per value and
    # power, read-only; the same form spread over grid axes is never cached
    # and gives the same bits
    rng = np.random.default_rng(31)
    exterior._constant_reference.cache_clear()
    for n in (2, 3):
        omega = standard_form(n)[..., None, None]
        chi = np.stack([random_antisymmetric(rng, 2 * n) for _ in range(6)], axis=-1)
        chi = chi.reshape(chi.shape[:2] + (2, 3))
        on_grid = np.broadcast_to(omega, chi.shape)
        for m in range(n + 1):
            expected = s_m(chi, on_grid, n, m)
            for _ in ("cold", "warm"):
                got = np.broadcast_to(s_m(chi, omega, n, m), expected.shape)  # chi^0 has no grid axes
                assert got.tobytes() == expected.tobytes()
    info = exterior._constant_reference.cache_info()
    assert info.maxsize == REFERENCE_CACHE_SIZE
    assert info.currsize == info.misses == info.hits == 3 + 4
    top_omega, power = exterior._constant_reference(omega.tobytes(), omega.shape, omega.dtype.str, 3, 2)
    assert not power.stack.flags.writeable and not np.asarray(top_omega).flags.writeable


def test_s_m_imaginary_part_small_for_j_real():
    rng = np.random.default_rng(12)
    for n in (2, 3):
        chi = random_j_real_positive(rng, n)
        for m in range(n + 1):
            val = s_m(chi, standard_form(n), n, m)
            assert abs(val.imag) <= 1e-12 * (1.0 + abs(val))


# -- top quotient --------------------------------------------------------------


def test_top_quotient_identity_and_scaling():
    om = standard_form(2)
    assert top_quotient(om, om, 2) == pytest.approx(1.0)
    assert top_quotient(2.0 * om, om, 2) == pytest.approx(4.0)
    om3 = standard_form(3)
    assert top_quotient(1.5 * om3, om3, 3) == pytest.approx(1.5**3)


@pytest.mark.parametrize("n", [2, 3])
def test_top_quotient_dual_paths_agree(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(10):
        alpha = random_j_real_positive(rng, n)
        fast = top_quotient(alpha, standard_form(n), n, method="pfaffian")
        slow = top_quotient(alpha, standard_form(n), n, method="exterior")
        assert fast == pytest.approx(slow, rel=1e-12)


def test_top_quotient_degenerate_omega_rejected():
    with pytest.raises(ValueError):
        top_quotient(standard_form(2), np.zeros((4, 4), dtype=complex), 2)

"""Flat hyperkähler torus model: J tables, the standard form, positivity.

Conventions (pinned by the calibration tests, see tests/test_model.py):

* 2n holomorphic coordinates z^0..z^{2n-1}; real coordinates x^0..x^{4n-1}
  with z^j = x^j + i x^{2n+j}, every x-coordinate of period 2 pi.
* The right quaternionic structure acts on coordinate 1-forms as

      J dz^{2i}   = -dzbar^{2i+1},      J dz^{2i+1} = +dzbar^{2i},

  extended by realness, J(conj xi) = conj(J xi).  The induced action on
  coordinate vectors is J dbar_{2i} = d_{2i+1}, J dbar_{2i+1} = -d_{2i}.
* The standard form has entries Omega_{2i,2i+1} = 1; it is J-real
  (J Omega = conj Omega) and its positivity matrix is the identity.

With these tables the Hermitian positivity matrix of a (2,0)-form alpha is
M[j,k] = alpha(d_j, J dbar_k), the finite-dimensional stand-in for the
quantifier over (1,0)-vectors in the positivity definition; its determinant
equals Pf(alpha)^2 exactly, and for J-real alpha its eigenvalues come in
equal pairs (one pair per quaternionic block).

A J-real form is the quaternionic Hermitian n x n matrix with real
diagonal blocks a and off-diagonal quaternions z + s j
(:func:`quaternion_entries`; ``fields.SpectralOps.quaternion_slots`` reads
the same (a, z, s) off packed slots), and it is strictly positive when its
n block eigenvalues are (Aslaksen, Math. Intelligencer 18, 1996).  Its S_1
is the sum of the blocks in block order (:func:`block_sum`).  For n = 2
and 3 one routine, :func:`quaternion_terms`, turns (a, z, s) into the
lowest block eigenvalues, S_1, S_n and S_{n-1} in closed form: the roots
of a quadratic about their mean (:func:`pair_eigenvalues`) and the
trigonometric roots of a cubic about its mean (:func:`triple_eigenvalues`).
For n = 4 the block eigenvalues are averaged pairs of the batched Hermitian
eigensolver.  Every form on a grid is tested on its packed slots by
``flow.packed_block_terms``; :func:`block_eigenvalues` tests full forms
passed in as arrays (:func:`is_strictly_positive`, the suite's single
random forms), with NaN at a point holding a non-finite entry, through the
same routine, and is n = 4's eigensolver inside ``packed_block_terms``.
:func:`failing_point` is the one failure rule (a point fails unless its
value is > margin, so NaN fails).  The full spectrum of the positivity
matrix, :func:`positivity_eigenvalues`, stays the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import PositivityError, SpecValidationError
# perfbench/tracing.py patches model.pfaffian; nothing here calls it
from .exterior import pfaffian  # noqa: F401

_SUPPORTED_N = (2, 3, 4)


@dataclass(frozen=True)
class JTables:
    """Index tables for the constant J action in the standard frame.

    ``sigma`` pairs each index with its quaternionic partner
    (2i <-> 2i+1).  ``form_sign[j]`` is the sign in J dz^j = s_j
    dzbar^{sigma_j}; ``vec_sign[k]`` the sign in J dbar_k = t_k
    d_{sigma_k}; ``dj_sign[m]`` the sign in (d_J u)_m = dj_m
    u_{conj sigma_m}.
    """

    n: int
    sigma: np.ndarray
    form_sign: np.ndarray
    vec_sign: np.ndarray
    dj_sign: np.ndarray


@lru_cache(maxsize=None)
def j_tables(n: int) -> JTables:
    """The tables for dimension n, built once; the arrays are read-only."""
    m = 2 * n
    sigma = np.arange(m)
    sigma[0::2] += 1
    sigma[1::2] -= 1
    form_sign = np.where(np.arange(m) % 2 == 0, -1, 1)
    vec_sign = -form_sign
    dj_sign = -form_sign[sigma]
    for table in (sigma, form_sign, vec_sign, dj_sign):
        table.flags.writeable = False
    return JTables(n, sigma, form_sign, vec_sign, dj_sign)


def standard_form(n: int) -> np.ndarray:
    """Antisymmetric matrix of the standard form, blocks (2i, 2i+1) -> 1."""
    omega = np.zeros((2 * n, 2 * n), dtype=complex)
    for i in range(n):
        omega[2 * i, 2 * i + 1] = 1.0
        omega[2 * i + 1, 2 * i] = -1.0
    return omega


@dataclass(frozen=True)
class TorusModel:
    """The flat torus of quaternionic dimension n with its standard form."""

    n: int
    omega: np.ndarray = field(repr=False)


def build_model(n: int) -> TorusModel:
    """Construct the flat model; n must lie in {2, 3, 4}.

    n = 1 is rejected explicitly: the quaternionic-Hessian recombination
    divides by n - 1 and the equation degenerates.
    """
    if n == 1:
        raise SpecValidationError(
            "n = 1 is not supported: the 1/(n-1) recombination factor is undefined"
        )
    if n not in _SUPPORTED_N:
        raise SpecValidationError(f"n must be one of {_SUPPORTED_N}, got {n}")
    return TorusModel(n=n, omega=standard_form(n))


# -- J actions on matrix representations --------------------------------


def j_conjugate_two_form(entries, n: int):
    """Matrix of J alpha (a (0,2)-form) for a (2,0)-form alpha.

    (J alpha)_{ab} = s_{sigma(a)} s_{sigma(b)} alpha_{sigma(a) sigma(b)};
    J-reality means this equals conj(alpha) entrywise.
    """
    t = j_tables(n)
    entries = np.asarray(entries)
    ss = t.form_sign[t.sigma]
    reordered = np.take(np.take(entries, t.sigma, axis=0), t.sigma, axis=1)
    shape = (2 * n, 2 * n) + (1,) * (entries.ndim - 2)
    return reordered * np.outer(ss, ss).reshape(shape)


def j_reality_defect(entries, n: int) -> float:
    """Max-norm of J alpha - conj(alpha) over entries (and grid axes)."""
    entries = np.asarray(entries)
    return float(
        np.max(np.abs(j_conjugate_two_form(entries, n) - np.conj(entries)))
    )


def j_conjugate_one_one(matrix, n: int):
    """Coefficient matrix of i J theta for a real (1,1)-form i theta.

    For theta with coefficient matrix a (so theta = i a_{jk} dz^j ^
    dzbar^k), the J image has (J a)_{ab} = -s_a s_b a_{sigma(b) sigma(a)}.
    """
    t = j_tables(n)
    matrix = np.asarray(matrix)
    reordered = np.take(np.take(matrix, t.sigma, axis=0), t.sigma, axis=1)
    reordered = np.swapaxes(reordered, 0, 1)
    shape = (2 * n, 2 * n) + (1,) * (matrix.ndim - 2)
    return -np.outer(t.form_sign, t.form_sign).reshape(shape) * reordered


# -- positivity ----------------------------------------------------------


def positivity_matrix(entries, n: int):
    """Hermitian matrix M[j,k] = alpha(d_j, J dbar_k), entry axes first.

    Hermitian exactly when alpha is J-real; M(standard form) = identity.
    """
    t = j_tables(n)
    entries = np.asarray(entries)
    m = np.take(entries, t.sigma, axis=1)
    shape = (1, 2 * n) + (1,) * (entries.ndim - 2)
    return m * t.vec_sign.reshape(shape)


def positivity_eigenvalues(entries, n: int):
    """All 2n eigenvalues of the positivity matrix, grid axes leading."""
    m = positivity_matrix(entries, n)
    m = np.moveaxis(m, (0, 1), (-2, -1))
    return np.linalg.eigvalsh(m)


def pair_eigenvalues(a, w4, s1, count: int = 2):
    """The lowest ``count`` of the n = 2 block pair (lo, hi), the roots of lambda^2 - S_1 lambda + S_2.

    ``a`` holds the two blocks, ``w4`` four times the squared norm
    |z|^2 + |s|^2 of the one off-diagonal quaternion and ``s1`` the sum
    a[0] + a[1] (:func:`quaternion_terms` makes both).  The roots are
    (S_1 -+ disc) / 2 with disc^2 = (a_0 - a_1)^2 + 4 w, which is
    S_1^2 - 4 S_2 taken about the mean root: the difference of squares
    cancels near a double root, and this sum of squares does not.
    """
    disc = np.asarray(a[0] - a[1])
    disc *= disc
    disc += w4
    np.sqrt(disc, out=disc)
    if count == 1:  # the lower root alone, written over disc
        lo = np.subtract(s1, disc, out=disc)
        lo *= 0.5
        return [lo]
    return [0.5 * (s1 - disc), 0.5 * (s1 + disc)]


def quaternion_entries(entries, n: int):
    """The blocks and off-diagonal entries of a J-real form, grid axes trailing.

    Returns (a, z, s): ``a[i]`` is the real block entry (2i, 2i+1), and for
    the block pairs i < j in lexicographic order ``z`` holds the entries
    (2i, 2j+1) and ``s`` the entries (2i, 2j).  A J-real form is the
    quaternionic Hermitian n x n matrix with diagonal ``a`` and
    off-diagonal quaternions z + s j; the rest of its entries are +-conj
    of these.  ``fields.SpectralOps.quaternion_slots`` reads the same
    (a, z, s) off packed slots.
    """
    i, j = np.array([(i, j) for i in range(n) for j in range(i + 1, n)]).T
    blocks = np.arange(0, 2 * n, 2)
    return entries[blocks, blocks + 1].real, entries[2 * i, 2 * j + 1], entries[2 * i, 2 * j]


def block_sum(a):
    """S_1 of a J-real form, the sum of its blocks ``a`` in block order; a new array.

    The one S_1 of every form: the positivity test's, the flow's background
    and ``operators.s1_field``.
    """
    s1 = a[0] + a[1]
    for b in a[2:]:
        s1 += b
    return s1


def triple_terms(z, s):
    """The off-diagonal terms of the n = 3 Moore determinant.

    ``z`` and ``s`` stack the pairs (0, 1), (0, 2), (1, 2) as
    :func:`quaternion_entries` gives them.  Returns (w, t): ``w`` the
    squared norms |z|^2 + |s|^2 of the three quaternions, ``t`` twice the
    real part of their cyclic product q01 q12 conj(q02), in complex pairs.
    """
    w = z.real**2 + z.imag**2 + s.real**2 + s.imag**2
    (z01, z02, z12), (s01, s02, s12) = z, s
    zq = z01 * z12 - s01 * s12.conj()
    sq = z01 * s12 + s01 * z12.conj()
    t = 2.0 * (zq.real * z02.real + zq.imag * z02.imag + sq.real * s02.real + sq.imag * s02.imag)
    return w, t


def moore_determinant(a, w, t):
    """Moore determinant of the quaternionic Hermitian 3 x 3 matrix: S_3 = Pf.

    ``a`` holds the three real diagonal entries and (w, t) come from
    :func:`triple_terms` (Aslaksen, Math. Intelligencer 18, 1996).
    """
    return a[0] * a[1] * a[2] - a[0] * w[2] - a[1] * w[1] - a[2] * w[0] + t


_TRIPLE_SHIFTS = (2.0 * np.pi / 3.0, -2.0 * np.pi / 3.0, 0.0)  # ascending roots


def triple_eigenvalues(a, w, t, count: int = 3):
    """The lowest ``count`` of the n = 3 block eigenvalues, ascending, in closed form.

    Inputs as for :func:`moore_determinant`.  The roots are taken about
    the mean eigenvalue sh = S_1 / 3 (Smith, CACM 4, 1961): the shifted
    form has diagonal d = a - sh and the same off-diagonals, so its
    eigenvalues sum to zero, their squares to 6 p^2 and their product to
    Moore(d) = 2 p^3 cos(3 phi), and they are 2 p cos(phi + 2 pi k / 3).
    Taking them from S_1, S_2, S_3 instead loses the repeated blocks of the
    forms on a plane to cancellation.  Where p = 0 the form is sh times the
    standard one and every root is sh.
    """
    sh = (a[0] + a[1] + a[2]) / 3.0
    d = [b - sh for b in a]
    p = np.sqrt((d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + 2.0 * (w[0] + w[1] + w[2])) / 6.0)
    arg = moore_determinant(d, w, t) / np.maximum(2.0 * p * p * p, np.finfo(float).tiny)
    phi = np.arccos(arg.clip(-1.0, 1.0)) / 3.0
    return [sh + 2.0 * p * np.cos(phi + shift) for shift in _TRIPLE_SHIFTS[:count]]


def quaternion_terms(a, z, s, count: int = 1):
    """The positivity test of a J-real form with n = 2 or 3 blocks, with S_1, S_n and S_{n-1}, in closed form.

    (a, z, s) as :func:`quaternion_entries` gives them: the n real blocks
    and the off-diagonal quaternions z + s j.  Returns (lam, s1, s_n,
    s_prev): the lowest ``count`` block eigenvalues, ascending, and the
    elementary symmetric functions S_1 (:func:`block_sum`), S_n (the
    product of the block eigenvalues) and S_{n-1} of them.  For n = 2,
    S_2 = a_0 a_1 - |s|^2 - |z|^2 and the pair comes from
    :func:`pair_eigenvalues`, with at most four grid arrays alive at once;
    for n = 3,
    S_3 is the Moore determinant and the roots come from
    :func:`triple_eigenvalues`.  Both the flow's guard
    (``flow.packed_block_terms``, on packed slots) and
    :func:`block_eigenvalues` (on full forms) take their values from here.
    """
    if len(a) == 2:
        s_n = a[1] * a[0]
        (z,), (s,) = z, s
        w = s.real * s.real
        square = np.asarray(s.imag * s.imag)  # an array also for a single form: the buffer of |z|^2
        w += square
        s_n -= w
        norm = z.real * z.real
        np.multiply(z.imag, z.imag, out=square)
        norm += square
        del square
        s_n -= norm
        w += norm
        del norm
        w *= 4.0
        s1 = block_sum(a)
        return pair_eigenvalues(a, w, s1, count), s1, s_n, s1
    w, t = triple_terms(z, s)
    s_prev = a[0] * a[1] + (a[0] + a[1]) * a[2] - (w[0] + w[1] + w[2])
    lam = triple_eigenvalues(a, w, t, count)
    return lam, block_sum(a), moore_determinant(a, w, t), s_prev


def block_eigenvalues(entries, n: int):
    """The n paired eigenvalues of the positivity matrix, grid axes leading.

    The positivity test of a J-real form: for J-real forms the 2n
    eigenvalues of M come in equal pairs, one pair per quaternionic block;
    this returns one representative per pair, ascending.  Precondition:
    ``entries`` is J-real.  It is not checked here, and a form that is not
    gets meaningless values (the closed forms read only the real parts of
    the blocks and the entries :func:`quaternion_entries` returns).  For
    n = 2 and 3 they come in closed form from :func:`quaternion_terms`,
    the flow guard's own routine; for n = 4 the batched Hermitian
    eigensolver is used and adjacent eigenvalues are averaged.  A grid
    point with a non-finite entry gets NaN block eigenvalues and is never
    handed to either.
    """
    entries = np.asarray(entries)
    if not np.isfinite(entries).all():
        finite = np.isfinite(entries).all(axis=(0, 1))
        lam = block_eigenvalues(np.where(finite, entries, 0.0), n)
        lam[~finite] = np.nan
        return lam
    if n <= 3:
        lam, _, _, _ = quaternion_terms(*quaternion_entries(entries, n), count=n)
        return np.stack(lam, axis=-1)
    eig = positivity_eigenvalues(entries, n)
    return 0.5 * (eig[..., 0::2] + eig[..., 1::2])


def min_positivity_eigenvalue(entries, n: int):
    """Smallest block eigenvalue of a form, grid axes leading.

    Precondition: ``entries`` is J-real, as for :func:`block_eigenvalues`.
    """
    return block_eigenvalues(entries, n)[..., 0]


def is_strictly_positive(entries, n: int, margin: float = 1e-10) -> bool:
    """True iff every block eigenvalue exceeds margin at every grid point.

    Raises SpecValidationError unless ``entries`` is J-real to 1e-12 of its
    largest entry at its finite grid points: block eigenvalues do not decide
    positivity otherwise.  A point with a non-finite entry fails the test.
    """
    entries = np.asarray(entries)
    finite = np.where(np.isfinite(entries).all(axis=(0, 1)), entries, 0.0)
    defect = j_reality_defect(finite, n)
    if not defect <= 1e-12 * float(np.max(np.abs(finite))):
        raise SpecValidationError(f"the form is not J-real (defect {defect:.3e})")
    return failing_point(min_positivity_eigenvalue(entries, n), margin)[1] is None


def failing_point(values: np.ndarray, margin: float):
    """The smallest grid value and the grid point failing the test, if any.

    A point fails unless its value is > margin, so NaN fails.  The point is
    None when every point passes, else the argmin (the first NaN, if any);
    it is () for a single form.
    """
    worst = float(values.min())
    if worst > margin:
        return worst, None
    point = np.unravel_index(values.argmin(), values.shape)
    return worst, tuple(int(i) for i in point)


def require_positive_minimum(min_eig: np.ndarray, margin: float, what: str):
    """Raise PositivityError naming the worst grid point unless ``min_eig`` > margin everywhere.

    ``min_eig`` holds the smallest block eigenvalue of a form at each grid
    point (``flow.packed_block_terms`` on a grid); :func:`failing_point` decides.
    """
    worst, point = failing_point(min_eig, margin)
    if point is not None:
        raise PositivityError(
            f"{what} is not strictly positive: min eigenvalue {worst:.6e}, "
            f"not above margin {margin:.1e}"
            + (f" at grid point {point}" if point else ""),
            point=point or None,
            min_eigenvalue=worst,
        )

"""Exact exterior algebra for even-degree forms over a finite generator set.

Elements are stored as sparse maps from generator subsets (bitmasks) to
coefficients, so wedge products, top-form quotients, S_m and Pfaffians are
evaluated exactly up to floating round-off in the coefficient arithmetic.
Coefficients may be complex scalars or numpy arrays of a common broadcastable
shape; the same code therefore serves both as a pointwise reference oracle
and as a vectorized computation over a whole grid.

Only even-degree elements are supported (all forms handled here are built
from 2-forms), which keeps the algebra commutative and the bookkeeping
simple.  The generator count is small by design: a (2,0)-form layer uses 2n
generators and the real-form layer 4n, with n <= 4.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

import numpy as np


def _merge_sign(mask_a: int, mask_b: int) -> int:
    """Sign of reordering the concatenation of two generator subsets.

    Counts, for every generator j in ``mask_b``, the generators of
    ``mask_a`` with index larger than j; the parity of the total is the
    sign of the interleaving permutation.
    """
    sign = 1
    b = mask_b
    while b:
        j = (b & -b).bit_length() - 1
        if (mask_a >> (j + 1)).bit_count() & 1:
            sign = -sign
        b &= b - 1
    return sign


class ExteriorElement:
    """Even-degree element of the exterior algebra on ``n_gen`` generators."""

    __slots__ = ("n_gen", "coeffs")

    def __init__(self, n_gen: int, coeffs: dict | None = None):
        self.n_gen = n_gen
        self.coeffs = dict(coeffs) if coeffs else {}

    # -- constructors -------------------------------------------------

    @classmethod
    def scalar(cls, n_gen: int, value) -> "ExteriorElement":
        return cls(n_gen, {0: value})

    @classmethod
    def from_two_form(cls, matrix, n_gen: int | None = None, shift: int = 0) -> "ExteriorElement":
        """Element from an antisymmetric coefficient matrix.

        ``matrix[j, k]`` (j < k) is the coefficient of e_{shift+j} ^ e_{shift+k}.
        Trailing axes of ``matrix`` are carried along as array coefficients.
        """
        matrix = np.asarray(matrix)
        m = matrix.shape[0]
        if n_gen is None:
            n_gen = shift + m
        coeffs = {}
        for j in range(m):
            for k in range(j + 1, m):
                coeffs[(1 << (shift + j)) | (1 << (shift + k))] = matrix[j, k]
        return cls(n_gen, coeffs)

    @classmethod
    def from_one_one_form(cls, matrix) -> "ExteriorElement":
        """Element i * sum_jk matrix[j,k] e_j ^ e_{m+k} over 2m generators.

        Encodes a real (1,1)-form i a_{jk} dz^j ^ dzbar^k with the first m
        generators holomorphic and the last m antiholomorphic.
        """
        matrix = np.asarray(matrix)
        m = matrix.shape[0]
        coeffs = {}
        for j in range(m):
            for k in range(m):
                coeffs[(1 << j) | (1 << (m + k))] = 1j * matrix[j, k]
        return cls(2 * m, coeffs)

    # -- algebra ------------------------------------------------------

    def wedge(self, other: "ExteriorElement") -> "ExteriorElement":
        if self.n_gen != other.n_gen:
            raise ValueError(
                f"generator counts differ: {self.n_gen} vs {other.n_gen}"
            )
        out: dict = {}
        for ka, ca in self.coeffs.items():
            for kb, cb in other.coeffs.items():
                if ka & kb:
                    continue
                term = _merge_sign(ka, kb) * ca * cb
                key = ka | kb
                if key in out:
                    out[key] = out[key] + term
                else:
                    out[key] = term
        return ExteriorElement(self.n_gen, out)

    def wedge_power(self, p: int) -> "ExteriorElement":
        if p < 0:
            raise ValueError("negative wedge power")
        acc = ExteriorElement.scalar(self.n_gen, 1.0 + 0.0j)
        for _ in range(p):
            acc = acc.wedge(self)
        return acc

    def scale(self, factor) -> "ExteriorElement":
        return ExteriorElement(
            self.n_gen, {k: factor * v for k, v in self.coeffs.items()}
        )

    def __add__(self, other: "ExteriorElement") -> "ExteriorElement":
        if self.n_gen != other.n_gen:
            raise ValueError("generator counts differ")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] + v if k in out else v
        return ExteriorElement(self.n_gen, out)

    def __sub__(self, other: "ExteriorElement") -> "ExteriorElement":
        return self + other.scale(-1.0)

    def coefficient(self, mask: int):
        return self.coeffs.get(mask, 0.0 + 0.0j)

    def top_coefficient(self):
        """Coefficient of e_0 ^ e_1 ^ ... ^ e_{n_gen-1}."""
        return self.coefficient((1 << self.n_gen) - 1)


# -- Pfaffian ----------------------------------------------------------


def _pairing_sign(pairs) -> int:
    """Parity of the permutation (i0, j0, i1, j1, ...) of 0..2m-1."""
    flat = [idx for pair in pairs for idx in pair]
    inversions = sum(
        1
        for a in range(len(flat))
        for b in range(a + 1, len(flat))
        if flat[a] > flat[b]
    )
    return -1 if inversions & 1 else 1


@lru_cache(maxsize=None)
def perfect_matchings(m: int):
    """All perfect matchings of {0..m-1} with their permutation signs."""
    if m % 2:
        raise ValueError("perfect matchings need an even index set")

    def rec(items):
        if not items:
            yield []
            return
        first = items[0]
        for i in range(1, len(items)):
            rest = items[1:i] + items[i + 1 :]
            for tail in rec(rest):
                yield [(first, items[i])] + tail

    return tuple(
        (_pairing_sign(pairs), tuple(pairs)) for pairs in rec(tuple(range(m)))
    )


def pfaffian(entries):
    """Pfaffian of an antisymmetric matrix, entry axes first.

    ``entries`` has shape (2m, 2m, ...); the Pfaffian is computed by the
    signed perfect-matching expansion, vectorized over the trailing axes.
    Normalized so that for omega = sum_{j<k} a_jk e_j^e_k one has
    omega^m = m! * Pf(a) * e_0^...^e_{2m-1}, and Pf(a)^2 = det(a).
    """
    entries = np.asarray(entries)
    m = entries.shape[0]
    if entries.shape[1] != m or m % 2:
        raise ValueError("expected a (2m, 2m, ...) antisymmetric array")
    return pfaffian_upper(entries[_upper_indices(m)], m)


@lru_cache(maxsize=None)
def _upper_indices(m: int):
    """Rows and columns of the (j, k), j < k entries, in lexicographic order."""
    return np.triu_indices(m, 1)


@lru_cache(maxsize=None)
def _upper_index(m: int) -> dict:
    pairs = [(j, k) for j in range(m) for k in range(j + 1, m)]
    return {pair: idx for idx, pair in enumerate(pairs)}


def full_from_upper(upper, m: int):
    """Antisymmetric (m, m, ...) array from the stacked layout of :func:`pfaffian_upper`."""
    rows, cols = _upper_indices(m)
    full = np.zeros((m, m) + upper.shape[1:], dtype=upper.dtype)
    full[rows, cols] = upper
    full[cols, rows] = -upper
    return full


def pfaffian_upper(upper, m: int):
    """Pfaffian from the stacked upper-triangle entries of an m x m form.

    ``upper`` stacks the (j, k), j < k entries in lexicographic order on
    axis 0.  Same normalization as :func:`pfaffian`; this is the layout
    the flow's inner loop uses to avoid materializing full matrices.
    """
    index = _upper_index(m)
    out = None
    for sign, pairs in perfect_matchings(m):
        term = upper[index[pairs[0]]].copy()
        for pair in pairs[1:]:
            term = term * upper[index[pair]]
        out = sign * term if out is None else out + sign * term
    return out


# -- S_m and top-form quotients -----------------------------------------


def s_m(chi, omega, n: int, m: int):
    """C(n,m) * (chi^m ^ omega^{n-m}) / omega^n by exact exterior expansion.

    ``chi`` and ``omega`` are antisymmetric (2n, 2n, ...) coefficient
    arrays of 2-forms on 2n generators.  Requires Pf(omega) != 0.
    """
    if not 0 <= m <= n:
        raise ValueError(f"m must lie in [0, {n}], got {m}")
    omega = np.asarray(omega)
    top_omega = factorial(n) * pfaffian(omega)
    if np.any(np.abs(top_omega) == 0.0):
        raise ValueError("degenerate reference form: Pf(omega) = 0")
    chi_el = ExteriorElement.from_two_form(chi)
    om_el = ExteriorElement.from_two_form(omega)
    top = chi_el.wedge_power(m).wedge(om_el.wedge_power(n - m)).top_coefficient()
    return comb(n, m) * top / top_omega


def top_quotient(alpha, omega, n: int, method: str = "pfaffian"):
    """alpha^n / omega^n for 2-forms on 2n generators.

    The default path divides Pfaffians; ``method="exterior"`` expands both
    top powers through the exterior algebra and serves as the slow
    reference path.
    """
    pf_omega = pfaffian(omega)
    if np.any(np.abs(pf_omega) == 0.0):
        raise ValueError("degenerate reference form: Pf(omega) = 0")
    if method == "pfaffian":
        return pfaffian(alpha) / pf_omega
    if method == "exterior":
        top_a = ExteriorElement.from_two_form(alpha).wedge_power(n).top_coefficient()
        top_o = ExteriorElement.from_two_form(omega).wedge_power(n).top_coefficient()
        return top_a / top_o
    raise ValueError(f"unknown method {method!r}")

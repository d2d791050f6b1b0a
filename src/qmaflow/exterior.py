"""Exact exterior algebra over a finite generator set.

An element is a sorted array of generator subsets (bitmasks) with one
coefficient stack: keys on axis 0, a common broadcast shape after them.
Wedge products, top-form quotients, S_m and Pfaffians are therefore
evaluated exactly up to floating round-off in the coefficient arithmetic,
and the same code serves both as a pointwise reference oracle and as a
vectorized computation over a grid or a stack of random trials.

Every quantity read off a top degree is taken without forming the top
product: the top coefficient of a ^ b pairs each key of a with its
complement in b (``wedge_top``), and that of a^p pairs a^(p//2) with
itself or with a^(p//2) ^ a (``wedge_power_top``).  A wedge runs one pass
per term of its shorter factor from a plan that depends only on the two
key sets (the longer factor's keys each term meets, their output slots
and merge signs), kept in a bounded cache, so a chain of wedges on the
same layouts derives its tables once.

All forms handled here are built from 2-forms, so their elements have
even degree and commute; ``wedge`` still keeps the graded sign of each
term, so it is exact for elements of any degree.  The generator count is
small by design: a (2,0)-form layer uses 2n generators and the real-form
layer 4n, with n <= 4.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

import numpy as np

_SHIFTS = (1, 2, 4, 8, 16, 32)  # prefix-XOR steps that span a 64-bit key
WEDGE_PLAN_CACHE_SIZE = 64  # wedge plans kept, one per pair of key sets
REFERENCE_CACHE_SIZE = 16  # s_m reference terms kept, one per constant form and power


def _parity_below(keys):
    """Bit i is the parity of the generators of ``keys`` with index below i."""
    for s in _SHIFTS:
        keys = keys ^ (keys << s)
    return keys << 1


def _parity_above(keys):
    """Bit i is the parity of the generators of ``keys`` with index above i."""
    for s in _SHIFTS:
        keys = keys ^ (keys >> s)
    return keys >> 1


def _sorted_unique(keys):
    """The distinct keys in ascending order.

    A sort and a neighbour mask rather than ``np.unique``, whose first call
    imports ``numpy.ma``.
    """
    keys = np.sort(keys)
    keep = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _lift(stack, ndim: int):
    """``stack`` with its trailing shape padded on the left to ``ndim`` axes."""
    pad = ndim - (stack.ndim - 1)
    if pad <= 0:
        return stack
    return stack.reshape(stack.shape[:1] + (1,) * pad + stack.shape[1:])


def _read_only(*arrays):
    """``arrays``, made read-only: every element built from a cached layout
    or wedge plan shares them."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def _two_form_layout(m: int, shift: int):
    """Keys of e_{shift+j} ^ e_{shift+k}, j < k, ascending, with their (j, k)."""
    cols, rows = np.tril_indices(m, -1)  # k ascending, then j: ascending keys
    return _read_only((1 << (shift + rows)) | (1 << (shift + cols)), rows, cols)


@lru_cache(maxsize=None)
def _one_one_form_layout(m: int):
    """Keys of e_j ^ e_{m+k} over 2m generators, ascending, with their (j, k)."""
    cols, rows = np.indices((m, m)).reshape(2, -1)  # k ascending, then j
    return _read_only((1 << rows) | (1 << (m + cols)), rows, cols)


class ExteriorElement:
    """Element of the exterior algebra on ``n_gen`` generators.

    ``keys`` is a sorted int64 array of generator bitmasks (so at most 63
    generators) and ``stack`` holds the matching coefficients on axis 0.
    """

    __slots__ = ("n_gen", "keys", "stack")

    def __init__(self, n_gen: int, coeffs: dict | None = None):
        items = sorted((coeffs or {}).items())
        self.n_gen = n_gen
        self.keys = np.array([key for key, _ in items], dtype=np.int64)
        if items:
            self.stack = np.stack(np.broadcast_arrays(*(np.asarray(v) for _, v in items)))
        else:
            self.stack = np.zeros(0)

    @classmethod
    def _of(cls, n_gen: int, keys, stack) -> "ExteriorElement":
        """Element from sorted unique keys and their coefficient stack."""
        out = cls.__new__(cls)
        out.n_gen, out.keys, out.stack = n_gen, keys, stack
        return out

    @property
    def coeffs(self) -> dict:
        """Mask -> coefficient, in ascending mask order."""
        return dict(zip(self.keys.tolist(), self.stack))

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
        if shift + m > n_gen:
            raise ValueError(
                f"a {m}x{m} form shifted by {shift} needs {shift + m} generators, got {n_gen}"
            )
        keys, rows, cols = _two_form_layout(m, shift)
        return cls._of(n_gen, keys, matrix[rows, cols])

    @classmethod
    def from_one_one_form(cls, matrix) -> "ExteriorElement":
        """Element i * sum_jk matrix[j,k] e_j ^ e_{m+k} over 2m generators.

        Encodes a real (1,1)-form i a_{jk} dz^j ^ dzbar^k with the first m
        generators holomorphic and the last m antiholomorphic.
        """
        matrix = np.asarray(matrix)
        m = matrix.shape[0]
        keys, rows, cols = _one_one_form_layout(m)
        return cls._of(2 * m, keys, 1j * matrix[rows, cols])

    # -- algebra ------------------------------------------------------

    def wedge(self, other: "ExteriorElement") -> "ExteriorElement":
        _require_same_generators(self, other)
        # One pass per term of the shorter factor against the whole longer
        # one, so no transient is larger than the longer factor's stack.
        short_first = self.keys.size <= other.keys.size
        short, long = (self, other) if short_first else (other, self)
        keys, terms = _wedge_plan(short.keys.tobytes(), long.keys.tobytes(), short_first)
        shape = np.broadcast_shapes(short.stack.shape[1:], long.stack.shape[1:])
        long_stack = _lift(long.stack, len(shape))
        out = np.zeros(
            (keys.size,) + shape, dtype=np.result_type(short.stack, long.stack)
        )
        axes = (1,) * len(shape)
        for (idx, slots, odd), coeff in zip(terms, short.stack):
            term = long_stack[idx] * coeff
            np.negative(term, out=term, where=odd.reshape(odd.shape + axes))
            # the slots of one term are distinct, so the fancy += is exact
            out[slots] += term
            del term  # before the next term's gather
        return ExteriorElement._of(self.n_gen, keys, out)

    def wedge_top(self, other: "ExteriorElement"):
        """Top coefficient of self ^ other, without forming the product.

        Only the pairs (K, complement of K) reach the top, so each key of
        ``self`` is looked up in ``other`` once; the merge sign is the one
        :meth:`wedge` gives the pair.  A zero of the product's trailing
        shape and dtype when no pair exists.
        """
        _require_same_generators(self, other)
        comp = ((1 << self.n_gen) - 1) ^ self.keys
        pos = np.searchsorted(other.keys, comp)
        hit = np.flatnonzero(pos < other.keys.size)
        hit = hit[other.keys[pos[hit]] == comp[hit]]
        nd = max(self.stack.ndim, other.stack.ndim) - 1
        mine = self.stack if hit.size == self.keys.size else self.stack[hit]
        terms = _lift(mine, nd) * _lift(other.stack[pos[hit]], nd)
        odd = np.bitwise_count(comp[hit] & _parity_above(self.keys[hit])) & 1
        np.negative(terms, out=terms, where=odd.view(bool).reshape(odd.shape + (1,) * nd))
        return terms.sum(axis=0)

    def wedge_power(self, p: int) -> "ExteriorElement":
        if p < 0:
            raise ValueError("negative wedge power")
        if p == 0:
            return ExteriorElement.scalar(self.n_gen, 1.0 + 0.0j)
        acc = self
        for _ in range(p - 1):
            acc = acc.wedge(self)
        return acc

    def wedge_power_top(self, p: int):
        """Top coefficient of self^p: self^(p//2) paired with itself, or
        with self^(p//2) ^ self when p is odd."""
        half = self.wedge_power(p // 2)
        return half.wedge_top(half.wedge(self) if p % 2 else half)

    def scale(self, factor) -> "ExteriorElement":
        return ExteriorElement._of(
            self.n_gen, self.keys, _lift(self.stack, np.ndim(factor)) * factor
        )

    def __add__(self, other: "ExteriorElement") -> "ExteriorElement":
        _require_same_generators(self, other)
        keys = _sorted_unique(np.concatenate((self.keys, other.keys)))
        shape = np.broadcast_shapes(self.stack.shape[1:], other.stack.shape[1:])
        out = np.zeros(
            (keys.size,) + shape, dtype=np.result_type(self.stack, other.stack)
        )
        for part in (self, other):
            out[np.searchsorted(keys, part.keys)] += _lift(part.stack, len(shape))
        return ExteriorElement._of(self.n_gen, keys, out)

    def __sub__(self, other: "ExteriorElement") -> "ExteriorElement":
        return self + other.scale(-1.0)

    def coefficient(self, mask: int):
        idx = int(np.searchsorted(self.keys, mask))
        if idx < self.keys.size and self.keys[idx] == mask:
            return self.stack[idx]
        return 0.0 + 0.0j

    def top_coefficient(self):
        """Coefficient of e_0 ^ e_1 ^ ... ^ e_{n_gen-1}."""
        return self.coefficient((1 << self.n_gen) - 1)


def _require_same_generators(a: ExteriorElement, b: ExteriorElement):
    if a.n_gen != b.n_gen:
        raise ValueError(f"generator counts differ: {a.n_gen} vs {b.n_gen}")


@lru_cache(maxsize=WEDGE_PLAN_CACHE_SIZE)
def _wedge_plan(short: bytes, long: bytes, short_first: bool):
    """Output keys of a wedge and, per key of its shorter factor, the plan
    of that term: the longer factor's keys it misses (their indices), the
    output slots of their products and where the merge sign is odd.

    ``short`` and ``long`` are the factors' int64 keys as bytes, and
    ``short_first`` tells whether the shorter factor is the left one.
    """
    short, long = np.frombuffer(short, dtype=np.int64), np.frombuffer(long, dtype=np.int64)
    # bit i of a flip tells whether a longer-factor generator i crosses an
    # odd number of the term's generators when the product is sorted
    flips = _parity_above(short) if short_first else _parity_below(short)
    hits = [np.flatnonzero((long & key) == 0).astype(np.int32) for key in short]
    parts = [long[idx] | key for idx, key in zip(hits, short)]
    keys = _sorted_unique(np.concatenate(parts)) if parts else short
    terms = tuple(
        _read_only(
            idx,
            np.searchsorted(keys, part).astype(np.int32),
            (np.bitwise_count(long[idx] & flip) & 1).astype(bool),
        )
        for idx, part, flip in zip(hits, parts, flips)
    )
    return _read_only(keys)[0], terms


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
    arrays of 2-forms on 2n generators.  Requires Pf(omega) != 0.  When
    ``omega`` is one form for every point (its trailing axes have length
    1), as the standard form is, its Pfaffian and its power are built once
    per value and power and kept in a bounded cache.
    """
    if not 0 <= m <= n:
        raise ValueError(f"m must lie in [0, {n}], got {m}")
    omega = np.asarray(omega)
    if omega.size == omega.shape[0] ** 2:  # one form for every point: cached by value
        top_omega, om_pow = _constant_reference(omega.tobytes(), omega.shape, omega.dtype.str, n, n - m)
    else:
        top_omega, om_pow = _reference(omega, n, n - m)
    top = ExteriorElement.from_two_form(chi).wedge_power(m).wedge_top(om_pow)
    return comb(n, m) * top / top_omega


def _reference(omega, n: int, p: int):
    """(n! Pf(omega), omega^p) of the reference form of :func:`s_m`."""
    top_omega = factorial(n) * pfaffian(omega)
    if np.any(np.abs(top_omega) == 0.0):
        raise ValueError("degenerate reference form: Pf(omega) = 0")
    return top_omega, ExteriorElement.from_two_form(omega).wedge_power(p)


@lru_cache(maxsize=REFERENCE_CACHE_SIZE)
def _constant_reference(data: bytes, shape: tuple, dtype: str, n: int, p: int):
    """:func:`_reference` of a form with no grid axes (trailing axes of length 1),
    given by value; read-only, since every call on the same form shares it."""
    top_omega, om_pow = _reference(np.frombuffer(data, dtype).reshape(shape), n, p)
    _read_only(np.asarray(top_omega), om_pow.stack)
    return top_omega, om_pow


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
        top_a = ExteriorElement.from_two_form(alpha).wedge_power_top(n)
        top_o = ExteriorElement.from_two_form(omega).wedge_power_top(n)
        return top_a / top_o
    raise ValueError(f"unknown method {method!r}")

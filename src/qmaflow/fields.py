"""Periodic grids, scalar fields, trig-polynomial inputs, spectral calculus.

Fields live on a uniform periodic grid over a chosen subset of the 4n real
coordinates (period 2 pi each).  Inactive coordinates contribute zero to
every derivative, so a reduced grid integrates the same equations exactly
whenever the data only depend on the active coordinates; all structure
tensors of the flat model are constant, so nothing else changes.

Derivatives are Fourier multipliers.  No dealiasing is applied (the flow's
right-hand side involves a logarithm, which no truncation rule handles
exactly); instead the energy fraction in the top third of the spectrum is
reported as a per-step diagnostic.  Every multiplier vanishes on every mode
with a Nyquist index on any even axis, differentiated or not (the
multipliers are built on the live indices of each axis only): the
derivatives see only the modes below Nyquist, the "live" modes, which
keeps real fields real under differentiation.  Inputs are
required to be band-limited below Nyquist anyway, and the stepper keeps its
updates on the live modes.

One spectrum representation serves every derivative and the stepper: the
live-mode vector, the spectrum of a real field on the live modes only, as
a 1-d array in row-major mode order (``SpectralOps.live_fft``; 3^8 of the
4^8 modes).  Every bundle and the spectral tail read it, and
``SpectralOps.live_ifft_real`` turns one back into a real field.

The quaternionic Hessian of a real field is a J-real form: the entry
(sigma j, sigma k) is +-conj of the entry (j, k), and the n diagonal blocks
(2i, 2i+1) are real and sum to S_1.  Every J-real form is held in one
packed layout: one complex slot per partner pair, and the real blocks two
per slot, read back as real and imaginary parts.  The Hessian bundle
inverse transforms that layout's slots (multiplier M_a + i M_b for two
blocks).  The background form c Omega + ddj(rho) is built, checked and
kept on those slots (``build_omega_h`` returns a ``PackedTwoForm``, whose
full entries are expanded only when read).  The flow's evolving form
minus its background, (S_1(ddj u) Omega - ddj u) / (n - 1), is a Fourier
multiplier of u as well and fills the same slots: the flow adds that
bundle to the packed background and never assembles the form entry by
entry.  A bundle transforms only the slots whose multiplier does not
vanish on the grid (inactive coordinates zero some), one slot at a time
into one output: each slot's multiplier meets the live-mode vector as its
turn comes, and the slot's transform is written straight into its place,
so a bundle holds its output, one slot's spectrum and its transform's
scratch buffers, and no stack of products or of intermediate results.
S_1 and S_2 of a packed form, the first two elementary symmetric functions
of its block eigenvalues, are real polynomials in its slots
(``SpectralOps.slot_terms``).  The slots also hold the form as a
quaternionic Hermitian matrix: every pair slot is one off-diagonal entry
of it, so the blocks and the off-diagonal quaternions are read off without
unpacking (``SpectralOps.quaternion_slots``, which the n = 3 flow map
takes its closed forms from).  Every multiplier lives on the live modes
only, built on the live indices of each axis, never on the full grid, and
is a small expression in the per-axis wavenumbers: d/dz^a is
(ik_a + k_{2n+a})/2, on the two axes of x^a and x^{2n+a}, and a Hessian
slot a difference of products of two of those.  Only the flow's stacks
are kept: the form bundle's slot multipliers, which every flow evaluation
reads, and S_1's live-mode vector.  The first derivatives are kept as
their per-axis factors and the Hessian as products of two of them, and
each row of those bundles is made when its turn comes, as small as its
factors until it meets the live-mode vector.  Only the index tables of
the full transforms, built by the first full transform of a real field,
and the live modes' flat indices
(``SpectralOps._live_index``, built on first read, which a flow on DFT
matrices never makes) can be grid-sized; the live modes' mask
(``SpectralOps.below_nyquist``) is built when read and not kept.

Each grid picks its transform once, from its shape.  If no axis is longer
than DFT_MATRIX_MAX_AXIS points, every derivative and the stepper's
transform pair use DFT matrices on the live modes (``dft._KroneckerDft``):
adjacent axes fuse into groups, each closed once it keeps
``dft.DFT_GROUP_MIN_LIVE`` live modes, each group's matrix is the
Kronecker product of its axes' DFT matrices restricted to the live modes,
and a transform is one matrix product per group, exact because every
multiplier vanishes off the live modes.  A slot's products run in two
scratch buffers, one pair that the forward and inverse transforms share,
and the last one writes into the slot.  The forward transform takes
a real field, so its first product is a real one: the first group's matrix
holds each mode's cos and sin columns interleaved, and the product reads
as complex without a copy.  An FFT library pays per call and per line of
each axis, which on short axes costs far more than the arithmetic (4^8:
16,384 lines of 4 points per axis).  Grids with a longer axis run on
numpy.fft: the forward gathers the live modes from the full FFT, and the
inverse scatters each slot's into a zero grid and transforms it into the
slot.  The full transforms run on numpy.fft on every grid; the FFT of a
real field is rfftn's half spectrum filled out by conjugation
(``dft._hermitian_gather``, built by the first such FFT: a flow on DFT
matrices never takes one), so it is Hermitian exactly, not just to rounding.

One reduction needs no transform: the squared norm of the z-bar gradient
of a real field, which the flow reports as ``max_beta`` every step, is a
sum of squared first derivatives along the active real axes, and a first
derivative along one axis is a small real matrix acting along it, the
periodic Fourier differentiation matrix (:func:`differentiation_matrix`,
Nyquist mode zeroed).  ``SpectralOps.zbar_gradient_norm2`` applies it to
the field's samples, one matrix product per axis, for a field on the live
modes, as the flow's state is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy import fft as np_fft  # numpy loads its fft lazily; do it at import

from .dft import _hermitian_gather, _kronecker_pair
from .errors import SpecValidationError
from .exterior import full_from_upper
from .model import TorusModel, j_reality_defect, j_tables, require_positive_minimum

PERIOD = 2.0 * np.pi
DFT_MATRIX_MAX_AXIS = 32  # grids with no longer axis transform by live-mode DFT matrices
# an axis whose points times those of the axes after it are at most this
# many is differentiated by one product with a Kronecker matrix of that order
DERIVATIVE_KRON_MAX_ORDER = 64


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid on selected real coordinates of the 4n-torus."""

    n: int
    active_dims: tuple
    sizes: tuple

    def __post_init__(self):
        object.__setattr__(self, "active_dims", tuple(int(d) for d in self.active_dims))
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if not self.active_dims:
            raise SpecValidationError("at least one active dimension is required")
        if len(self.active_dims) != len(self.sizes):
            raise SpecValidationError("active_dims and sizes must have equal length")
        if list(self.active_dims) != sorted(set(self.active_dims)):
            raise SpecValidationError("active_dims must be strictly increasing")
        if self.active_dims[-1] >= 4 * self.n or self.active_dims[0] < 0:
            raise SpecValidationError(
                f"active dims must lie in [0, {4 * self.n - 1}]"
            )
        if any(s < 2 for s in self.sizes):
            raise SpecValidationError("grid sizes must be at least 2")
        field_bytes = self.num_points * np.dtype(complex).itemsize
        if field_bytes > np.iinfo(np.intp).max:
            raise SpecValidationError(
                f"grid of {self.num_points} points is too large: one complex field "
                f"would take {field_bytes} bytes"
            )

    @property
    def shape(self) -> tuple:
        return self.sizes

    @property
    def num_points(self) -> int:
        return math.prod(self.sizes)

    @property
    def spacings(self) -> tuple:
        return tuple(PERIOD / s for s in self.sizes)

    @property
    def min_spacing(self) -> float:
        return min(self.spacings)

    def axis_of(self, real_dim: int):
        """Array axis carrying a real coordinate, or None if inactive."""
        try:
            return self.active_dims.index(real_dim)
        except ValueError:
            return None

    def coordinates(self):
        """Broadcastable coordinate arrays, one per active dimension."""
        out = []
        d = len(self.sizes)
        for p, size in enumerate(self.sizes):
            x = np.arange(size) * (PERIOD / size)
            shape = [1] * d
            shape[p] = size
            out.append(x.reshape(shape))
        return out


@dataclass
class ScalarField:
    """Real-valued samples over a TorusGrid."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise SpecValidationError(
                f"field shape {self.values.shape} does not match grid {self.grid.shape}"
            )

    @classmethod
    def zeros(cls, grid: TorusGrid) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def constant(cls, grid: TorusGrid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    def mean(self) -> float:
        return float(self.values.mean())

    def osc(self) -> float:
        return float(self.values.max() - self.values.min())

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def __add__(self, other):
        other_values = other.values if isinstance(other, ScalarField) else other
        return ScalarField(self.grid, self.values + other_values)

    __radd__ = __add__

    def __sub__(self, other):
        other_values = other.values if isinstance(other, ScalarField) else other
        return ScalarField(self.grid, self.values - other_values)

    def __mul__(self, factor):
        return ScalarField(self.grid, self.values * factor)

    __rmul__ = __mul__

    def __neg__(self):
        return ScalarField(self.grid, -self.values)


# -- trig-polynomial input language --------------------------------------


def json_int(value, what: str) -> int:
    """A JSON integer, not a boolean; SpecValidationError otherwise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecValidationError(f"{what} must be an integer, got {value!r}")
    return value


def json_ints(value, what: str) -> tuple:
    """A JSON array of integers, as a tuple."""
    if not isinstance(value, list):
        raise SpecValidationError(f"{what} must be a list of integers, got {value!r}")
    return tuple(json_int(v, what) for v in value)


def json_number(value, what: str) -> float:
    """A JSON number, not a boolean or a string, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecValidationError(f"{what} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class TrigTerm:
    """One term amplitude * cos(<k, x> + phase) over the active coordinates."""

    k: tuple
    amplitude: float
    phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "k", tuple(int(c) for c in self.k))
        if not (math.isfinite(self.amplitude) and math.isfinite(self.phase)):
            raise SpecValidationError(f"trig term {self} is not finite")


@dataclass(frozen=True)
class TrigPolySpec:
    """Band-limited real input: a finite list of cosine terms."""

    terms: tuple

    @classmethod
    def from_terms(cls, terms) -> "TrigPolySpec":
        return cls(tuple(terms))

    @classmethod
    def single(cls, k, amplitude, phase=0.0) -> "TrigPolySpec":
        return cls((TrigTerm(tuple(k), amplitude, phase),))

    def scaled(self, factor: float) -> "TrigPolySpec":
        return TrigPolySpec(
            tuple(TrigTerm(t.k, t.amplitude * factor, t.phase) for t in self.terms)
        )

    def validate_on(self, grid: TorusGrid):
        for term in self.terms:
            if len(term.k) != len(grid.active_dims):
                raise SpecValidationError(
                    f"wavevector {term.k} has {len(term.k)} components, "
                    f"grid has {len(grid.active_dims)} active dims"
                )
            for kc, size in zip(term.k, grid.sizes):
                if 2 * abs(kc) >= size:
                    raise SpecValidationError(
                        f"wavevector component {kc} is not resolvable on a "
                        f"size-{size} axis (need |k| < size/2)"
                    )

    def to_json(self):
        return [
            {"k": list(t.k), "amplitude": t.amplitude, "phase": t.phase}
            for t in self.terms
        ]

    @classmethod
    def from_json(cls, data) -> "TrigPolySpec":
        if not isinstance(data, list):
            raise SpecValidationError("trig spec must be a list of terms")
        terms = []
        for entry in data:
            try:
                amplitude = json_number(entry["amplitude"], "amplitude")
                phase = json_number(entry.get("phase", 0.0), "phase")
                terms.append(TrigTerm(json_ints(entry["k"], "k"), amplitude, phase))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise SpecValidationError(f"bad trig term {entry!r}: {exc}") from exc
        return cls(tuple(terms))


def sample(spec: TrigPolySpec, grid: TorusGrid) -> ScalarField:
    """Evaluate a trig spec on the grid; exact for band-limited input."""
    spec.validate_on(grid)
    coords = grid.coordinates()
    values = np.zeros(grid.shape)
    for term in spec.terms:
        phase_field = term.phase
        for kc, x in zip(term.k, coords):
            if kc:
                phase_field = phase_field + kc * x
        values = values + term.amplitude * np.cos(
            np.broadcast_to(phase_field, grid.shape)
        )
    return ScalarField(grid, values)


# -- spectral calculus ----------------------------------------------------


def differentiation_matrix(size: int):
    """The real periodic Fourier differentiation matrix of an axis of ``size`` points.

    D @ u is du/dx at the grid points of an axis, as the multiplier i k on
    the modes below Nyquist gives it (the Nyquist mode zeroed, as every
    multiplier's is).  Built from that multiplier; it is Trefethen's D_N
    (Spectral Methods in MATLAB, SIAM 2000, ch. 3): 1/2 (-1)^(j-k) cot((j-k)
    h / 2) off the diagonal for even ``size``, 1/2 (-1)^(j-k) csc((j-k) h / 2)
    for odd, h = 2 pi / size, and zero on the diagonal up to rounding; the
    zero matrix for two points.
    """
    k = np_fft.fftfreq(size) * size
    k[2 * np.arange(size) == size] = 0.0  # Nyquist
    return np_fft.ifft(1j * k[:, None] * np_fft.fft(np.eye(size), axis=0), axis=0).real


def _max_abs(arrays):
    """The largest magnitude over a sequence of arrays, taken one array at a time; NaN if any is."""
    return float(np.max([np.max(np.abs(a)) for a in arrays]))


class SpectralOps:
    """Fourier-multiplier derivatives for one grid and one model dimension.

    Keeps what a flow reads: the packed slot multipliers of the flow's
    evolving form (``_form_rows``, its non-zero slots stacked on the live
    modes), S_1's multiplier ``s1_live``, the spectral tail's mask, the
    slot layout and the transforms.  Of the other multipliers it keeps
    only the per-axis factors of the first derivatives (``_dz`` and
    ``_dzbar``, each on at most two axes), the Hessian's products of two
    of them (``_ddj_terms``, at most four axes) and the indices of the
    non-zero z-bar rows and Hessian slots.  The bundles that read them
    (:meth:`z_gradient_from_hat`, :meth:`zbar_gradient_batched_from_hat`,
    :meth:`mixed_hessian_from_hat` and :meth:`ddj_slots_from_hat`) make each
    row from those factors when its turn comes, on at most the axes its
    factors span, so no (2n, live) stack and no packed Hessian stack is
    held; a row's numbers do not depend on how far it is broadcast.  Every
    multiplier is zero off the modes below Nyquist.  Every derivative is a
    live-mode bundle, on DFT
    matrices or numpy.fft as the module's rule picks, and so is the step
    pair; :meth:`fft` and :meth:`ifft` are the full transforms, on
    numpy.fft for every grid, and :meth:`fft` of a real field is exactly
    Hermitian.  "from_hat" methods and :meth:`spectral_tail` take the
    live-mode vector of a real field (:meth:`live_fft`) and return
    position-space arrays.  The packed :meth:`ddj_upper_s1_from_hat` is the
    Hessian transform and :meth:`packed_form_from_hat` the flow's; both use
    the one slot layout of :meth:`pack_j_real`, which :meth:`unpack_form`,
    :meth:`slot_terms` and :meth:`quaternion_slots` read.  :meth:`live_fft` and
    :meth:`live_ifft_real` are the step pair, and ``s1_live`` is the S_1
    multiplier the step solves with.  :meth:`zbar_gradient_norm2` reduces
    the z-bar gradient of a real field on the live modes to its squared
    norm from its samples, one differentiation-matrix product per axis.
    One instance serves a grid (:func:`spectral_ops`), so every method
    returns new arrays, none of them sharing memory with the transforms'
    scratch buffers.
    """

    def __init__(self, grid: TorusGrid):
        self.grid = grid
        self.n = grid.n
        # per axis, the indices below Nyquist: the live modes are their product
        self._live_axes = [np.flatnonzero(2 * np.arange(size) != size) for size in grid.sizes]
        self._live_shape = tuple(len(live) for live in self._live_axes)
        self._live_count = math.prod(self._live_shape)
        self._live_dft = None  # DFT matrices on the live modes, in the order of _live_index
        if max(grid.sizes) <= DFT_MATRIX_MAX_AXIS:
            self._live_dft, self._live_idft = _kronecker_pair(grid.sizes, self._live_axes)
        m = 2 * self.n
        # d/dz^a -> (ik_a + k_{2n+a})/2,  d/dzbar^a -> (ik_a - k_{2n+a})/2, each on
        # the axes of x^a and x^{2n+a} only, broadcast over the others
        self._dz = [0.5 * (self._ik(a) + (-1j) * self._ik(m + a)) for a in range(m)]
        self._dzbar = [0.5 * (self._ik(a) - (-1j) * self._ik(m + a)) for a in range(m)]
        self._zbar_live = [a for a, mult in enumerate(self._dzbar) if np.any(mult)]
        # dj_k u_{j sigma(k)bar} for j != k: a product of two factors, on at
        # most four axes, of which the Hessian's entries are differences
        t = j_tables(self.n)
        self._ddj_terms = [
            [None if j == k else t.dj_sign[k] * self._dz[j] * self._dzbar[t.sigma[k]] for k in range(m)] for j in range(m)
        ]
        self.pairs = [(j, k) for j in range(m) for k in range(j + 1, m)]
        # (ik + k')(ik - k') / 4: the cross terms are the same two products, so
        # the imaginary part cancels exactly
        s1 = sum(dz * dzbar for dz, dzbar in zip(self._dz, self._dzbar))
        self.s1_live = np.ascontiguousarray(np.broadcast_to(s1.real, self._live_shape)).reshape(-1)
        self._tail_live = self._build_tail_live()
        self._build_slot_tables(t)

    def _build_slot_tables(self, t):
        """The one packed slot layout, and the Hessian and form multipliers on it.

        For a real field, entry (sigma j, sigma k) equals
        form_sign[j] * form_sign[k] * conj(entry (j, k)); sigma only swaps
        within a block, so sigma j < sigma k whenever j < k lie in different
        blocks.  Each partner pair takes one slot; the real blocks
        (j, sigma j) share slots two at a time.  ``_form_layout`` is
        (entries, partners, signs, real_blocks, imag_blocks): pair slot c
        holds entry ``entries[c]``, whose partner is ``signs[c]`` times its
        conjugate, and block slot s holds ``real_blocks[s]`` in its real
        part and ``imag_blocks[s]`` in its imaginary part.

        The layout holds every entry, since a background form may be
        non-zero where no multiplier reaches; packed forms, the Hessian
        bundle and the form bundle all use it.  A bundle transforms only the
        slots whose multiplier is not identically zero: the Hessian's
        ddj-mult_e, or the form's (S_1-mult * Omega_e - ddj-mult_e) / (n - 1).
        The blocks are ordered by (form multiplier zero, Hessian multiplier
        zero), zero last.  A block's form multiplier is the sum of the other
        blocks' Hessian multipliers, so at most one block has a zero form
        multiplier and a non-zero Hessian one, and then it is the only block
        the Hessian reaches.  Either way each bundle's live blocks come
        first or stand alone, and it transforms no more block slots than
        half of them, rounded up.  Sorting by the form multiplier alone
        would leave the Hessian's live blocks apart on some grids (n = 3
        with x^0 and x^4 active reaches blocks 0 and 2) and cost it a slot.
        """

        ddj_mult = self._ddj_mult
        index = {pair: e for e, pair in enumerate(self.pairs)}
        blocks = [index[(j, int(t.sigma[j]))] for j in range(0, 2 * self.n, 2)]
        pairs = []  # (entry, partner, sign) of every partner pair, entry < partner
        for e, (j, k) in enumerate(self.pairs):
            partner = index.get((int(t.sigma[j]), int(t.sigma[k])))  # None for a block
            if e not in blocks and e < partner:
                pairs.append((e, partner, int(t.form_sign[j] * t.form_sign[k])))
        eta = sum(ddj_mult(e) for e in blocks)  # S_1 of the Hessian, one live row of scratch
        block_set = set(blocks)

        def form_mult(e):
            if e in block_set:
                return (eta - ddj_mult(e)) / (self.n - 1)  # Omega is 1 on every block
            return -ddj_mult(e) / (self.n - 1)

        zero = {e: (not np.any(form_mult(e)), not np.any(ddj_mult(e))) for e in blocks}
        blocks.sort(key=zero.get)
        entries, partners, signs = np.array(pairs).T
        signs = signs.astype(float).reshape((-1,) + (1,) * len(self.grid.shape))
        real_blocks, imag_blocks = np.array(blocks[0::2]), np.array(blocks[1::2])
        self._form_layout = (entries, partners, signs, real_blocks, imag_blocks)
        slots = range(len(entries) + len(real_blocks))
        self._ddj_live = [c for c in slots if np.any(self._slot(ddj_mult, c))]
        # the form's rows, which every flow evaluation reads, are the one stack
        # kept; each is made as its turn comes
        rows = [c for c in slots if np.any(self._slot(form_mult, c))]
        stack = np.empty((len(rows),) + self._live_shape, dtype=complex)
        for row, c in zip(stack, rows):
            row[...] = self._slot(form_mult, c)
        self._form_rows = (rows, stack, len(slots))
        # block b sits in slot len(pairs) + b // 2, in the real part iff b is even;
        # a dead Hessian block that shares a live slot would read rounding there,
        # and so would the empty imaginary part after an odd number of blocks
        parts = len(blocks) + len(blocks) % 2
        dead = [b for b in range(parts) if b == len(blocks) or zero[blocks[b]][1]]
        self._ddj_dead_parts = [[len(pairs) + b // 2 for b in dead if b % 2 == p] for p in (0, 1)]
        # quaternion_slots: block i is (2i, 2i+1)
        by_part = list(real_blocks) + list(imag_blocks)  # the order quaternion_slots reads them in
        self._block_order = np.array([by_part.index(index[(b, b + 1)]) for b in range(0, 2 * self.n, 2)])

    def _ddj_mult(self, e):
        """The multiplier of Hessian entry e, on the axes of its coordinates only.

        (ddj u)_{jk} = dj_k u_{j sigma(k)bar} - dj_j u_{k sigma(j)bar}, the
        difference of two of ``_ddj_terms``.
        """
        j, k = self.pairs[e]
        return self._ddj_terms[j][k] - self._ddj_terms[k][j]

    def _slot(self, entry, c):
        """Slot c of the layout, from ``entry(e)``, the value of entry e.

        A pair slot is its entry's value; a block slot is a new array of
        the shape its blocks broadcast to.
        """
        entries, _, _, real_blocks, imag_blocks = self._form_layout
        b = c - len(entries)
        if b < 0:
            return entry(entries[c])
        parts = [np.real(entry(e)) for e in (real_blocks[b], *imag_blocks[b : b + 1])]
        slot = np.zeros(np.broadcast(*parts).shape, dtype=complex)
        slot.real = parts[0]
        if len(parts) > 1:
            slot.imag = parts[1]
        return slot

    def _ik(self, real_dim: int):
        """i k along a real coordinate on the live indices of its axis, 0 if inactive."""
        d = len(self.grid.sizes)
        axis = self.grid.axis_of(real_dim)
        if axis is None:
            return np.zeros((1,) * d)
        size = self.grid.sizes[axis]
        shape = [1] * d
        shape[axis] = -1
        return 1j * (np_fft.fftfreq(size) * size)[self._live_axes[axis]].reshape(shape)

    @cached_property
    def _live_index(self):
        """The live modes' flat indices in the grid, ascending: row-major over their product.

        Built on first read.  Only the numpy.fft gathers and scatters read
        it; on a grid of odd axes it is the
        whole grid, and a flow on DFT matrices never builds it.
        """
        return np.ravel_multi_index(np.ix_(*self._live_axes), self.grid.shape).reshape(-1)

    @cached_property
    def _hermitian(self):
        """``_hermitian_gather`` of the grid, built by the first :meth:`fft` of a real field."""
        return _hermitian_gather(self.grid.sizes)

    @property
    def below_nyquist(self):
        """1.0 on the live modes (no Nyquist index on any even axis), 0.0 elsewhere.

        Every derivative multiplier is zero off the live modes, so the flow
        map cannot see a mode with a Nyquist index; the stepper's update
        keeps ``u`` out of those modes, which makes the normalized limit
        unique.  A grid-sized array, built on each read and not kept: the
        numpy.fft transforms read ``_live_index`` instead.
        """
        keep = np.ones(self.grid.shape)
        for p, size in enumerate(self.grid.sizes):
            if size % 2 == 0:
                index = [slice(None)] * len(self.grid.sizes)
                index[p] = size // 2
                keep[tuple(index)] = 0.0
        return keep

    def _build_tail_live(self):
        """The live modes with |k| >= size / 3 on some axis, in the order of ``_live_index``."""
        d = len(self.grid.sizes)
        tail = np.zeros((1,) * d, dtype=bool)
        for p, (size, live) in enumerate(zip(self.grid.sizes, self._live_axes)):
            shape = [1] * d
            shape[p] = -1
            tail = tail | (np.abs(np_fft.fftfreq(size) * size)[live].reshape(shape) >= size / 3.0)
        return np.broadcast_to(tail, tuple(len(live) for live in self._live_axes)).reshape(-1)

    # -- transforms ---------------------------------------------------

    def fft(self, values):
        """Full FFT; a real field's is gathered from its rfftn, exactly Hermitian."""
        if np.iscomplexobj(values):
            return np_fft.fftn(values)
        index, real = self._hermitian
        h = np_fft.rfftn(values).reshape(-1)
        return np.concatenate([h, h.conj(), h[real].real])[index]

    def ifft(self, hat):
        return np_fft.ifftn(hat)

    def _ifft_into(self, spectrum, out):
        """Inverse transform of a spectrum given on the live modes, into the grid array ``out``.

        The spectrum is a live-mode vector, or one shaped by the live
        indices of each axis.  ``out`` is complex and C-contiguous; it is returned.  Every spectrum
        vanishes off the live modes, as every multiplier times a spectrum
        does: the DFT matrices read the live modes only, numpy.fft transforms
        them scattered into a zero grid.
        """
        if self._live_dft is not None:
            return self._live_idft(spectrum, out)
        full = np.zeros(self.grid.num_points, dtype=complex)
        full[self._live_index] = spectrum.reshape(-1)
        return np_fft.ifftn(full.reshape(self.grid.shape), out=out)

    def _bundle(self, mults, hat, out):
        """Inverse transforms of each multiplier of ``mults`` times ``hat``, into the slots of ``out``.

        One slot at a time: each slot's multiplier, on the live indices of
        each axis and broadcast over the axes it does not vary on, is
        applied to ``hat`` as its turn comes, so no stack of products is
        held; ``mults`` may make each one as its turn comes, too.
        """
        hat = hat.reshape(self._live_shape)
        for mult, slot in zip(mults, out):
            self._ifft_into(mult * hat, slot)
        return out

    def _new_stack(self, size, zero=False):
        """A complex stack of ``size`` grid arrays, zero if asked."""
        return (np.zeros if zero else np.empty)((size,) + self.grid.shape, dtype=complex)

    def live_fft(self, values):
        """The live-mode vector of a real field: its FFT on the live modes.

        A 1-d array in the order of ``_live_index``, row-major over the
        live modes; the mean mode leads.  The DFT matrices transform the
        deviation from the first sample, which is exactly zero for a
        constant field, so a constant's vector is its mean mode alone, as
        numpy.fft gives it.
        """
        if np.iscomplexobj(values):
            raise TypeError("live_fft transforms real fields only")
        if self._live_dft is None:
            return self.fft(values).reshape(-1)[self._live_index]
        shift = values.flat[0]
        hat = self._live_dft(values - shift, np.empty(self._live_count, dtype=complex))
        hat[0] += shift * self.grid.num_points
        return hat

    def live_ifft_real(self, hat):
        """The real field whose live-mode vector is ``hat`` (left intact).

        ``ifft(...).real`` of ``hat`` scattered onto its modes, on either
        backend; for the live-mode vector of a real field the discarded
        imaginary part is rounding.
        """
        return self._ifft_into(hat, np.empty(self.grid.shape, dtype=complex)).real

    # -- first derivatives ---------------------------------------------

    def z_gradient_from_hat(self, hat):
        """u_a for a = 0..2n-1, stacked on a leading axis; ``hat`` as for every bundle."""
        return self._bundle(self._dz, hat, self._new_stack(len(self._dz)))

    # -- second derivatives ---------------------------------------------

    def mixed_hessian_from_hat(self, hat):
        """H[a, b] = d_{z^a} d_{zbar^b} u with entry axes leading.

        ``hat`` must be the live-mode vector of a real field: only the upper
        triangle is transformed, and the rest is filled by the Hermitian
        symmetry H[b, a] = conj(H[a, b]).
        """
        m = 2 * self.n
        entries = [(a, b) for a in range(m) for b in range(a, m)]
        dz, dzbar = self._dz, self._dzbar
        H = np.empty((m, m) + self.grid.shape, dtype=complex)
        self._bundle((dz[a] * dzbar[b] for a, b in entries), hat, [H[a, b] for a, b in entries])
        for a in range(m):
            for b in range(a):
                H[a, b] = np.conj(H[b, a])
        return H

    def s1_from_hat(self, hat):
        """Trace of the mixed Hessian (half the model Laplacian), real part."""
        return self.live_ifft_real(self.s1_live * hat)

    def _live_rows(self, rows, mults, size, hat):
        """The bundle of ``size`` multipliers, of which only those of ``rows``, ``mults``, are not zero.

        Only those rows are transformed, into their slots of the output (see
        ``_bundle``); the others come out zero.
        """
        out = self._new_stack(size, zero=len(rows) < size)
        self._bundle(mults, hat, [out[row] for row in rows])
        return out

    def ddj_upper_s1_from_hat(self, hat):
        """Upper-triangle quaternionic Hessian entries plus its S_1 trace.

        ``hat`` must be the live-mode vector of a real field.  Returns
        (upper, s1) where ``upper`` stacks the (j, k) entries in
        ``self.pairs`` order.  The packed slots' transforms serve the whole
        bundle; the partners are rebuilt by conjugation and
        S_1 is the sum of the blocks.  Entries whose multiplier vanishes on
        the grid are zero.
        """
        return self.unpack_form(self.ddj_slots_from_hat(hat))

    def ddj_slots_from_hat(self, hat):
        """The quaternionic Hessian of a real field, packed as by :meth:`pack_j_real`.

        ``hat`` is the field's live-mode vector.  Parts of a block slot that
        hold no live Hessian block are zero, as :meth:`pack_j_real` leaves
        them, not rounding.
        """
        rows, size = self._ddj_live, self._form_rows[2]  # size: the layout's slot count
        slots = self._live_rows(rows, (self._slot(self._ddj_mult, c) for c in rows), size, hat)
        slots.real[self._ddj_dead_parts[0]] = 0.0
        slots.imag[self._ddj_dead_parts[1]] = 0.0
        return slots

    def pack_j_real(self, upper):
        """Packed slots of a J-real form, in the layout of every bundle.

        Every entry is packed, also where no multiplier of the grid reaches.
        ``upper`` holds the (j, k) entries in ``self.pairs`` order: a stack,
        or a sequence of grid arrays such as views of a form's entries, read
        one entry at a time.  Raises SpecValidationError unless each partner
        entry equals sign * conj of its entry and the blocks are real, to
        1e-12 of the largest entry.
        """
        entries, partners, signs, real_blocks, imag_blocks = self._form_layout
        defect = max(
            _max_abs(upper[p] - sign * np.conj(upper[e]) for e, p, sign in zip(entries, partners, signs)),
            _max_abs(upper[b].imag for b in (*real_blocks, *imag_blocks)),
        )
        if not defect <= 1e-12 * _max_abs(upper):
            raise SpecValidationError(f"the background form is not J-real (defect {defect:.3e})")
        slots = np.zeros((len(entries) + len(real_blocks),) + np.shape(upper[0]), dtype=complex)
        for c, slot in enumerate(slots):
            slot[...] = self._slot(upper.__getitem__, c)
        return slots

    def packed_form_from_hat(self, packed_base, hat):
        """``packed_base`` plus the packed (S_1(ddj u) Omega - ddj u) / (n - 1).

        ``packed_base`` comes from :meth:`pack_j_real`; ``hat`` must be the
        live-mode vector of a real field.  Only the slots with a non-zero
        multiplier are transformed, and the base is added into their output.
        """
        slots = self._live_rows(*self._form_rows, hat)
        slots += packed_base
        return slots

    def unpack_form(self, packed):
        """Upper-triangle entries and S_1 (the sum of the blocks) of packed slots."""
        entries, partners, signs, real_blocks, imag_blocks = self._form_layout
        upper = np.empty((len(self.pairs),) + packed.shape[1:], dtype=complex)
        c = len(entries)
        upper[entries] = packed[:c]
        upper[partners] = signs * np.conj(packed[:c])
        real, imag = packed[c:].real, packed[c : c + len(imag_blocks)].imag
        upper[real_blocks] = real
        upper[imag_blocks] = imag
        return upper, real.sum(axis=0) + imag.sum(axis=0)

    def slot_terms(self, packed):
        """S_1, S_2, the blocks and w of a J-real form packed as by :meth:`pack_j_real`.

        S_1 and S_2 are the first two elementary symmetric functions of the
        block eigenvalues, read off the slots for every n: S_1 is the sum of
        the blocks b, and S_2 = e_2(b) - w, w the sum of |p|^2 over the pair
        slots p, since the positivity matrix M has every block eigenvalue
        twice and tr M^2 = 2 sum b^2 + 4 w.  For n = 2, S_2 is the Pfaffian
        and w the squared norm of the one off-diagonal quaternion.  The
        blocks come as views of ``packed``, in slot order.
        """
        entries, _, _, _, imag_blocks = self._form_layout
        c = len(entries)
        blocks = [*packed[c:].real, *packed[c : c + len(imag_blocks)].imag]
        s1, s2 = blocks[0], None
        for b in blocks[1:]:  # n >= 2 blocks, n (n - 1) >= 2 pair slots
            s2 = b * s1 if s2 is None else s2 + b * s1
            s1 = s1 + b
        w = norm = square = None  # the first pair's norm starts w; the others share one buffer
        for p in packed[:c]:
            norm = np.multiply(p.real, p.real, out=norm)
            square = np.multiply(p.imag, p.imag, out=square)
            norm += square
            s2 -= norm
            if w is None:
                w, norm = norm, None
            else:
                w += norm
        return s1, s2, blocks, w

    def quaternion_slots(self, packed):
        """(a, z, s) of :func:`model.quaternion_entries`, read off packed slots.

        The blocks ``a`` come out real.  The pair slots hold the entries
        (2i, k), k > 2i + 1, in ``pairs`` order: for the block pairs i < j in
        lexicographic order, s = (2i, 2j) and then z = (2i, 2j + 1).  So
        ``z`` and ``s`` are every other pair slot, views of ``packed``.
        """
        c = len(self._form_layout[0])
        blocks = np.concatenate((packed[c:].real, packed[c : c + len(self._form_layout[4])].imag))
        return blocks[self._block_order], packed[1:c:2], packed[0:c:2]

    def zbar_gradient_batched_from_hat(self, hat):
        """u_{abar} for a = 0..2n-1, stacked on a leading axis.

        ``hat`` must be the live-mode vector of a real field; entries whose
        multiplier vanishes on the grid are zero and not transformed.
        """
        rows = self._zbar_live
        return self._live_rows(rows, [self._dzbar[a] for a in rows], len(self._dzbar), hat)

    @cached_property
    def _half_derivatives(self):
        """Half of each active real axis's differentiation matrix, as the operand of one product.

        (real, imag): the axes of the coordinates x^d with d < 2n, whose
        half derivatives are the real parts of the z-bar derivatives, and
        those with d >= 2n, their imaginary parts, each in axis order.  An
        entry (shape, matrix, left) multiplies the grid, reshaped to
        ``shape``, by ``matrix`` from the left if ``left``, else from the
        right.  For axis p of N points with A points on the axes before it
        and B after: the last axis (B = 1), and any axis with N B at most
        DERIVATIVE_KRON_MAX_ORDER, take (A, N B) times kron(D, I_B)^T, one
        product of a wide array; the others take D times (A, N, B), one
        small product per leading index.  Built on first read; each matrix
        holds at most max(N, DERIVATIVE_KRON_MAX_ORDER)^2 floats.
        """
        sizes = self.grid.sizes
        parts = ([], [])
        for p, (size, dim) in enumerate(zip(sizes, self.grid.active_dims)):
            half = 0.5 * differentiation_matrix(size)
            before, after = math.prod(sizes[:p]), math.prod(sizes[p + 1 :])
            if after == 1 or size * after <= DERIVATIVE_KRON_MAX_ORDER:
                product = ((before, size * after), np.kron(half, np.eye(after)).T.copy(), False)
            else:
                product = ((before, size, after), half, True)
            parts[dim >= 2 * self.n].append(product)
        return parts

    def zbar_gradient_norm2(self, values):
        """sum_a |u_{abar}|^2 at every grid point, the squared norm of the z-bar gradient of a real field.

        For real u, u_{abar} = (d_a u + i d_{2n+a} u) / 2, so the sum is
        that of (d u / dx / 2)^2 over the active real axes, each half
        derivative one matrix product on the grid (``_half_derivatives``)
        and no transform.  The squares of the real parts' axes are summed
        in axis order, then the imaginary parts', and the two sums added,
        the order of a sum over the z-bar derivatives.  ``values`` must be
        a field on the live modes: a differentiation matrix zeroes the
        Nyquist mode as every multiplier does, but it reads position space,
        where content on a mode with a Nyquist index on one axis reaches the
        derivative along another.  On such a field (the flow's state, whose
        start is checked to be below Nyquist and whose every update is
        projected there) this is the spectral norm of
        :meth:`zbar_gradient_batched_from_hat`'s stack to rounding.
        """
        values = np.asarray(values, dtype=float)
        # one scratch block: the field less its first sample, so that a
        # constant differentiates to exactly zero, a square and a second sum
        shifted, part, second = np.empty((3,) + self.grid.shape)
        np.subtract(values, values.flat[0], out=shifted)

        def add_squares(products, total):
            """Sum the squared half derivatives of ``products`` into ``total``; False if there is none."""
            for k, (shape, matrix, left) in enumerate(products):
                out = part if k else total
                operands = (matrix, shifted.reshape(shape)) if left else (shifted.reshape(shape), matrix)
                np.matmul(*operands, out=out.reshape(shape))
                out *= out
                if k:
                    total += part
            return bool(products)

        real, imag = self._half_derivatives
        result = np.empty(self.grid.shape)
        if not add_squares(real, result):
            add_squares(imag, result)
        elif add_squares(imag, second):
            result += second
        return result

    # -- diagnostics ----------------------------------------------------

    def spectral_tail(self, hat) -> float:
        """Energy fraction carried by the top third of the live modes.

        ``hat`` is a live-mode vector.  The mean mode, which leads it, is
        excluded from the reference energy so a large additive constant
        cannot mask tail growth.  Returns 0 for fields with no non-mean
        content, and on grids where the top third holds no live mode (every
        axis of 2 or 4 points, such as 4^8).  On a grid whose axes all have
        3 points it returns 1 up to rounding for every field with non-mean
        content: there the top third, |k| >= 1, is every non-mean mode.
        """
        power = np.abs(hat) ** 2
        total = float(power.sum() - power[0])
        if total <= 0.0:
            return 0.0
        return float(power[self._tail_live].sum() / total)


_SPECTRAL_CACHE: dict = {}


def spectral_ops(grid: TorusGrid) -> SpectralOps:
    ops = _SPECTRAL_CACHE.get(grid)
    if ops is None:
        ops = SpectralOps(grid)
        _SPECTRAL_CACHE[grid] = ops
    return ops


# -- two-form fields -------------------------------------------------------


@dataclass
class PackedTwoForm:
    """A J-real (2,0)-form field held on the packed slots of its grid.

    ``slots`` is in the layout of :meth:`SpectralOps.pack_j_real`: one
    complex slot per partner pair, then the real blocks two per slot, so
    the form takes n(n-1) + ceil(n/2) grid arrays instead of (2n)^2.  A
    packed form is J-real by construction; it is the one type of a form
    field.  ``entries`` expands the full (2n, 2n) + grid array, entry axes
    leading, on every read and keeps nothing.
    """

    grid: TorusGrid
    slots: np.ndarray

    def __post_init__(self):
        n = self.grid.n
        self.slots = np.asarray(self.slots, dtype=complex)
        shape = (n * (n - 1) + (n + 1) // 2,) + self.grid.shape
        if self.slots.shape != shape:
            raise SpecValidationError(
                f"packed form shape {self.slots.shape} does not match {shape}"
            )

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def entries(self) -> np.ndarray:
        upper, _ = spectral_ops(self.grid).unpack_form(self.slots)
        return full_from_upper(upper, 2 * self.n)

    def j_reality_defect(self) -> float:
        return j_reality_defect(self.entries, self.n)


def constant_two_form_field(grid: TorusGrid, matrix) -> PackedTwoForm:
    """The constant form ``matrix`` at every grid point, packed from broadcast views of its entries.

    Raises SpecValidationError unless ``matrix`` is (2n, 2n) and J-real (see
    :meth:`SpectralOps.pack_j_real`); the full (2n, 2n) + grid array is never built.
    """
    m = 2 * grid.n
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (m, m):
        raise SpecValidationError(f"constant form shape {matrix.shape} does not match ({m}, {m})")
    ops = spectral_ops(grid)
    return PackedTwoForm(grid, ops.pack_j_real([np.broadcast_to(matrix[j, k], grid.shape) for j, k in ops.pairs]))


def build_omega_h(
    model: TorusModel,
    grid: TorusGrid,
    c: float,
    rho: TrigPolySpec | None = None,
    margin: float = 1e-10,
) -> PackedTwoForm:
    """Background form c * Omega + ddj(rho) on packed slots, verified strictly positive.

    J-reality is automatic: the standard form is J-real and so is the
    quaternionic Hessian of any real function, and the form is built on
    the packed slots, c added to the block parts of ddj(rho)'s; it is never
    expanded to the full array.  A form with an entry of
    float_max^(1/n) / (2n) or more in size is rejected first: its S_n may
    overflow.  Positivity is then checked at every grid point by the flow
    map's own test on the slots (``flow.packed_block_terms``); a violation
    reports the offending point and the minimum eigenvalue there.
    """
    from .flow import packed_block_terms  # flow imports this module

    if grid.n != model.n:
        raise SpecValidationError("grid and model dimensions differ")
    if not c > 0:
        raise SpecValidationError(f"background scale c must be positive, got {c}")
    ops = spectral_ops(grid)
    entries, _, _, real_blocks, imag_blocks = ops._form_layout
    c_pairs = len(entries)
    if rho is not None and rho.terms:
        slots = ops.ddj_slots_from_hat(ops.live_fft(sample(rho, grid).values))
    else:
        slots = np.zeros((c_pairs + len(real_blocks),) + grid.shape, dtype=complex)
    slots.real[c_pairs:] += c  # Omega is 1 on every block
    slots.imag[c_pairs : c_pairs + len(imag_blocks)] += c
    # S_n and the closed forms of the positivity test sum products of n
    # entries; each stays below (2n max|entry|)^n.  A pair slot is as large
    # as its entry, a block as its real or imaginary part.
    largest = max(_max_abs(slots[:c_pairs]), _max_abs([*slots[c_pairs:].real, *slots[c_pairs:].imag]))
    limit = np.finfo(float).max ** (1.0 / model.n) / (2 * model.n)
    if not largest < limit:
        raise SpecValidationError(
            f"the background form overflows: its largest entry is {largest:.3e}, above "
            f"{limit:.3e}, the bound that keeps S_n, a product of n = {model.n} block "
            "eigenvalues, finite"
        )
    lam_min, *_ = packed_block_terms(ops, slots)
    require_positive_minimum(lam_min, margin, "the background form")
    return PackedTwoForm(grid, slots)

"""Helpers shared by the tests: full-grid multiplier oracles, traced memory peaks, the bundles'
multipliers stacked, stacked and per-slot transforms and the per-call wedge."""

import tracemalloc

import numpy as np

from qmaflow.exterior import ExteriorElement, _lift, _parity_above, _parity_below, _sorted_unique


def full_grid_multipliers(ops):
    """(z, zbar, s1): the first-derivative multipliers and S_1's on the full FFT grid.

    With z^a = x^a + i x^{2n+a}, d/dz^a = (d/dx^a - i d/dx^{2n+a}) / 2 and
    d/dzbar^a = (d/dx^a + i d/dx^{2n+a}) / 2; S_1 is the sum of the products
    d/dz^a d/dzbar^a.  Every multiplier is zero off ``ops.below_nyquist``.
    ``z`` and ``zbar`` are lists of 2n grid-shaped arrays.
    """
    grid = ops.grid
    wavenumbers = np.meshgrid(*[np.fft.fftfreq(size) * size for size in grid.sizes], indexing="ij")

    def ik(real_dim):
        axis = grid.axis_of(real_dim)
        return np.zeros(grid.shape) if axis is None else 1j * wavenumbers[axis]

    m = 2 * grid.n
    z = [ops.below_nyquist * 0.5 * (ik(a) - 1j * ik(m + a)) for a in range(m)]
    zbar = [ops.below_nyquist * 0.5 * (ik(a) + 1j * ik(m + a)) for a in range(m)]
    s1 = sum(za * zba for za, zba in zip(z, zbar)).real
    return z, zbar, s1


def full_mixed_hessian(ops, values):
    """H[a, b] = d_{z^a} d_{zbar^b} of a real field, every entry by numpy.fft on the full grid.

    The spectrum is ``ops.fft``'s, exactly Hermitian; no entry is read off
    another by symmetry, so the result is Hermitian in (a, b) only to rounding.
    """
    z, zbar, _ = full_grid_multipliers(ops)
    spectrum = ops.fft(values)
    return np.array([[np.fft.ifftn(za * zb * spectrum) for zb in zbar] for za in z])


def traced(fn):
    """``fn()``, the peak of the memory tracemalloc traced during it and what it held at its end.

    Both are in bytes above the memory traced at its start.
    """
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        out = fn()
        end, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return out, peak - start, end - start


def traced_peak(fn):
    """``fn()`` and the peak of the memory tracemalloc traced during it, above its start, in bytes."""
    out, peak, _ = traced(fn)
    return out, peak


# -- the stacked transforms: every slot of a bundle in one transform -----------------


def _stacked_dft(operands, x):
    """``x``'s grid axes (leading) transformed by the group matrices, its batch axes carried along."""
    for operand in operands:
        x = x.reshape(len(operand), -1).T @ operand
        if x.dtype != complex:  # the real first product of the forward transform
            x = x.view(complex)
    return x


def stacked_inverse(ops, live):
    """Inverse transforms of a (slots, live) stack of spectra, all slots in one transform."""
    shape = (len(live),) + ops.grid.shape
    if ops._live_dft is not None:
        return _stacked_dft(ops._live_idft._operands, live.T).reshape(shape)
    full = np.zeros((len(live), ops.grid.num_points), dtype=complex)
    full[:, ops._live_index] = live
    return np.fft.ifftn(full.reshape(shape), axes=tuple(range(1, len(shape))))


def per_slot_inverse(ops, live):
    """Inverse transforms of a (slots, live) stack of spectra, each slot in a transform of its own.

    On a grid of one DFT group a slot alone is a vector-matrix product,
    which BLAS may round otherwise than the matrix product of a stack.
    """
    return np.stack([stacked_inverse(ops, row[None])[0] for row in live])


def stacked_live_fft(ops, values):
    """The live-mode vector of a real field, by the whole-array forward transform."""
    if ops._live_dft is None:
        return ops.fft(values).reshape(-1)[ops._live_index]
    shift = values.flat[0]
    hat = _stacked_dft(ops._live_dft._operands, values - shift).ravel()
    hat[0] += shift * ops.grid.num_points
    return hat


def live_rows(ops, kind):
    """(rows, multipliers, size) of the bundle ``kind`` of ``ops``, its multipliers stacked on the live modes.

    ``kind`` is "z" or "zbar" (the first derivatives), "ddj" (the Hessian's
    packed slots) or "form" (the flow's); only the ``rows`` of the
    ``size`` of a bundle whose multiplier is not zero are listed, each made
    by ``ops``'s own expression and stacked flat, in the order of the
    live-mode vector.  ``ops`` keeps only the form's stack.
    """
    m = 2 * ops.n
    if kind == "form":
        rows, stack, size = ops._form_rows
        return rows, stack.reshape(len(rows), -1), size
    if kind == "z":
        rows, mults, size = range(m), ops._dz, m
    elif kind == "zbar":
        rows, mults, size = ops._zbar_live, [ops._dzbar[a] for a in ops._zbar_live], m
    else:
        rows, size = ops._ddj_live, ops._form_rows[2]
        mults = [ops._slot(ops._ddj_mult, c) for c in rows]
    stack = np.empty((len(rows), ops._live_count), dtype=complex)
    for row, mult in zip(stack, mults):
        row[...] = np.broadcast_to(mult, ops._live_shape).reshape(-1)
    return list(rows), stack, size


def stacked_rows(ops, nonzero_rows, hat, inverse=stacked_inverse):
    """A bundle from ``(rows, multipliers, size)``: the stack of products by ``inverse``, zero elsewhere."""
    rows, stack, size = nonzero_rows
    out = np.zeros((size,) + ops.grid.shape, dtype=complex)
    out[rows] = inverse(ops, stack * hat)
    return out


def stacked_gradient_norm2(ops, hat, inverse=stacked_inverse):
    """sum_a |u_{abar}|^2 from the whole z-bar gradient stack, real and imaginary squares summed apart.

    The spectral oracle: every derivative is a transform of ``hat``.
    """
    g = stacked_rows(ops, live_rows(ops, "zbar"), hat, inverse)
    v = g.reshape(len(g), -1).view(float)
    sums = np.einsum("ij,ij->j", v, v)
    return (sums[0::2] + sums[1::2]).reshape(ops.grid.shape)


def stacked_axis_gradient_norm2(ops, values):
    """sum_a |u_{abar}|^2 from the stacks of every half axis derivative of a real field.

    Each derivative is made with ``ops``'s matrices and products
    (``SpectralOps._half_derivatives``) from the field less its first
    sample; the squares of each stack, the real parts' axes and then the
    imaginary parts', are summed in axis order and the two sums added.
    """
    shifted = values - values.flat[0]
    sums = []
    for products in ops._half_derivatives:
        stack = [
            (matrix @ shifted.reshape(shape) if left else shifted.reshape(shape) @ matrix).reshape(ops.grid.shape)
            for shape, matrix, left in products
        ]
        total = 0.0
        for d in stack:
            total = total + d * d
        sums.append(total)
    return sums[0] + sums[1]


# -- the wedge that derives its structural tables on every call -----------------


def wedge_per_call(a, b):
    """``a ^ b`` as the exterior algebra computed it before wedge plans were cached.

    Every call finds, per term of the shorter factor, the longer factor's
    disjoint keys, their output slots and merge signs; the plan-cached
    ``ExteriorElement.wedge`` must give the same keys and coefficients, bit
    for bit.
    """
    if a.keys.size <= b.keys.size:
        short, long, flips = a, b, _parity_above(a.keys)
    else:
        short, long, flips = b, a, _parity_below(b.keys)
    hits = [np.flatnonzero((long.keys & key) == 0) for key in short.keys]
    parts = [long.keys[idx] | key for idx, key in zip(hits, short.keys)]
    keys = _sorted_unique(np.concatenate(parts)) if parts else short.keys
    shape = np.broadcast_shapes(short.stack.shape[1:], long.stack.shape[1:])
    long_stack = _lift(long.stack, len(shape))
    out = np.zeros((keys.size,) + shape, dtype=np.result_type(short.stack, long.stack))
    axes = (1,) * len(shape)
    for idx, part, key, flip, coeff in zip(hits, parts, short.keys, flips, short.stack):
        odd = np.bitwise_count((part ^ key) & flip) & 1
        term = long_stack[idx] * coeff
        np.negative(term, out=term, where=odd.view(bool).reshape(odd.shape + axes))
        out[np.searchsorted(keys, part)] += term
    return ExteriorElement._of(a.n_gen, keys, out)

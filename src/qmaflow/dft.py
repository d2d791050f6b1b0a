"""Live-mode DFT matrices and the Hermitian gather of a real field's FFT.

``_KroneckerDft`` transforms between a grid and a chosen set of modes per
axis by one matrix product per group of adjacent axes, each group's matrix
the Kronecker product of its axes' DFT matrices, a group closed once it
keeps DFT_GROUP_MIN_LIVE live modes (:func:`_axis_groups`);
``fields.SpectralOps`` uses a forward and inverse pair of them
(``_kronecker_pair``) on grids of short axes, restricted to the modes
below Nyquist.
``_hermitian_gather`` is the index that fills rfftn's half spectrum out to
the full FFT of a real field by conjugation.
"""

from __future__ import annotations

import math

import numpy as np

DFT_GROUP_MIN_LIVE = 8  # a group of adjacent axes closes once it keeps this many live modes


def _axis_groups(sizes):
    """Runs of adjacent axes, each closed once it keeps DFT_GROUP_MIN_LIVE live modes.

    An axis of N points keeps N - 1 live modes if N is even, N if odd.  The
    rule counts what a group's matrix keeps, not its points: 4^8 and 3^k
    pair their axes (9 live modes of 16 or 9 points), 8x8 is one group (49
    of 64), 8^3 and 8^4 pair their axes and 16x16 keeps one axis per group.
    A cap on points small enough to pair 4^8's axes would split 8x8 in two.
    A run of axes that never reaches the count, such as the whole of 2^8
    (one live mode per axis), is one group; so are the last axes if they
    fall short.
    """
    groups, live = [[]], 1
    for p, size in enumerate(sizes):
        if live >= DFT_GROUP_MIN_LIVE:
            groups.append([])
            live = 1
        groups[-1].append(p)
        live *= size - 1 + size % 2
    return groups


def _hermitian_gather(sizes):
    """(index, real) such that ``concatenate([h, conj(h), h[real].real])[index]``
    is the FFT of a real field whose raveled rfftn is h.

    The last axis p on which 2 k_p is not 0 mod size_p decides: mode k reads
    conj(h) at -k iff k_p > size_p / 2, else h at k, which rfftn holds; a
    mode with no such axis is its own mirror and reads the real part of h.
    """
    half_sizes = sizes[:-1] + (sizes[-1] // 2 + 1,)
    strides = np.cumprod((1,) + half_sizes[:0:-1])[::-1]  # row-major, of h
    mirrored = np.zeros(sizes, dtype=bool)
    self_mirror = np.ones(sizes, dtype=bool)
    own = mirror = 0
    for p, (size, stride) in enumerate(zip(sizes, strides)):
        k = np.arange(size).reshape((-1,) + (1,) * (len(sizes) - p - 1))
        mirrored = np.where(2 * k % size == 0, mirrored, 2 * k > size)
        self_mirror &= 2 * k % size == 0
        own = own + k * stride
        mirror = mirror + (-k % size) * stride
    h_size = math.prod(half_sizes)
    index = np.where(mirrored, mirror + h_size, own)
    real = own[self_mirror]
    index[self_mirror] = 2 * h_size + np.arange(len(real))
    return index, real


def _product_shapes(ins, outs):
    """Each group product's result for one array, in complex numbers: the
    groups still to do at their input length ``ins``, then the groups done
    at their output length ``outs``."""
    return [(math.prod(ins[k + 1 :]) * math.prod(outs[:k]), outs[k]) for k in range(len(ins))]


def _scratch_lengths(ins, outs):
    """The lengths of the two scratch buffers that take every product but
    the last, in turn."""
    lengths = [math.prod(shape) for shape in _product_shapes(ins, outs)[:-1]]
    return [max(lengths[k::2], default=0) for k in (0, 1)]


def _kronecker_pair(sizes, modes):
    """The forward and inverse :class:`_KroneckerDft` between a grid of
    ``sizes`` and its ``modes``, sharing one pair of scratch buffers sized
    for both."""
    groups = _axis_groups(sizes)
    points = [math.prod(sizes[p] for p in group) for group in groups]
    kept = [math.prod(len(modes[p]) for p in group) for group in groups]
    lengths = zip(_scratch_lengths(points, kept), _scratch_lengths(kept, points))
    scratch = [np.empty(max(pair), dtype=complex) for pair in lengths]
    return _KroneckerDft(sizes, modes, False, scratch), _KroneckerDft(sizes, modes, True, scratch)


class _KroneckerDft:
    """A multidimensional DFT as one matrix per group of adjacent axes.

    ``modes`` holds, per axis, the mode indices the transform keeps: the
    forward transform returns only those modes, the inverse reads only
    them.  A group's matrix is the Kronecker product of its axes' DFT
    matrices (row-major, so it acts on the group's axes flattened in
    place).  Each product contracts the leading group and moves it behind
    the rest, so after one product per group the axes are back in order.

    The forward transform takes real input: its first matrix is real, each
    mode's cos and sin columns interleaved, so the first product is real
    arithmetic and its result is the complex one, viewed without a copy.

    A call transforms one array: every group product but the last is
    written into one of two scratch buffers, ``scratch``, in turn, and the
    last into the caller's output, so a transform holds no array that it
    returns.  :func:`_kronecker_pair` gives the forward and inverse
    transforms of a grid one pair of buffers, since they never run at
    once.  A transform of one group (:func:`_axis_groups`) is a single
    vector-matrix product.
    """

    def __init__(self, sizes, modes, inverse: bool, scratch):
        self._operands = []
        for group in _axis_groups(sizes):
            mat = np.ones((1, 1))
            for p in group:
                size = sizes[p]
                phase = np.outer(modes[p], np.arange(size)) % size  # exact integers
                forward = np.exp(-2j * np.pi / size * phase)  # mode x position
                mat = np.kron(mat, forward.conj().T / size if inverse else forward)
            self._operands.append(np.ascontiguousarray(mat.T))  # right operand
        *shapes, self._last_shape = _product_shapes(
            [len(mat) for mat in self._operands], [mat.shape[1] for mat in self._operands]
        )
        self._scratch = scratch
        self._results = [scratch[k % 2][: math.prod(shape)].reshape(shape) for k, shape in enumerate(shapes)]
        if not inverse:
            first = self._operands[0]
            self._operands[0] = np.stack([first.real, first.imag], axis=-1).reshape(len(first), -1)
        # what each product writes: the real first product, (re, im) pairs
        self._targets = [result.view(mat.dtype) for result, mat in zip(self._results, self._operands)]

    def __call__(self, x, out):
        """Transform ``x``, the grid axes raveled or not, into ``out`` and return it.

        ``out`` holds the transformed axes; it must be C-contiguous and share
        no memory with ``x``.
        """
        *firsts, last = self._operands
        if firsts:
            for operand, target, result in zip(firsts, self._targets, self._results):
                np.matmul(x.reshape(len(operand), -1).T, operand, out=target)
                x = result
            x = x.reshape(len(last), -1).T
        else:
            x = x.reshape(-1, len(last))
        np.matmul(x, last, out=out.reshape(len(x), self._last_shape[1]).view(last.dtype))  # real: (re, im) pairs
        return out

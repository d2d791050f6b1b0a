"""Helpers shared by the tests: full-grid multiplier oracles and traced memory peaks."""

import tracemalloc

import numpy as np


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


def traced_peak(fn):
    """``fn()`` and the peak of the memory tracemalloc traced during it, above its start, in bytes."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return out, peak - start

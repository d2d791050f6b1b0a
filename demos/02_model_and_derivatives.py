"""The flat model: J calibration, spectral derivatives, positivity.

Shows the three convention-pinning identities (J-reality of the standard
form, identity positivity matrix, the half-Laplacian as the trace of the
quaternionic Hessian) and the exactness of the Fourier derivative layer.
"""

import numpy as np

from qmaflow import (
    TorusGrid,
    TrigPolySpec,
    TrigTerm,
    build_model,
    build_omega_h,
    del_del_j,
    half_laplacian,
    j_reality_defect,
    positivity_matrix,
    s1_field,
    sample,
    standard_form,
)
from qmaflow.fields import spectral_ops

n = 2
model = build_model(n)
omega = standard_form(n)
print("J-reality defect of the standard form:", j_reality_defect(omega, n))
print("positivity matrix of the standard form:\n", positivity_matrix(omega, n).real)

# a reduced grid on the z^0 plane (real coordinates x^0 and x^4)
grid = TorusGrid(n=n, active_dims=(0, 4), sizes=(64, 64))
u = sample(TrigPolySpec.from_terms([TrigTerm((1, 0), 1.0)]), grid)

ops = spectral_ops(grid)
x0 = grid.coordinates()[0]
dz0 = ops.z_gradient_from_hat(ops.live_fft(u.values))[0]
print("\nd/dz0 cos(x0) vs -sin(x0)/2:", np.max(np.abs(dz0 + 0.5 * np.sin(x0))))

hl = half_laplacian(u)
print("half-Laplacian of cos(x0) vs -cos(x0)/4:", np.max(np.abs(hl.values + 0.25 * np.cos(x0))))

dd = del_del_j(u)
print("quaternionic Hessian J-reality defect:", dd.j_reality_defect())
print("S_1 of the Hessian equals the half-Laplacian:",
      np.max(np.abs(s1_field(dd).values - hl.values)))

# background forms are verified strictly positive on construction
rho = TrigPolySpec.from_terms([TrigTerm((1, 0), 0.05)])
oh = build_omega_h(model, grid, 1.0, rho)
print("\nbackground form built; J-reality defect:", oh.j_reality_defect())
try:
    build_omega_h(model, grid, 1.0, TrigPolySpec.from_terms([TrigTerm((1, 0), 10.0)]))
except Exception as exc:
    print("oversized perturbation rejected:", exc)

"""Numerical quaternionic Monge-Ampère flow on flat hyperkähler tori.

A numpy library (plus a small CLI) that integrates the parabolic flow of
the Monge-Ampère equation for (n-1)-quaternionic plurisubharmonic
potentials on the flat torus, with exact exterior algebra underneath and
a randomized verification suite for every identity the solver relies on.
"""

from .errors import PositivityError, SpecValidationError, StiffnessError
from .exterior import ExteriorElement, pfaffian, perfect_matchings, s_m, top_quotient
from .fields import (
    PackedTwoForm,
    ScalarField,
    TorusGrid,
    TrigPolySpec,
    TrigTerm,
    build_omega_h,
    constant_two_form_field,
    sample,
    spectral_ops,
)
from .flow import (
    DiagnosticsRecord,
    FlowEngine,
    FlowState,
    SteadyResult,
    cfl_dt,
    monitor_maximum_principle,
    normalize,
    run_to_steady,
    step,
)
from .model import (
    TorusModel,
    block_eigenvalues,
    build_model,
    is_strictly_positive,
    j_conjugate_one_one,
    j_conjugate_two_form,
    j_reality_defect,
    min_positivity_eigenvalue,
    positivity_matrix,
    standard_form,
)
from .operators import (
    RealOneOneForm,
    apply_linearized,
    d_j,
    del_del_j,
    flow_form,
    flow_rhs,
    gradient_energy,
    gradient_energy_wedge,
    half_laplacian,
    induced_metric_form,
    induced_metric_form_real_path,
    s1_field,
)
from .verify import (
    IdentityReport,
    ManufacturedProblem,
    OrderCheckResult,
    build_manufactured,
    fit_exponential_decay,
    linearization_order_check,
    run_identity_suite,
)

__version__ = "0.1.0"

__all__ = [
    "PositivityError",
    "SpecValidationError",
    "StiffnessError",
    "ExteriorElement",
    "pfaffian",
    "perfect_matchings",
    "s_m",
    "top_quotient",
    "PackedTwoForm",
    "ScalarField",
    "TorusGrid",
    "TrigPolySpec",
    "TrigTerm",
    "build_omega_h",
    "constant_two_form_field",
    "sample",
    "spectral_ops",
    "DiagnosticsRecord",
    "FlowEngine",
    "FlowState",
    "SteadyResult",
    "cfl_dt",
    "monitor_maximum_principle",
    "normalize",
    "run_to_steady",
    "step",
    "TorusModel",
    "block_eigenvalues",
    "build_model",
    "is_strictly_positive",
    "j_conjugate_one_one",
    "j_conjugate_two_form",
    "j_reality_defect",
    "min_positivity_eigenvalue",
    "positivity_matrix",
    "standard_form",
    "RealOneOneForm",
    "apply_linearized",
    "d_j",
    "del_del_j",
    "flow_form",
    "flow_rhs",
    "gradient_energy",
    "gradient_energy_wedge",
    "half_laplacian",
    "induced_metric_form",
    "induced_metric_form_real_path",
    "s1_field",
    "IdentityReport",
    "ManufacturedProblem",
    "OrderCheckResult",
    "build_manufactured",
    "fit_exponential_decay",
    "linearization_order_check",
    "run_identity_suite",
]

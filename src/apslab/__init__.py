"""apslab: a desk-scale laboratory for spectral boundary conditions on cylinders.

Eigenmode bases, hybrid trace norms, graph-form boundary conditions with
adjoints and deformations, closed-form cylinder solves, and exact integer
Fredholm indices with truncation certificates.
"""

from .spectral_core import (
    BasisMismatchError,
    BoundarySection,
    EigenmodeBasis,
    Interval,
    Mode,
    SigmaZero,
    beta_pairing,
    check_norm,
    hat_norm,
    l2_pairing,
    norm_equivalence_probe,
    project,
    random_section,
    sobolev_norm,
)
from .expoly import Profile, first_order_solve
from .boundary_conditions import (
    BoundaryCondition,
    ConditionError,
    ModeMap,
    adjoint,
    complement_condition,
    deform,
    make_chiral,
    make_generalized_aps,
    make_transmission,
    pseudo_local_check,
    quotient_dim,
    seeded_graph_condition,
)
from .cylinder_solver import (
    CylinderProblem,
    CylinderSection,
    SolveResult,
    SolverError,
    adjoint_problem,
    energy_identity_residual,
    extension_apply,
    extension_bound_probe,
    greens_residual,
    model_adjoint_apply,
    model_apply,
    ode_bound_check,
    riso_residual,
    s0_apply,
    solve_bvp,
)
from .index_calculus import (
    CertificateError,
    ClosedSubspace,
    FredholmPairReport,
    IndexReport,
    PairHypothesisError,
    aps_shift_check,
    chiral_block_basis,
    cobordism_check,
    deformation_sweep,
    fredholm_pair,
    graph_index_check,
    index,
    pair_index_identity_check,
    split_check,
)

__version__ = "0.1.0"

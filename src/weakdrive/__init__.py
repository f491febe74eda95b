"""Steady states and bipartite entanglement of weakly driven atom ensembles.

Lengths are in units of 1/k0, rates in units of the single-atom decay
rate, and the drive strength is eta = Omega / (2 Gamma).
"""

__version__ = "0.1.0"

from .coupling import CouplingMatrix, coupling_matrix, pair_coupling
from .errors import (
    AsymmetricCouplingError,
    CapExceededError,
    CoincidentAtomsError,
    ConfigError,
    DuplicatePositionError,
    IlluminatedAtomError,
    PartitionError,
    PropagationError,
    ResonantSingularityError,
    SolverConvergenceError,
    ThresholdNotApplicableError,
    WeakdriveError,
)
from .exact import (
    DiluteProductState,
    Liouvillian,
    build_liouvillian,
    dilute_product_state,
    negativity_exact,
    propagate_truncated,
    reduce_state,
    steady_state_exact,
)
from .farfield import (
    FarFieldConfig,
    bound_omega,
    build_V_farfield,
    farfield_config,
    farfield_parameters,
    lmin_bound,
    nmax_analytic,
    quartic_spectrum,
    v_dark,
    v_dilute,
)
from .geometry import (
    Drive,
    Ensemble,
    MaskedBeam,
    Partition,
    PlaneWave,
    RegimeReport,
    explicit_ensemble,
    lattice_ensemble,
    random_ensemble,
    regime_check,
    to_physical,
)
from .negativity import (
    NegativityReport,
    PartialTransposeMatrix,
    VOperator,
    build_pt_matrix,
    build_V,
    eta_sign_change,
    lambda2_spectrum,
    lambda4_dilute,
    negativity_model,
    negativity_report,
    pt_negativity,
    threshold_omega,
)
from .perturbation import (
    PerturbState,
    assemble_state,
    pair_correlation,
    restrict_state,
    solve_u,
    solve_v,
    steady_state,
)

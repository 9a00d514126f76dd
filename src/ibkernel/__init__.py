"""Immersed-boundary kernel weights via constrained quadratic minimization.

Construct moving-least-squares kernels as minimizers of
equality-constrained QPs, whose closed form is Ψ = W Aᵀ(A W Aᵀ)⁻¹p,
restrict their support to one side of an interface, bound the weights
with a dual active-set box-QP solver, build Peskin-style four-point
kernels per axis in closed form, and drive the whole machinery through
grid interpolation/spreading operators and a reproducible
circular-interface experiment.
"""

from .errors import (
    DegenerateDomain,
    IBKernelError,
    Infeasible,
    InsufficientSupport,
    LengthMismatch,
    MaxIterationsExceeded,
    NotSPD,
    RankDeficientConstraints,
    StencilOutsideDomain,
)
from .linalg import DEFAULT_TOLERANCES, ToleranceSet, solve_kkt, solve_spd
from .kernels import (
    BasisDegree,
    KernelSource,
    KernelSystem,
    KernelWeights,
    PolynomialBasis,
    SolveMode,
    WeightFunction,
    WeightKind,
    assemble_system,
    build_basis,
    eval_psi4,
    eval_psi6,
    tensor_weight,
)
from .qpsolve import (
    FeasibilityReport,
    KKTReport,
    Peskin4Weights,
    QPProblem,
    QPSolution,
    check_kkt,
    phase1_feasible,
    solve_box_qp,
    solve_eq_qp,
    solve_generating_qp,
    solve_peskin4,
    solve_soft_qp,
)
from .onesided import (
    KernelBounds,
    SideMask,
    SignedDistance,
    classify_side,
    generate_one_sided_kernel,
    restrict_weights,
)
from .ibops import (
    CartesianGrid,
    GridField,
    KernelStrategy,
    MarkerSet,
    Stencil,
    interpolate,
    make_grid,
    sample_field,
    spread,
    support_stencil,
)
from .experiments import (
    CASE_BOUNDS,
    CircleCaseConfig,
    ErrorTable,
    MarkerResult,
    compare_kernels,
    run_circle_case,
    validate_moments,
)

__version__ = "0.1.0"

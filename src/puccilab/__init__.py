"""puccilab: finite-difference laboratory for fully nonlinear parabolic equations.

The package measures interior and boundary gradient regularity of
viscosity-style solutions between the Pucci extremal flows, including
the normalized p-Laplacian, by fitting affine profiles over shrinking
parabolic cylinders and reading the decay exponent off the fits.
"""

__version__ = "0.1.0"

from .errors import (
    AlignmentError,
    BlowUpError,
    BoundaryProximityError,
    CFLViolationError,
    ConfigError,
    DegenerateCylinderError,
    DegenerateFitError,
    FaceDataError,
    GridFileError,
    InputError,
    NumericalError,
    PucciLabError,
    SingularGradientError,
    ValidationError,
)
from .grid import (
    Grid,
    GridFunction,
    CylinderIndex,
    cylinder_nodes,
    parabolic_boundary_nodes,
    read_gridfn,
    write_gridfn,
    sample,
    restrict,
)
from .operators import (
    EllipticityPair,
    PLaplaceParams,
    ClassReport,
    HeatOp,
    PucciPlusOp,
    PucciMinusOp,
    PLaplaceOp,
    p_laplace_coeff,
    class_membership,
    pde_residual,
    membership_tolerance,
)
from .solver import (
    DirichletProblem,
    solve_dirichlet,
    solve_p_laplace_regularized,
    epsilon_continuation,
    cfl_limit,
)
from .regularity import (
    LinearFit,
    DecayReport,
    best_linear_fit,
    decay_sequence,
    boundary_decay_sequence,
    coefficient_cauchy_check,
    odd_reflection,
    rescale,
    pointwise_c1a_norm,
    global_report,
)

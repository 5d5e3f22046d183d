"""Recovery of d-variate n-term exponential sums from adaptively chosen samples.

The library fits f(x) = sum_j alpha_j exp(<phi_j, x>) from samples along a
base direction and d-1 further shift directions, using the minimal budget of
(d+1) n evaluations when the term count is known and the base projections
are collision-free, and an adaptive Hankel-rank-driven schedule otherwise.
"""

from ._schedule import BUDGET_CONSTANT, budget_bound
from .errors import (
    BudgetExceededError,
    CancellationSuspectedError,
    CollisionDetectedError,
    DegenerateModelError,
    DimensionMismatchError,
    ExpsumError,
    GenerationError,
    InputError,
    InvalidBasisError,
    InvalidNodeError,
    MissingSampleError,
    PencilDegenerateError,
    RankDeficiencyError,
    RankMismatchError,
    SingularMatrixError,
    SparsityUndetectedError,
)
from .linalg import (
    RankDecision,
    generalized_eigenvalues,
    hankel,
    numerical_rank,
    solve,
    solve_least_squares,
    vandermonde,
)
from .model import (
    DirectionBasis,
    ExponentialModel,
    Term,
    canonicalize,
    evaluate,
    identity_basis,
    validate_nyquist,
)
from .multivar import (
    LevelState,
    RecoveryConfig,
    RecoveryReport,
    assemble_exponents,
    cancellation_rescue,
    disentangle_pile,
    recover_known_n,
    recover_unknown_n,
    solve_shift_system,
)
from .oracle import (
    NoisyOracle,
    Oracle,
    SampleLedger,
    SequenceStream,
    SyntheticOracle,
    TabulatedOracle,
    plan_points,
)
from .prony import (
    detect_sparsity,
    fit_coefficients,
    fit_nodes,
    take_logs,
)

__version__ = "0.1.0"

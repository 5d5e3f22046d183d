"""Recovery of d-variate n-term exponential sums from adaptively chosen samples.

The library fits f(x) = sum_j alpha_j exp(<phi_j, x>) from samples along a
base direction and d-1 further shift directions, using the minimal budget of
(d+1) n evaluations when the term count is known and the base projections
are collision-free, and an adaptive Hankel-rank-driven schedule otherwise.
"""

from ._schedule import budget_bound
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
    SingularMatrixError,
    SparsityUndetectedError,
)
from .linalg import RankDecision
from .model import (
    DirectionBasis,
    ExponentialModel,
    canonicalize,
    evaluate,
    identity_basis,
    nyquist_margins,
)
from .multivar import (
    LevelState,
    RecoveryConfig,
    RecoveryReport,
    recover_known_n,
    recover_unknown_n,
)
from .oracle import (
    NoisyOracle,
    Oracle,
    SampleLedger,
    SyntheticOracle,
    TabulatedOracle,
    plan_points,
)

__version__ = "0.1.0"

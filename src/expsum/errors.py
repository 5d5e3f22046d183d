"""Exception taxonomy shared by the whole package.

Every error carries an ``exit_code`` so the command-line layer can map
failures to its documented exit-code contract (2 invalid input, 3 numerical
failure, 4 budget exceeded) without inspecting types one by one.
"""


class ExpsumError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 3


class InputError(ExpsumError):
    """Invalid arguments, shapes, or file contents."""

    exit_code = 2


class DimensionMismatchError(InputError):
    """A point or vector has the wrong length for the model dimension."""


class InvalidBasisError(InputError):
    """Directions are dependent, non-real, or of the wrong shape or count."""


class MissingSampleError(InputError):
    """A tabulated source has no entry for a requested point."""

    def __init__(self, point, match_tol):
        self.point = tuple(float(x) for x in point)
        self.match_tol = match_tol
        super().__init__(
            f"no tabulated sample within {match_tol:g} of point {self.point}"
        )


class SingularMatrixError(ExpsumError):
    """A square solve hit a matrix that is singular to working tolerance."""

    def __init__(self, message, sigma_min=None, sigma_max=None):
        self.sigma_min = sigma_min
        self.sigma_max = sigma_max
        super().__init__(message)


class RankDeficiencyError(ExpsumError):
    """A least-squares matrix lost full column rank; carries the decision."""

    def __init__(self, message, decision=None):
        self.decision = decision
        super().__init__(message)


class PencilDegenerateError(ExpsumError):
    """The right-hand matrix of an eigenvalue pencil is singular.

    Usually means the assumed term count is too high; re-detect the rank.
    """


class SparsityUndetectedError(ExpsumError):
    """Rank detection exhausted ``max_terms`` without a rank deficiency."""


class InvalidNodeError(ExpsumError):
    """A node is zero (or otherwise has no logarithm)."""


class DegenerateModelError(ExpsumError):
    """All terms cancelled; the model is identically zero."""


class CollisionDetectedError(ExpsumError):
    """The base direction does not separate all terms.

    Carries the number ``nu`` of distinguishable projections so the caller
    can switch to the collision-aware recovery driver.
    """

    def __init__(self, message, nu=None):
        self.nu = nu
        super().__init__(message)


class CancellationSuspectedError(ExpsumError):
    """A recovered coefficient is tiny; an aggregated sum may have vanished."""


class BudgetExceededError(ExpsumError):
    """The adaptive run hit its sample budget cap; carries a partial report."""

    exit_code = 4

    def __init__(self, message, samples_used=None, partial=None):
        self.samples_used = samples_used
        self.partial = partial
        super().__init__(message)


class GenerationError(ExpsumError):
    """Random instance synthesis could not satisfy its constraints."""

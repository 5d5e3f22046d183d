"""Dense complex linear-algebra kernels for the recovery pipeline.

Structured-matrix construction, square and least-squares solves, numerical
rank decisions, the generalized eigenvalue problem, and the minimum-cost
matching that pairs the terms of two models.  Matrices are plain
``numpy`` arrays; sizes are O(n terms) so everything is materialized densely
and handed to LAPACK.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InputError,
    PencilDegenerateError,
    RankDeficiencyError,
    SingularMatrixError,
)

EPS = float(np.finfo(float).eps)

# sigma_min/sigma_max below which a square matrix is treated as singular.
SINGULAR_RTOL = 1e3 * EPS

# Rank-decision defaults: exact-arithmetic data separates structural
# singularity from roundoff by many orders of magnitude.
DEFAULT_RANK_RTOL = 1e-8
GAP_FACTOR = 1e3

# sigma_min/sigma_max below which a pencil's right-hand matrix is singular.
PENCIL_SINGULAR_RTOL = 1e-12


@dataclass(frozen=True)
class RankDecision:
    """Outcome of a numerical-rank test.

    ``confident`` is True when the rank is full or the singular-value gap
    sigma_rank / sigma_{rank+1} reaches ``GAP_FACTOR``, i.e. when the
    decision is not a close call.
    """

    rank: int
    singular_values: tuple[float, ...]
    tolerance_used: float
    confident: bool


def hankel(sequence, rows: int, cols: int) -> np.ndarray:
    """Build the rows x cols Hankel matrix with entry (r, c) = sequence[r+c]."""
    seq = np.asarray(sequence, dtype=complex)
    if rows < 1 or cols < 1:
        raise InputError("hankel needs rows >= 1 and cols >= 1")
    if seq.ndim != 1 or len(seq) < rows + cols - 1:
        raise InputError(
            f"sequence of length {len(seq)} too short for "
            f"{rows}x{cols} Hankel (need {rows + cols - 1})"
        )
    idx = np.arange(rows)[:, None] + np.arange(cols)[None, :]
    return seq[idx]


def vandermonde(logs, powers) -> np.ndarray:
    """Exponential Vandermonde matrix with entry (r, c) = exp(powers[r] * logs[c]).

    Nodes are supplied as logarithms so that non-integer powers are
    unambiguous (no branch cuts).
    """
    lg = np.asarray(logs, dtype=complex)
    pw = np.asarray(powers, dtype=float)
    if lg.ndim != 1 or lg.size == 0:
        raise InputError("logs must be a nonempty vector")
    if pw.ndim != 1 or pw.size == 0:
        raise InputError("powers must be a nonempty vector")
    return np.exp(np.outer(pw, lg))


def singular_values(a) -> np.ndarray:
    """Descending singular values of a matrix, or of each in a stack.

    LAPACK can fail to converge even on finite input; its ``LinAlgError``
    is raised as :class:`SingularMatrixError`, inside the exit-code
    contract.
    """
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            f"singular value decomposition failed ({exc})"
        ) from exc


def condition_estimate(a) -> float:
    """sigma_max / sigma_min of a matrix (inf when singular)."""
    sv = singular_values(np.asarray(a, dtype=complex))
    if sv[-1] == 0:
        return float("inf")
    return float(sv[0] / sv[-1])


def solve(a, b) -> np.ndarray:
    """Solve the square system a x = b by pivoted elimination.

    Raises :class:`SingularMatrixError` when sigma_min <= SINGULAR_RTOL *
    sigma_max.  On success the solution satisfies the residual contract
    ||a x - b|| <= 1e3 * eps * n * (||a|| ||x|| + ||b||).
    """
    am = np.asarray(a, dtype=complex)
    bv = np.asarray(b, dtype=complex)
    if am.ndim != 2 or am.shape[0] != am.shape[1]:
        raise InputError(f"matrix must be square, got shape {am.shape}")
    if bv.shape[0] != am.shape[0]:
        raise InputError(
            f"right-hand side has {bv.shape[0]} rows, matrix has {am.shape[0]}"
        )
    sv = singular_values(am)
    if sv[0] == 0 or sv[-1] <= SINGULAR_RTOL * sv[0]:
        raise SingularMatrixError(
            "matrix is singular to working tolerance "
            f"(sigma_min={sv[-1]:.3e}, sigma_max={sv[0]:.3e})",
            sigma_min=float(sv[-1]),
            sigma_max=float(sv[0]),
        )
    return np.linalg.solve(am, bv)


def solve_least_squares(a, b, rcond: float = DEFAULT_RANK_RTOL) -> np.ndarray:
    """Minimize ||a x - b||_2 via orthogonal factorization.

    Requires rows >= cols and full column rank to ``rcond``; otherwise a
    :class:`RankDeficiencyError` is raised carrying the rank decision, with
    the matrix's condition estimate in its message.  A LAPACK failure
    raises it too, with no decision.
    """
    am = np.asarray(a, dtype=complex)
    bv = np.asarray(b, dtype=complex)
    if am.ndim != 2 or am.shape[0] < am.shape[1]:
        raise InputError(
            f"least squares needs rows >= cols, got shape {am.shape}"
        )
    if bv.shape[0] != am.shape[0]:
        raise InputError(
            f"right-hand side has {bv.shape[0]} rows, matrix has {am.shape[0]}"
        )
    try:
        x, _, rank, sv = np.linalg.lstsq(am, bv, rcond=rcond)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError(f"least squares failed ({exc})") from exc
    if rank < am.shape[1]:
        decision = RankDecision(
            rank=int(rank),
            singular_values=tuple(float(s) for s in sv),
            tolerance_used=float(rcond * sv[0]) if sv.size else 0.0,
            confident=True,
        )
        cond = sv[0] / sv[-1] if sv[-1] else float("inf")
        raise RankDeficiencyError(
            f"matrix has column rank {rank} < {am.shape[1]} "
            f"(condition estimate {cond:.2e})",
            decision=decision,
        )
    return x


def rank_from_singular_values(
    sv,
    rel_tol: float = DEFAULT_RANK_RTOL,
    scale: float | None = None,
) -> RankDecision:
    """Rank decision from a descending singular-value vector.

    The threshold is rel_tol * sigma_max, or rel_tol * scale when a
    reference ``scale`` is supplied (used when several matrices share one
    numerical noise floor, e.g. pile matrices solved from one system).
    """
    if not 0 < rel_tol < 1:
        raise InputError("rel_tol must lie in (0, 1)")
    # plain floats: numpy's per-call overhead dominates on short vectors
    sv = tuple(np.asarray(sv, dtype=float).tolist())
    smax = sv[0] if sv else 0.0
    reference = smax if scale is None else max(float(scale), smax)
    if reference == 0.0:
        return RankDecision(0, sv, 0.0, True)
    threshold = rel_tol * reference
    rank = sum(s > threshold for s in sv)
    if rank == len(sv):
        confident = True
    elif rank == 0:
        confident = smax <= threshold / GAP_FACTOR
    else:
        confident = sv[rank - 1] >= GAP_FACTOR * sv[rank]
    return RankDecision(rank, sv, threshold, confident)


def numerical_rank(a, rel_tol: float = DEFAULT_RANK_RTOL) -> RankDecision:
    """Count singular values above rel_tol * sigma_max.

    The decision is confident when the matrix has full rank or the gap
    between the last counted and first discarded singular value is at
    least ``GAP_FACTOR``.
    """
    am = np.asarray(a, dtype=complex)
    if am.ndim != 2:
        raise InputError("numerical_rank expects a matrix")
    return rank_from_singular_values(singular_values(am), rel_tol)


def min_cost_matching(cost) -> np.ndarray:
    """Exact minimum-cost perfect matching of a square cost matrix.

    Returns ``cols`` with row i matched to column ``cols[i]``; the total
    ``cost[i, cols[i]]`` summed over i is minimal.  This is the O(n^3)
    shortest-augmenting-path Hungarian method (Kuhn-Munkres in the
    Jonker-Volgenant form): each row is added in turn, Dijkstra grows an
    alternating tree over columns with reduced costs (vectorised over
    columns), and the tree's shortest path to a free column is flipped.
    The cost is divided by its largest magnitude first, which keeps the
    optimum and bounds the dual potentials by n for any finite input.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise InputError(f"cost must be a square matrix, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise InputError("matching cost entries must be finite")
    n = c.shape[0]
    top = float(np.abs(c).max(initial=0.0))
    if top > 0:
        c = c / top
    # column 0 is a virtual root; row_of[j] is the 1-based row on column j
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    row_of = np.zeros(n + 1, dtype=int)
    way = np.zeros(n + 1, dtype=int)
    for i in range(1, n + 1):
        row_of[0] = i
        j0 = 0
        dist = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while row_of[j0]:
            used[j0] = True
            i0 = row_of[j0]
            free = ~used
            reduced = c[i0 - 1] - u[i0] - v[1:]
            closer = free[1:] & (reduced < dist[1:])
            dist[1:][closer] = reduced[closer]
            way[1:][closer] = j0
            j1 = int(np.argmin(np.where(free, dist, np.inf)))
            delta = dist[j1]
            u[row_of[used]] += delta
            v[used] -= delta
            dist[free] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    cols = np.empty(n, dtype=int)
    cols[row_of[1:] - 1] = np.arange(n)
    return cols


def generalized_eigenvalues(a, b, b_singular_values=None) -> np.ndarray:
    """Eigenvalues lambda of the pencil (a, b): det(a - lambda b) = 0.

    The pencil is reduced to the standard eigenproblem of b^{-1} a.  The
    eigenvalue order is unspecified.  Raises :class:`PencilDegenerateError`
    when b is singular to tolerance, which usually means the assumed
    problem size is too large, and when b^{-1} a is not finite, as with
    data at subnormal magnitude.  Known singular values of b (descending)
    may be passed as ``b_singular_values``.
    """
    am = np.asarray(a, dtype=complex)
    bm = np.asarray(b, dtype=complex)
    if am.shape != bm.shape or am.ndim != 2 or am.shape[0] != am.shape[1]:
        raise InputError(
            f"pencil matrices must be square and matching, got "
            f"{am.shape} and {bm.shape}"
        )
    sv = b_singular_values
    if sv is None:
        sv = singular_values(bm)
    if sv[0] == 0 or sv[-1] <= PENCIL_SINGULAR_RTOL * sv[0]:
        raise PencilDegenerateError(
            "pencil right-hand matrix is singular to tolerance "
            f"(sigma_min/sigma_max = {sv[-1] / sv[0] if sv[0] else 0:.3e}); "
            "re-detect the rank before solving"
        )
    try:
        return np.linalg.eigvals(np.linalg.solve(bm, am))
    except np.linalg.LinAlgError as exc:
        raise PencilDegenerateError(
            f"pencil could not be reduced ({exc}); sigma_max of the "
            f"right-hand matrix is {sv[0]:.3e}"
        ) from exc

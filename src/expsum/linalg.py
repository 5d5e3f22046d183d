"""Dense complex linear-algebra kernels for the recovery pipeline.

Structured-matrix construction, square and least-squares solves, numerical
rank decisions, and the generalized eigenvalue problem.  Matrices are plain
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
DEFAULT_GAP_FACTOR = 1e3

# sigma_min/sigma_max below which a pencil's right-hand matrix is singular.
PENCIL_SINGULAR_RTOL = 1e-12


@dataclass(frozen=True)
class RankDecision:
    """Outcome of a numerical-rank test.

    ``confident`` is True when the rank is full or the singular-value gap
    sigma_rank / sigma_{rank+1} exceeds the gap factor, i.e. when the
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


def condition_estimate(a) -> float:
    """sigma_max / sigma_min of a matrix (inf when singular)."""
    sv = np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False)
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
    sv = np.linalg.svd(am, compute_uv=False)
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
    the matrix's condition estimate in its message.
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
    x, _, rank, sv = np.linalg.lstsq(am, bv, rcond=rcond)
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
    gap_factor: float = DEFAULT_GAP_FACTOR,
    scale: float | None = None,
) -> RankDecision:
    """Rank decision from a descending singular-value vector.

    The threshold is rel_tol * sigma_max, or rel_tol * scale when a
    reference ``scale`` is supplied (used when several matrices share one
    numerical noise floor, e.g. pile matrices solved from one system).
    """
    if not 0 < rel_tol < 1:
        raise InputError("rel_tol must lie in (0, 1)")
    if gap_factor <= 1:
        raise InputError("gap_factor must exceed 1")
    sv = np.asarray(sv, dtype=float)
    smax = float(sv[0]) if sv.size else 0.0
    reference = smax if scale is None else max(float(scale), smax)
    if reference == 0.0:
        return RankDecision(0, tuple(float(s) for s in sv), 0.0, True)
    threshold = rel_tol * reference
    rank = int(np.sum(sv > threshold))
    full = rank == sv.size
    if full:
        confident = True
    elif rank == 0:
        confident = smax <= threshold / gap_factor
    else:
        confident = bool(sv[rank - 1] >= gap_factor * sv[rank])
    return RankDecision(
        rank, tuple(float(s) for s in sv), float(threshold), confident
    )


def numerical_rank(
    a,
    rel_tol: float = DEFAULT_RANK_RTOL,
    gap_factor: float = DEFAULT_GAP_FACTOR,
) -> RankDecision:
    """Count singular values above rel_tol * sigma_max.

    The decision is confident when the matrix has full rank or the gap
    between the last counted and first discarded singular value is at
    least ``gap_factor``.
    """
    am = np.asarray(a, dtype=complex)
    if am.ndim != 2:
        raise InputError("numerical_rank expects a matrix")
    sv = np.linalg.svd(am, compute_uv=False)
    return rank_from_singular_values(sv, rel_tol, gap_factor)


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
        sv = np.linalg.svd(bm, compute_uv=False)
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

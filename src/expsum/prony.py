"""Univariate engine: term counting, node extraction, logs, coefficients.

Works on equidistant samples F_s of an exponential sequence.  Nodes are the
values exp(Phi_j) appearing as generalized eigenvalues of a Hankel pencil or
as roots of the associated monic polynomial; coefficients come from
exponential Vandermonde systems.
"""

from __future__ import annotations

import warnings
from typing import Callable

import numpy as np

from . import linalg
from .errors import (
    InputError,
    InvalidNodeError,
    PencilDegenerateError,
    RankDeficiencyError,
    RankMismatchError,
    SingularMatrixError,
    SparsityUndetectedError,
)
from .linalg import RankDecision

# Relative node separation below which two nodes count as colliding and the
# instance is deferred to the collision-aware driver.
DEFAULT_NODE_TOL = 1e-6

# Condition estimate above which coefficient fits attach a warning.
CONDITIONING_LIMIT = 1e12


class ConditioningWarning(UserWarning):
    """A coefficient system was solvable but poorly conditioned."""


def detect_sparsity(
    value_at: Callable[[int], complex],
    max_terms: int,
    rel_tol: float = linalg.DEFAULT_RANK_RTOL,
    gap_factor: float = linalg.DEFAULT_GAP_FACTOR,
) -> RankDecision:
    """Detect the number of distinguishable terms in a sampled sequence.

    Grows the square Hankel matrix one size at a time (two new samples per
    step, 2 nu + 1 in total to certify nu) until the (nu+1) x (nu+1) matrix
    shows a confident rank deficiency.  ``value_at(s)`` must return F_s and
    is expected to memoize, so already-drawn samples are never re-requested.

    Raises :class:`SparsityUndetectedError` when no deficiency appears up
    to ``max_terms``; returns a non-confident decision if a deficiency was
    seen but its singular-value gap stayed below ``gap_factor``.
    """
    if max_terms < 1:
        raise InputError("max_terms must be >= 1")
    values: list[complex] = [value_at(0)]
    fallback = None
    for m in range(1, max_terms + 1):
        # the later index first, so a memoizing supplier draws both in one batch
        last = value_at(2 * m)
        values += [value_at(2 * m - 1), last]
        decision = linalg.numerical_rank(
            linalg.hankel(values, m + 1, m + 1), rel_tol, gap_factor
        )
        if decision.rank <= m:
            if decision.confident:
                return decision
            if fallback is None or decision.rank > fallback.rank:
                fallback = decision
    if fallback is not None:
        return fallback
    raise SparsityUndetectedError(
        f"no rank deficiency up to {max_terms} terms; raise max_terms or "
        "reject the instance"
    )


def fit_nodes(
    values,
    nu: int,
    method: str = "generalized_eig",
    singular_values=None,
) -> np.ndarray:
    """Extract the nu nodes exp(Phi_j) from >= 2 nu equidistant samples
    ``values`` = F_0, F_1, ...

    ``generalized_eig`` solves the shifted-vs-unshifted Hankel pencil;
    ``hankel_polynomial`` solves the Hankel system for the monic polynomial
    whose roots are the nodes, then roots it via its companion matrix.
    Both agree to high accuracy on exact data.  The pencil reuses known
    ``singular_values`` of the nu x nu Hankel matrix instead of its own SVD.
    """
    if nu < 1:
        raise InputError("nu must be >= 1")
    values = _samples(values)
    if len(values) < 2 * nu:
        raise InputError(
            f"need at least {2 * nu} samples to fit {nu} nodes, "
            f"got {len(values)}"
        )
    h0 = linalg.hankel(values, nu, nu)
    h1 = linalg.hankel(values[1:], nu, nu)
    if method == "generalized_eig":
        try:
            return linalg.generalized_eigenvalues(
                h1, h0, b_singular_values=singular_values
            )
        except PencilDegenerateError as exc:
            raise RankMismatchError(
                f"Hankel pencil degenerate at nu={nu}; re-detect the rank"
            ) from exc
    if method == "hankel_polynomial":
        try:
            beta = linalg.solve(h0, -values[nu : 2 * nu])
        except SingularMatrixError as exc:
            raise RankMismatchError(
                f"Hankel matrix singular at nu={nu}; re-detect the rank"
            ) from exc
        # companion matrix of z^nu + beta_{nu-1} z^{nu-1} + ... + beta_0
        comp = np.zeros((nu, nu), dtype=complex)
        if nu > 1:
            comp[1:, :-1] = np.eye(nu - 1)
        comp[:, -1] = -beta
        return np.linalg.eigvals(comp)
    raise InputError(f"unknown node-fit method: {method!r}")


def _samples(values) -> np.ndarray:
    values = np.asarray(values, dtype=complex)
    if values.ndim != 1 or values.size == 0:
        raise InputError("samples must be a non-empty 1-D sequence")
    return values


def take_logs(nodes) -> np.ndarray:
    """Principal-branch logarithm of each node, Im in (-pi, pi].

    Correct recovery of the underlying inner products relies on the
    admissibility margins being positive; this function never unwraps.
    """
    arr = np.asarray(nodes, dtype=complex)
    if np.any(arr == 0):
        raise InvalidNodeError("cannot take the logarithm of a zero node")
    return np.log(arr)


def fit_coefficients(
    logs,
    values,
    mode: str = "least_squares",
    k: int = 0,
) -> np.ndarray:
    """Solve for the linear coefficients of equidistant samples ``values``
    = F_0, F_1, ... given the node logarithms.

    ``least_squares`` uses all available samples (recommended for noisy
    data); ``square_k`` solves the nu x nu system built from samples
    F_k ... F_{k+nu-1}.  A :class:`ConditioningWarning` is emitted when the
    system's condition estimate exceeds 1e12 (``least_squares`` then raises
    :class:`RankDeficiencyError`: it stops at a condition of 1e8).
    """
    lg = np.asarray(logs, dtype=complex)
    nu = lg.size
    values = _samples(values)
    if mode == "least_squares":
        if len(values) < nu:
            raise InputError(
                f"need at least {nu} samples to fit {nu} coefficients"
            )
        powers = np.arange(len(values), dtype=float)
        rhs = values
    elif mode == "square_k":
        if k < 0 or len(values) < k + nu:
            raise InputError(
                f"square_k with k={k} needs samples up to index {k + nu - 1}"
            )
        powers = np.arange(k, k + nu, dtype=float)
        rhs = values[k : k + nu]
    else:
        raise InputError(f"unknown coefficient mode: {mode!r}")
    matrix = linalg.vandermonde(lg, powers)
    if mode == "least_squares":
        try:
            return linalg.solve_least_squares(matrix, rhs)
        except RankDeficiencyError as exc:
            sv = exc.decision.singular_values
            _warn_conditioning(sv[0] / sv[-1] if sv[-1] else float("inf"))
            raise
    _warn_conditioning(linalg.condition_estimate(matrix))
    return linalg.solve(matrix, rhs)


def _warn_conditioning(cond: float) -> None:
    if cond > CONDITIONING_LIMIT:
        warnings.warn(
            f"coefficient system condition estimate {cond:.2e} exceeds "
            f"{CONDITIONING_LIMIT:.0e}",
            ConditioningWarning,
            stacklevel=3,
        )

"""Univariate engine: term counting, node extraction, logs, coefficients.

Works on equidistant samples F_s of an exponential sequence.  Nodes are the
values exp(Phi_j) appearing as generalized eigenvalues of a Hankel pencil;
coefficients come from least-squares exponential Vandermonde systems.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import linalg
from .errors import (
    InputError,
    InvalidNodeError,
    PencilDegenerateError,
    RankMismatchError,
    SparsityUndetectedError,
)
from .linalg import RankDecision


def detect_sparsity(
    value_at: Callable[[int], complex],
    max_terms: int,
    rel_tol: float = linalg.DEFAULT_RANK_RTOL,
) -> RankDecision:
    """Detect the number of distinguishable terms in a sampled sequence.

    Grows the square Hankel matrix one size at a time (two new samples per
    step, 2 nu + 1 in total to certify nu) until the (nu+1) x (nu+1) matrix
    shows a confident rank deficiency.  ``value_at(s)`` must return F_s and
    is expected to memoize, so already-drawn samples are never re-requested.

    Raises :class:`SparsityUndetectedError` when no deficiency appears up
    to ``max_terms``; returns a non-confident decision if a deficiency was
    seen but its singular-value gap stayed below ``linalg.GAP_FACTOR``.
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
            linalg.hankel(values, m + 1, m + 1), rel_tol
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


def fit_nodes(values, nu: int, singular_values=None) -> np.ndarray:
    """Extract the nu nodes exp(Phi_j) from >= 2 nu equidistant samples
    ``values`` = F_0, F_1, ...

    The nodes are the generalized eigenvalues of the shifted-vs-unshifted
    nu x nu Hankel pencil (H_1, H_0) (Hua & Sarkar, IEEE TASSP 1990).  The
    pencil reuses known ``singular_values`` of H_0 instead of its own SVD.
    Raises :class:`RankMismatchError` when H_0 is singular to tolerance.
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
    try:
        return linalg.generalized_eigenvalues(
            h1, h0, b_singular_values=singular_values
        )
    except PencilDegenerateError as exc:
        raise RankMismatchError(
            f"Hankel pencil degenerate at nu={nu}; re-detect the rank"
        ) from exc


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


def fit_coefficients(logs, values) -> np.ndarray:
    """Solve for the linear coefficients of equidistant samples ``values``
    = F_0, F_1, ... given the node logarithms.

    Fits all available samples in the least-squares sense, which is what
    noisy data needs.  Raises :class:`RankDeficiencyError`, with the
    system's condition estimate in its message, when the exponential
    Vandermonde matrix loses full column rank to 1e-8.
    """
    lg = np.asarray(logs, dtype=complex)
    values = _samples(values)
    if len(values) < lg.size:
        raise InputError(
            f"need at least {lg.size} samples to fit {lg.size} coefficients"
        )
    powers = np.arange(len(values), dtype=float)
    return linalg.solve_least_squares(linalg.vandermonde(lg, powers), values)

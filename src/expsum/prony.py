"""Univariate engine: term counting, node extraction, logs, coefficients.

Works on equidistant samples F_s of an exponential sequence.  Nodes are the
values exp(Phi_j) appearing as generalized eigenvalues of a Hankel pencil;
coefficients come from least-squares exponential Vandermonde systems.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import linalg
from .errors import InputError, InvalidNodeError, SparsityUndetectedError
from .linalg import RankDecision


def grow_ranks(
    first,
    draw: Callable[[int], object],
    max_size: int,
    rel_tol: float = linalg.DEFAULT_RANK_RTOL,
) -> tuple[np.ndarray, list[tuple[int, RankDecision]]]:
    """Grow one square Hankel matrix per row until every row's rank settles.

    Row j's sequence starts at ``first[j]``; ``draw(m)`` returns the (rows,
    2) values at steps 2m - 1 and 2m, so step m decides on the (m+1) x
    (m+1) matrices of 2m + 1 values.  The rows share one noise floor,
    ``rel_tol`` times the largest sigma_max over all rows.  A row settles
    when its rank r <= m is confident, a confident rank 0 included, or when
    m reaches ``max_size``.  Until then it remembers its latest
    non-confident deficiency with 1 <= r <= m; a row still at full rank at
    the cap takes that decision, and one with none raises
    :class:`SparsityUndetectedError`.

    Returns the (rows, 2m + 1) sequences and the ``(row, decision)`` pairs
    in the order the rows settled.
    """
    sequences = np.empty((len(first), 2 * max_size + 1), dtype=complex)
    sequences[:, 0] = first
    idx = np.arange(max_size + 1)
    window = idx[:, None] + idx
    waiting = range(len(first))
    fallbacks: dict[int, RankDecision] = {}
    settled: list[tuple[int, RankDecision]] = []
    for m in range(1, max_size + 1):
        sequences[:, 2 * m - 1 : 2 * m + 1] = draw(m)
        svs = linalg.singular_values(sequences[:, window[: m + 1, : m + 1]])
        scale = max(svs[:, 0].tolist())
        still = []
        for j in waiting:
            decision = linalg.rank_from_singular_values(svs[j], rel_tol, scale)
            if decision.rank <= m and (decision.confident or m == max_size):
                settled.append((j, decision))
                continue
            if 1 <= decision.rank <= m:
                fallbacks[j] = decision
            still.append(j)
        waiting = still
        if not waiting:
            return sequences[:, : 2 * m + 1], settled
    for j in waiting:
        if j not in fallbacks:
            raise SparsityUndetectedError(
                f"no rank deficiency up to {max_size} terms; raise max_terms "
                "or reject the instance"
            )
        settled.append((j, fallbacks[j]))
    return sequences, settled


def detect_sparsity(
    sample: Callable[[int, int], object],
    max_terms: int,
    rel_tol: float = linalg.DEFAULT_RANK_RTOL,
) -> RankDecision:
    """Detect the number of distinguishable terms in a sampled sequence.

    The one-row case of :func:`grow_ranks`: two new samples per step, 2 nu
    + 1 in total to certify nu, up to ``max_terms``.  ``sample(start,
    stop)`` returns F_start .. F_{stop-1}; it is called once for F_0 and
    then once per step, for F_{2m-1} and F_{2m}.  Rank 0 means the sequence
    shows no term.

    Raises :class:`SparsityUndetectedError` when no deficiency appears up
    to ``max_terms``; returns a non-confident decision if a deficiency was
    seen but its singular-value gap stayed below ``linalg.GAP_FACTOR``.
    """
    if max_terms < 1:
        raise InputError("max_terms must be >= 1")
    return grow_ranks(sample(0, 1), lambda m: [sample(2 * m - 1, 2 * m + 1)],
                      max_terms, rel_tol)[1][0][1]


def fit_nodes(values, nu: int, singular_values=None) -> np.ndarray:
    """Extract the nu nodes exp(Phi_j) from >= 2 nu equidistant samples
    ``values`` = F_0, F_1, ...

    The nodes are the generalized eigenvalues of the shifted-vs-unshifted
    nu x nu Hankel pencil (H_1, H_0) (Hua & Sarkar, IEEE TASSP 1990).  The
    pencil reuses known ``singular_values`` of H_0 instead of its own SVD.
    Raises :class:`PencilDegenerateError` when H_0 is singular to
    tolerance, which means nu was overestimated.
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
    return linalg.generalized_eigenvalues(
        h1, h0, b_singular_values=singular_values
    )


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

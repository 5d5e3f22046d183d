"""Synthetic test-instance generation.

Instances are parameterized by their inner products with the sampling
directions: drawing the matrix Psi with Psi[j, i] = <phi_j, delta_i> inside
the admissible strip and solving the direction system for phi makes every
generated model admissible by construction, with no rejection on margins.
Collisions and cancellations are planted by sharing rows or columns of Psi.
"""

from __future__ import annotations

import numpy as np

from .errors import GenerationError, InputError
from .linalg import node_gaps
from .model import DirectionBasis, ExponentialModel, canonicalize

COEFF_MODULUS_RANGE = (0.1, 10.0)
REAL_RANGE = 0.15  # bound on |Re <phi_j, delta_i>| of every generated term

# Upper bound on the conditioning of the base-line Hankel matrix of a
# generated instance.  Minimal-budget recovery amplifies data errors by
# roughly this factor, so capping it keeps exact-arithmetic instances
# recoverable to ~1e-12 and 1e-8-noisy instances to ~1e-4.
CONDITIONING_CAP = 3e3

# Draws a generator makes before it raises GenerationError; a cancellation
# instance redraws a whole collision instance per try.
MAX_TRIES = 500
CANCELLATION_TRIES = 50

# Planted collisions and cancellations keep every inner product a factor
# 1 - PLANTED_NYQUIST_MARGIN inside the aliasing strip, and the nodes they
# must tell apart at least PLANTED_MIN_SEPARATION apart.
PLANTED_NYQUIST_MARGIN = 0.1
PLANTED_MIN_SEPARATION = 5e-2

# Largest term count random_model attempts: the largest count measured.
# Under the conditioning cap, larger random models are out of reach: at
# d = 1 and nyquist_margin 1e-3, 5 seeds x 500 tries drew a 16-term model
# for 4 seeds but no 20-term model; 20 seeds x 500 tries drew no 24-term
# model at margins 0.01 or 1e-3; and at the CLI's default margin 0.3,
# 5 seeds x 500 tries drew no model of 10, 12 or 16 terms at d = 1 or 2.
# Refusing larger n up front keeps the O(n^2) node-gap and Hankel matrices
# of a hopeless draw from being built.
MAX_RANDOM_TERMS = 24


def random_basis(dimension: int, rng) -> DirectionBasis:
    """A well-conditioned random direction basis (orthonormal columns)."""
    if dimension == 1:
        return DirectionBasis(1, ((1.0,),))
    q, _ = np.linalg.qr(rng.standard_normal((dimension, dimension)))
    return DirectionBasis(dimension, tuple(tuple(row) for row in q))


def random_coefficients(n: int, rng) -> np.ndarray:
    """Coefficients with log-uniform modulus in [0.1, 10] and uniform phase."""
    lo, hi = COEFF_MODULUS_RANGE
    modulus = np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))
    phase = rng.uniform(0.0, 2 * np.pi, size=n)
    return modulus * np.exp(1j * phase)


def model_from_inner_products(psi, basis: DirectionBasis, coefficients) -> ExponentialModel:
    """The model with these coefficients whose exponent matrix Phi solves
    psi = Phi D^T, D being the stacked basis directions: row j of psi holds
    term j's inner products with the directions."""
    psi = np.asarray(psi, dtype=complex)
    coeffs = np.asarray(coefficients, dtype=complex)
    if psi.ndim != 2 or psi.shape[1] != basis.dimension:
        raise InputError(
            f"psi must be (n, {basis.dimension}), got {psi.shape}"
        )
    if coeffs.shape != (psi.shape[0],):
        raise InputError("one coefficient per psi row is required")
    return ExponentialModel(coeffs, np.linalg.solve(basis.matrix(), psi.T).T)


def random_model(
    dimension: int,
    n: int,
    rng,
    basis: DirectionBasis,
    nyquist_margin: float = 0.1,
    min_node_separation: float = 1e-3,
) -> ExponentialModel:
    """Random admissible model with separated base nodes.

    Every inner product's imaginary part is kept a factor ``1 -
    nyquist_margin`` inside the aliasing strip; terms and coefficients are
    redrawn jointly until the base nodes exp(<phi_j, delta_0>) are pairwise
    separated and then the base-line Hankel matrix respects the
    conditioning cap, so the instance is actually recoverable from the
    minimal budget.  Separation is checked first; only a separated try
    builds its 2n base values, as one vectorised exponential grid.
    ``n`` above ``MAX_RANDOM_TERMS`` raises :class:`InputError`.
    """
    if not 0 < nyquist_margin < 1:
        raise InputError("nyquist_margin must lie in (0, 1)")
    if not 1 <= n <= MAX_RANDOM_TERMS:
        raise InputError(f"n must lie in [1, {MAX_RANDOM_TERMS}], got {n}")
    bound = (1.0 - nyquist_margin) * np.pi
    steps = np.arange(2 * n)[:, None]
    window = steps[:n] + steps[:n].T
    for _ in range(MAX_TRIES):
        real = rng.uniform(-REAL_RANGE, REAL_RANGE, size=(n, dimension))
        imag = rng.uniform(-bound, bound, size=(n, dimension))
        coeffs = random_coefficients(n, rng)
        base = real[:, 0] + 1j * imag[:, 0]
        if node_gaps(np.exp(base)).min() < min_node_separation:
            continue
        values = np.exp(steps * base) @ coeffs
        if np.linalg.cond(values[window]) > CONDITIONING_CAP:
            continue
        psi = real + 1j * imag
        return canonicalize(model_from_inner_products(psi, basis, coeffs))
    raise GenerationError(
        f"could not draw {n} admissible terms with node separation "
        f">= {min_node_separation} and conditioning <= {CONDITIONING_CAP:g} "
        f"in {MAX_TRIES} tries"
    )


def _aggregated_sequence_condition(omegas, coeffs) -> float:
    """Conditioning of the Hankel a recovery run must split.

    Members sharing an omega merge into one aggregated term; the result is
    the condition number of the r x r Hankel of the aggregated sequence,
    where r is the number of distinct omegas.
    """
    groups: dict[complex, complex] = {}
    keys = np.round(np.asarray(omegas, dtype=complex), 12).tolist()
    for key, coeff in zip(keys, coeffs):
        groups[key] = groups.get(key, 0.0) + coeff
    uniq = np.array(list(groups.keys()), dtype=complex)
    aggs = np.array(list(groups.values()), dtype=complex)
    r = len(uniq)
    steps = np.arange(2 * r - 1)[:, None]
    window = steps[:r] + steps[:r].T
    values = np.exp(steps * uniq) @ aggs
    return float(np.linalg.cond(values[window]))


def collision_instance(
    dimension: int,
    rng,
    basis: DirectionBasis,
    pile_sizes: tuple[int, ...],
    deep_collision: bool = False,
) -> ExponentialModel:
    """Model whose base projections collide in piles of the given sizes.

    All terms of a pile share the base inner product; they are separated at
    level 1, except that with ``deep_collision`` the first pile's first two
    terms also share the level-1 inner product and only split at level 2
    (requires dimension >= 3 and a pile of size >= 2).  Every aggregated
    sequence a recovery run must resolve (the base line and each pile at
    each level) is redrawn until its Hankel conditioning is capped.
    """
    if dimension < 2:
        raise InputError("collisions need dimension >= 2")
    if any(size < 1 for size in pile_sizes):
        raise InputError("pile sizes must be >= 1")
    if deep_collision and (dimension < 3 or pile_sizes[0] < 2):
        raise InputError(
            "a deep collision needs dimension >= 3 and a first pile of >= 2"
        )
    n = int(sum(pile_sizes))
    bound = (1.0 - PLANTED_NYQUIST_MARGIN) * np.pi

    def draw_separated(count):
        for _ in range(MAX_TRIES):
            vals = rng.uniform(-REAL_RANGE, REAL_RANGE, count) \
                + 1j * rng.uniform(-bound, bound, count)
            if count == 1 or (node_gaps(np.exp(vals)).min()
                              >= PLANTED_MIN_SEPARATION):
                return vals
        raise GenerationError("could not draw separated inner products")

    coeffs = random_coefficients(n, rng)
    psi = np.zeros((n, dimension), dtype=complex)
    row = 0
    for p, size in enumerate(pile_sizes):
        rows = slice(row, row + size)
        members = coeffs[rows]
        for _ in range(MAX_TRIES):
            level1 = draw_separated(size)
            deeper = [draw_separated(size) for _ in range(2, dimension)]
            if deep_collision and p == 0:
                level1 = level1.copy()
                level1[1] = level1[0]
                deep_pair = draw_separated(2)
                if dimension >= 3:
                    deeper[0] = deeper[0].copy()
                    deeper[0][0], deeper[0][1] = deep_pair[0], deep_pair[1]
                # the pair must stay resolvable where it finally splits
                if _aggregated_sequence_condition(
                    deeper[0][:2], members[:2]
                ) > CONDITIONING_CAP:
                    continue
            if _aggregated_sequence_condition(
                level1, members
            ) > CONDITIONING_CAP:
                continue
            psi[rows, 1] = level1
            for offset, vals in enumerate(deeper):
                psi[rows, 2 + offset] = vals
            break
        else:
            raise GenerationError(
                f"could not draw a well-conditioned pile of size {size}"
            )
        row += size

    # base values: the visible aggregates must also be resolvable
    aggregates = np.array(
        [
            np.sum(coeffs[sum(pile_sizes[:p]) : sum(pile_sizes[: p + 1])])
            for p in range(len(pile_sizes))
        ]
    )
    for _ in range(MAX_TRIES):
        base_values = draw_separated(len(pile_sizes))
        if _aggregated_sequence_condition(
            base_values, aggregates
        ) <= CONDITIONING_CAP:
            break
    else:
        raise GenerationError("could not draw well-conditioned base values")
    row = 0
    for p, size in enumerate(pile_sizes):
        psi[row : row + size, 0] = base_values[p]
        row += size
    return canonicalize(model_from_inner_products(psi, basis, coeffs))


def cancellation_instance(
    dimension: int,
    rng,
    basis: DirectionBasis,
    extra_terms: int = 2,
) -> ExponentialModel:
    """Model with one two-term pile whose coefficients sum exactly to zero.

    A collision instance's two-term pile gets coefficients (alpha, -alpha)
    in a copy of its coefficient vector.  The hidden pile is invisible to
    base-line rank detection and only reappears under parallel-shift
    probing.  Forcing the cancellation changes the aggregated structure, so
    the visible base line and the hidden pile's shift-level sequence are
    re-validated and the whole construction is redrawn if either became
    ill-conditioned.
    """
    if dimension < 2:
        raise InputError("cancellation instances need dimension >= 2")
    for _ in range(CANCELLATION_TRIES):
        model = collision_instance(
            dimension, rng, basis, pile_sizes=(2,) + (1,) * extra_terms
        )
        # force the two-pile coefficients to cancel: alpha_2 = -alpha_1
        inner = model.exponent_matrix() @ basis.matrix().T
        coeffs = model.coefficients().copy()
        # the gaps are symmetric, so the first pair in row order has j < k
        pairs = np.argwhere(node_gaps(np.exp(inner[:, 0])) < 1e-9)
        if not len(pairs):
            raise GenerationError("planted pile lost during canonicalization")
        j, k = pairs[0]
        coeffs[k] = -coeffs[j]
        hidden_cond = _aggregated_sequence_condition(
            inner[[j, k], 1], coeffs[[j, k]]
        )
        visible = [m for m in range(model.n_terms) if m not in (j, k)]
        visible_cond = _aggregated_sequence_condition(
            inner[visible, 0], coeffs[visible]
        )
        if hidden_cond <= CONDITIONING_CAP and visible_cond <= CONDITIONING_CAP:
            return ExponentialModel(coeffs, model.exponent_matrix())
    raise GenerationError(
        "could not build a well-conditioned cancellation instance"
    )

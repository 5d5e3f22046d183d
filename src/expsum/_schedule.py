"""Sample budgets and sample-point geometry shared by the planner and the
drivers."""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import InputError

# Engineering constant multiplying the worst-case data-complexity term.
# Covers the factor-of-two Prony pairs, the +1 rank certifications, and the
# drag-along cost of advancing every pile's schedule together.
BUDGET_CONSTANT = 4

# Largest term count a plan or a fixed-budget run accepts.  A worst-case
# plan lists budget_bound(d, n) ~ (d + 1) n^2 points, 149,760 of them at
# d = 8 and this count, so the bound keeps every point array small, and it
# is checked before any is built.  It is far above any count a minimal
# budget resolves in practice: random models stop meeting the conditioning
# cap beyond synth.MAX_RANDOM_TERMS = 24 terms.
MAX_TERMS = 128

RESCUE_EPSILON_SCALE = 1e-2  # rescue shift norm relative to the base direction


def check_term_count(n: int) -> None:
    """Raise :class:`InputError` unless 1 <= n <= MAX_TERMS."""
    if not 1 <= n <= MAX_TERMS:
        raise InputError(f"term count must lie in [1, {MAX_TERMS}], got {n}")


def budget_bound(d: int, n: int) -> int:
    """Default sample cap for an adaptive run: C (d+1) max_nu nu (n - nu + 1),
    with the maximum taken in closed form at nu = ceil(n / 2)."""
    if d < 1 or n < 1:
        raise InputError("budget_bound needs d >= 1 and n >= 1")
    return BUDGET_CONSTANT * (d + 1) * ((n + 1) // 2) * ((n + 2) // 2)


def line_points(origin, step, start: int, stop: int) -> np.ndarray:
    """Points origin + s * step for s = start .. stop - 1, one row each.

    The origin is added even when it is zero: s * step alone would record
    -0.0 at s = 0 for a negative component of step, and the ledger bytes
    would differ between the planner and the drivers.
    """
    return origin + np.arange(start, stop)[:, None] * step


def default_rescue_epsilon(direction, seed: int = 0) -> np.ndarray:
    """Seeded pseudo-random parallel-shift vector with norm
    RESCUE_EPSILON_SCALE * ||direction||."""
    direction = np.asarray(direction, dtype=float)
    rng = np.random.default_rng(seed)
    for _ in range(16):
        eps = rng.standard_normal(direction.size)
        norm = np.linalg.norm(eps)
        if norm == 0:
            continue
        eps = eps / norm * RESCUE_EPSILON_SCALE * np.linalg.norm(direction)
        if direction.size == 1 or not_parallel(direction, eps):
            return eps
    raise InputError("could not draw a shift vector independent of direction")


def not_parallel(direction, eps) -> bool:
    stacked = np.vstack([direction, eps])
    sv = linalg.singular_values(stacked)
    return sv[-1] > 1e-12 * sv[0]


def level_geometry(level: int, count: int):
    """A level's default geometry, the one every plan and driver starts
    from: the multipliers kappa = 0 .. count-1, and unit weights on the
    accumulated direction delta_0 + ... + delta_{level-1}."""
    return np.arange(count, dtype=float), np.ones(level)


def known_n_points(basis, n: int):
    """The (d+1) n points of a fixed-budget run: 2 n base points 0 + s
    delta_0, then per level i = 1 .. d-1 the n points kappa delta_0 +
    delta_i, with level 1's multipliers, which every level shares.  Returns
    ``(base (2n, d), kappas (n,), shifts (d-1, n, d))``.
    """
    kappas, _ = level_geometry(1, n)
    step = basis.direction(0)
    shifts = kappas[:, None] * step + basis.matrix()[1:, None]
    return line_points(np.zeros(basis.dimension), step, 0, 2 * n), kappas, shifts


def level_points(basis, level: int, weights, kappas, steps) -> np.ndarray:
    """Points kappa sum_m w_m delta_m + s delta_level of an adaptive level,
    shift steps s outer and multipliers kappa inner, one row each."""
    accumulated = np.zeros(basis.dimension)
    for m, w in enumerate(weights):
        accumulated = accumulated + w * basis.direction(m)
    grid = (kappas[:, None] * accumulated
            + np.reshape(steps, (-1, 1, 1)) * basis.direction(level))
    return grid.reshape(-1, basis.dimension)


def unknown_n_plan(basis, n_hint: int, rescue_k_max: int = 0, seed: int = 0):
    """Deterministic superset of the points an adaptive run may request.

    Enumerates the default schedules (base direction, then each level's
    accumulated-direction grid, advancing s across levels round-robin) and
    pads by extending the same grids until exactly ``budget_bound(d,
    n_hint)`` points are listed; a univariate plan is the base line alone.
    A run with ``rescue_k_max`` > 0 also probes the parallel lines k eps +
    s delta_0 (k = 1 .. rescue_k_max, s = 0 .. 2 n_hint, eps the seeded
    ``default_rescue_epsilon``); their points are listed after those.
    """
    d = basis.dimension
    cap = budget_bound(d, n_hint)
    base_count = cap if d == 1 else 2 * n_hint + 1
    step = basis.direction(0)
    points = list(line_points(np.zeros(d), step, 0, base_count))
    s = 0
    while len(points) < cap:
        s += 1
        for i in range(1, d):
            kappas, weights = level_geometry(i, n_hint)
            points.extend(level_points(basis, i, weights, kappas, [s]))
    points = points[:cap]
    if rescue_k_max > 0:
        eps = default_rescue_epsilon(step, seed)
        for k in range(1, rescue_k_max + 1):
            points.extend(line_points(k * eps, step, 0, 2 * n_hint + 1))
    return points

"""Multivariate recovery drivers.

Two entry points:

* :func:`recover_known_n` -- the fixed-budget path.  When the base direction
  separates all n terms, the model is recovered from exactly (d+1) n samples:
  2 n equidistant base samples plus n shifted samples per extra direction.

* :func:`recover_unknown_n` -- the adaptive path.  Term count is detected
  from the Hankel rank of the base sequence; projections that collide along
  the base direction form piles that are split level by level with one new
  shift direction each, growing per-pile Hankel matrices until their ranks
  are certain.  Aggregated pile coefficients accumulate across levels through
  the running inner-product sums used as nodes of each level's shift systems.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import _json, linalg
from ._schedule import (budget_bound, check_term_count,
                        default_rescue_epsilon, known_n_points, level_geometry,
                        level_points, line_points, not_parallel)
from .errors import (
    BudgetExceededError,
    CancellationSuspectedError,
    CollisionDetectedError,
    DimensionMismatchError,
    InputError,
    PencilDegenerateError,
    RankDeficiencyError,
    SingularMatrixError,
    SparsityUndetectedError,
)
from .linalg import RankDecision
# ``evaluate`` is unused here; bench/tracer.py wraps ``multivar.evaluate`` by name
from .model import (
    DirectionBasis,
    ExponentialModel,
    canonicalize,
    evaluate,
    exp_matrix,
)
from .oracle import Oracle
from .prony import (
    detect_sparsity,
    fit_coefficients,
    fit_nodes,
    grow_ranks,
    take_logs,
)

# The JSON values a RecoveryConfig field of each annotated type accepts; a
# boolean is not a number here.
_JSON_TYPES = {"float": (int, float), "int": (int,),
               "int | None": (int, type(None))}

# A recovered base coefficient below this fraction of the largest one makes
# the shift-ratio logs unreliable; the run aborts with a cancellation error.
CANCELLATION_RTOL = 1e-12

# A sample residual is relative to max(|value|, RESIDUAL_FLOOR * peak): a
# sample that cancels to zero then carries the roundoff of the peak, not an
# error divided by nothing.  The floor is set by the data alone; a scale
# taken from the recovered model would damp a wrong model's residual.
RESIDUAL_FLOOR = float(np.sqrt(np.finfo(float).eps))

# The known-n driver's base rank threshold, deliberately stricter than
# ``RecoveryConfig.rank_rel_tol``: it only needs to tell structural rank
# deficiency (singular values at roundoff level) from benign ill-conditioning.
COLLISION_RTOL = 1e-10
# The known-n driver refuses base nodes closer than this times max |node|.
NODE_TOL = 1e-6
# Exponents this close componentwise merge; a merged term is dropped when its
# coefficient is this small relative to the largest one.
MERGE_TOL = 1e-9
# A level redraws its multipliers or weights up to MAX_LEVEL_RETRIES times
# while its shift system's condition estimate exceeds LEVEL_CONDITION_LIMIT.
# The limit is below 1 / linalg.SINGULAR_RTOL (about 4.5e12), so an accepted
# matrix is not singular to working tolerance.
MAX_LEVEL_RETRIES = 4
LEVEL_CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class RecoveryConfig:
    """Tunable knobs of the recovery drivers.  The method's own tolerances
    are the module constants above."""

    rank_rel_tol: float = linalg.DEFAULT_RANK_RTOL
    max_terms: int = 16
    budget_cap: int | None = None
    rescue_k_max: int = 0
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.rank_rel_tol < 1:
            raise InputError(
                f"rank_rel_tol must lie in (0, 1), got {self.rank_rel_tol}"
            )
        if self.max_terms < 1:
            raise InputError("max_terms must be >= 1")
        if self.budget_cap is not None and self.budget_cap < 1:
            raise InputError("budget_cap must be >= 1 when set")
        if self.rescue_k_max < 0:
            raise InputError("rescue_k_max must be >= 0")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "RecoveryConfig":
        data = _json.mapping(data, "recovery config")
        types = {f.name: f.type for f in fields(cls)}
        unknown = set(data) - set(types)
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        for name, value in data.items():
            if isinstance(value, bool) or not isinstance(
                value, _JSON_TYPES[types[name]]
            ):
                raise InputError(
                    f"config key {name} must be {types[name]}, got {value!r}"
                )
        return cls(**data)


@dataclass(frozen=True, eq=False)
class LevelState:
    """Snapshot after one identification level.

    A pile is a group of terms indistinguishable up to this level.  Row j
    of the read-only complex ``inner_products`` array, of shape (piles,
    level + 1), holds pile j's inner products with directions 0..level;
    ``coefficient_sums[j]`` is the sum of its terms' coefficients.  Rows
    come in lexicographic (Re, Im) order: of the base nodes exp(psi_0) at
    level 0 and in known-n recovery, of the inner-product rows at a split
    level.  ``split_ranks`` holds the detected rank of each pile that was
    processed at this level (empty at level 0, where piles are created
    rather than split).
    """

    inner_products: np.ndarray
    coefficient_sums: np.ndarray
    split_ranks: tuple[int, ...] = ()

    def __post_init__(self):
        for name in ("inner_products", "coefficient_sums"):
            view = np.asarray(getattr(self, name), dtype=complex).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @property
    def level(self) -> int:
        return self.inner_products.shape[1] - 1

    @property
    def pile_count(self) -> int:
        return self.inner_products.shape[0]


@dataclass(frozen=True)
class RecoveryReport:
    """Recovered model plus accounting and diagnostics."""

    model: ExponentialModel
    samples_used: int
    per_level: tuple[LevelState, ...]
    rank_confidences: tuple[RankDecision, ...]
    warnings: tuple[str, ...]
    detected_n: int
    conservation_rel_err: float
    max_residual_rel: float

    def to_dict(self) -> dict:
        return {
            "detected_n": self.detected_n,
            "samples_used": self.samples_used,
            "conservation_rel_err": self.conservation_rel_err,
            "max_residual_rel": self.max_residual_rel,
            "warnings": list(self.warnings),
            "per_level": [
                {
                    "level": lv.level,
                    "pile_count": lv.pile_count,
                    "split_ranks": list(lv.split_ranks),
                    "piles": [
                        {"inner_products": row, "coefficient_sum": total}
                        for row, total in zip(
                            _re_im(lv.inner_products).tolist(),
                            _re_im(lv.coefficient_sums).tolist(),
                        )
                    ],
                }
                for lv in self.per_level
            ],
            "rank_confidences": [
                {
                    "rank": rd.rank,
                    "confident": rd.confident,
                    "singular_values": list(rd.singular_values),
                }
                for rd in self.rank_confidences
            ],
            "model": self.model.to_dict(),
        }


def _re_im(z: np.ndarray) -> np.ndarray:
    """``z`` with each complex entry as its (Re, Im) pair on a new last axis."""
    return np.ascontiguousarray(z).view(float).reshape(*z.shape, 2)


def _shift_matrices(logs, multipliers) -> np.ndarray:
    """The matrices exp(multipliers[..., l] * logs[j]), one per leading index
    of ``multipliers``, after one stacked SVD shows none of them singular.
    A matrix that overflows counts as singular."""
    lg = np.asarray(logs, dtype=complex)
    kappas = np.asarray(multipliers, dtype=float)
    if lg.ndim != 1 or kappas.shape[-1:] != lg.shape:
        raise InputError(
            f"need {lg.size} multipliers per system, got shape {kappas.shape}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        matrices = np.exp(kappas[..., :, None] * lg)
    if not np.isfinite(matrices).all():
        raise SingularMatrixError(
            "shift system overflows; use smaller multipliers"
        )
    sv = linalg.singular_values(matrices)
    singular = sv[..., -1] <= linalg.SINGULAR_RTOL * sv[..., 0]
    if np.any(singular):
        sv = sv[singular][0]
        raise SingularMatrixError(
            "shift system is singular (repeated nodes or unlucky "
            "multipliers); re-draw the multipliers",
            sigma_min=float(sv[-1]),
            sigma_max=float(sv[0]),
        )
    return matrices


def solve_shift_system(logs, multipliers, shift_samples) -> np.ndarray:
    """Solve the exponential Vandermonde system pairing shifts to base nodes.

    The matrix entry (l, j) is exp(multipliers[l] * logs[j]); the solution
    components stay positionally paired with the base node logarithms.
    ``multipliers`` and ``shift_samples`` may carry a leading level axis,
    one system per level, all solved in one call.
    """
    samples = np.asarray(shift_samples, dtype=complex)[..., None]
    return np.linalg.solve(_shift_matrices(logs, multipliers), samples)[..., 0]


def assemble_exponents(log_rows, basis: DirectionBasis) -> np.ndarray:
    """Solve the d x d direction system for each term's exponent vector.

    ``log_rows[j]`` holds the term's inner products with every direction in
    order; the result rows are the exponent vectors phi_j.
    """
    rows = np.asarray(log_rows, dtype=complex)
    if rows.ndim == 1:
        rows = rows[None, :]
    if rows.shape[1] != basis.dimension:
        raise DimensionMismatchError(
            f"need {basis.dimension} inner products per term, "
            f"got {rows.shape[1]}"
        )
    return np.linalg.solve(basis.matrix(), rows.T).T


def disentangle_pile(pile_sequence, r: int):
    """Split a pile sequence into r sub-nodes and coefficient aggregates.

    The sequence holds equidistant samples of the pile's aggregated
    coefficient function along the current shift direction.  For r = 1 the
    sub-node is the ratio of the first two usable samples; otherwise
    :func:`fit_nodes` yields the r distinguishable sub-nodes.  The matching
    aggregates solve the pile's own r x r Vandermonde system, so they sum
    to the pile's leading sequence value.

    Raises :class:`PencilDegenerateError` when the pencil is singular,
    which means r was overestimated, or the sequence has no usable ratio.
    """
    seq = np.asarray(pile_sequence, dtype=complex)
    if r < 1:
        raise InputError("pile rank must be >= 1")
    if seq.ndim != 1 or len(seq) < 2 * r:
        raise InputError(
            f"need at least {2 * r} sequence values for rank {r}, "
            f"got {len(seq)}"
        )
    if r == 1:
        scale = float(np.max(np.abs(seq)))
        if scale == 0.0:
            raise PencilDegenerateError("pile sequence is identically zero")
        for t in range(len(seq) - 1):
            if abs(seq[t]) > 1e-14 * scale:
                return (
                    np.array([seq[t + 1] / seq[t]]),
                    np.array([seq[0]]),
                )
        raise PencilDegenerateError("pile sequence has no usable ratio")
    sub_nodes = fit_nodes(seq, r)
    sub_logs = take_logs(sub_nodes)
    sub_coeffs = linalg.solve(
        linalg.vandermonde(sub_logs, np.arange(r, dtype=float)), seq[:r]
    )
    return sub_nodes, sub_coeffs


def _line_sampler(oracle, origin, step):
    """``sample(start, stop)``: the values at origin + s * step for s =
    start .. stop - 1, drawn in one batch."""
    return lambda start, stop: oracle.sample_many(
        line_points(origin, step, start, stop))


def cancellation_rescue(
    oracle: Oracle,
    direction,
    epsilon,
    k_max: int,
    max_terms: int,
    rel_tol: float = linalg.DEFAULT_RANK_RTOL,
) -> tuple[RankDecision, np.ndarray]:
    """Probe parallel shifts of the base line for terms hidden by cancellation.

    Samples f(k * epsilon + s * direction) for k = 1..k_max, re-runs the
    incremental rank detection per shift, and returns the best decision
    seen with the values of the line it was taken on, read back from the
    ledger: a shifted line re-weights each pile's aggregated coefficient,
    so a pile whose coefficients summed to zero reappears.  A line that
    shows no deficiency up to ``max_terms`` counts as the non-confident
    rank ``max_terms``.  The base rank is either confirmed or revised
    upward.
    """
    direction = np.asarray(direction, dtype=float)
    eps = np.asarray(epsilon, dtype=float)
    if k_max < 1:
        raise InputError("k_max must be >= 1")
    if not (np.isfinite(direction).all() and np.isfinite(eps).all()):
        raise InputError("direction and epsilon components must be finite")
    if not not_parallel(direction, eps):
        raise InputError("epsilon must not be parallel to the direction")

    def probe(k):
        start = oracle.ledger.count
        try:
            decision = detect_sparsity(
                _line_sampler(oracle, k * eps, direction), max_terms, rel_tol
            )
        except SparsityUndetectedError:
            decision = RankDecision(max_terms, (), 0.0, False)
        return decision, oracle.ledger.arrays(start)[1]

    # the shifts are probed in order; the first best decision wins
    return max(map(probe, range(1, k_max + 1)),
               key=lambda probed: (probed[0].confident, probed[0].rank))


def _node_sort_order(logs) -> np.ndarray:
    nodes = np.exp(np.asarray(logs, dtype=complex))
    return np.lexsort((nodes.imag, nodes.real))


def sample_residuals(model, points, values):
    """Model values ``exp(P @ E^T) @ c`` at the (m, d) sample ``points`` and
    their errors relative to ``max(|value|, RESIDUAL_FLOOR * max |v|)``
    against the m sampled ``values``, as ``(predicted, rel_err)`` arrays in
    sample order.  When every sample is zero the floor is 1, so the errors
    are absolute."""
    points = np.asarray(points, dtype=float).reshape(-1, model.dimension)
    values = np.asarray(values, dtype=complex)
    predicted = exp_matrix(model, points) @ model.coefficients()
    magnitudes = np.abs(values)
    peak = float(np.max(magnitudes, initial=0.0))
    floor = RESIDUAL_FLOOR * peak if peak > 0 else 1.0
    return predicted, np.abs(predicted - values) / np.maximum(magnitudes, floor)


def _check_oracle(oracle, basis):
    if oracle.dimension != basis.dimension:
        raise DimensionMismatchError(
            f"oracle dimension {oracle.dimension} != basis dimension "
            f"{basis.dimension}"
        )


class _Run:
    """The record of one adaptive run: its oracle seen through the sample
    budget, the rng that redraws ill-conditioned levels, and the levels,
    rank decisions and warnings its report is built from.  ``sample_many``
    charges the whole batch before it draws; ``levels`` is reported as the
    partial.  ``ledger`` is the oracle's, from which the run reads its
    lines back."""

    def __init__(self, oracle: Oracle, basis: DirectionBasis,
                 config: RecoveryConfig):
        self.oracle, self.basis, self.config = oracle, basis, config
        self.cap = config.budget_cap or budget_bound(basis.dimension,
                                                     config.max_terms)
        self.rng = np.random.default_rng(config.seed)
        self.levels: list[LevelState] = []
        self.decisions: list[RankDecision] = []
        self.warnings: list[str] = []
        self.ledger = oracle.ledger
        self.start = oracle.ledger.count

    def sample_many(self, points) -> np.ndarray:
        spent = self.oracle.ledger.count - self.start
        if spent + len(points) > self.cap:
            raise BudgetExceededError(
                f"sample budget cap {self.cap} would be exceeded "
                f"(spent {spent}, requesting {len(points)} more)",
                samples_used=spent,
                partial={
                    "levels_completed": len(self.levels),
                    "pile_counts": [lv.pile_count for lv in self.levels],
                },
            )
        return self.oracle.sample_many(points)


def _model(exponents, coefficients) -> ExponentialModel:
    """Canonical model of the terms pairing each coefficient with its row of
    the (terms, d) ``exponents`` array."""
    return canonicalize(ExponentialModel(coefficients, exponents), MERGE_TOL)


def _report(model, points, values, levels, decisions, warnings, alphas, f0):
    """The report of a run that drew the samples ``values`` at ``points``;
    the base coefficients ``alphas`` should sum to the first sample ``f0``."""
    residuals = sample_residuals(model, points, values)[1]
    return RecoveryReport(
        model=model,
        samples_used=len(values),
        per_level=tuple(levels),
        rank_confidences=tuple(decisions),
        warnings=tuple(warnings),
        detected_n=model.n_terms,
        conservation_rel_err=float(
            abs(np.sum(alphas) - f0) / max(abs(f0), 1e-300)
        ),
        max_residual_rel=float(residuals.max(initial=0.0)),
    )


def recover_known_n(oracle: Oracle, basis: DirectionBasis,
                    n: int) -> RecoveryReport:
    """Recover an n-term model from exactly (d+1) n samples.

    Requires the base direction to separate all n terms; a rank deficiency
    or a pair of nearly coincident nodes raises
    :class:`CollisionDetectedError`, directing the caller to
    :func:`recover_unknown_n`.
    """
    check_term_count(n)
    _check_oracle(oracle, basis)
    d = basis.dimension
    start = oracle.ledger.count
    base_points, kappas, shift_points = known_n_points(basis, n)
    values = oracle.sample_many(base_points)

    decision = linalg.numerical_rank(
        linalg.hankel(values, n, n), COLLISION_RTOL
    )
    if decision.rank < n:
        raise CollisionDetectedError(
            f"base direction separates only {decision.rank} of {n} terms; "
            "use recover_unknown_n",
            nu=decision.rank,
        )

    try:
        nodes = fit_nodes(values, n, decision.singular_values)
    except PencilDegenerateError as exc:
        raise CollisionDetectedError(
            f"node fit failed at rank {n} ({exc}); use recover_unknown_n",
            nu=decision.rank,
        ) from exc
    if n > 1:
        scale = float(np.max(np.abs(nodes)))
        gaps = np.abs(nodes[:, None] - nodes[None, :])
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() <= NODE_TOL * scale:
            raise CollisionDetectedError(
                "two base nodes nearly coincide; use recover_unknown_n",
                nu=n - 1,
            )
    logs = take_logs(nodes)
    logs = logs[_node_sort_order(logs)]
    alphas = fit_coefficients(logs, values)
    magnitudes = np.abs(alphas)
    if d > 1 and np.any(magnitudes < CANCELLATION_RTOL * magnitudes.max()):
        raise CancellationSuspectedError(
            "a recovered base coefficient is vanishingly small; the "
            "shift ratios are unreliable (suspect coefficient cancellation)"
        )

    # inner[i, j]: term j's inner product with direction i
    inner = logs[None]
    if d > 1:
        # the levels share one shift system, checked before any of the
        # (d-1) n shift points is drawn; the points go out in one batch,
        # level 1 first
        matrix = _shift_matrices(logs, kappas)
        shift_values = oracle.sample_many(shift_points.reshape(-1, d))
        aggregates = np.linalg.solve(matrix, shift_values.reshape(d - 1, n, 1))
        inner = np.vstack([inner, take_logs(aggregates[..., 0] / alphas)])
    levels = [LevelState(inner.T[:, : i + 1], alphas) for i in range(d)]
    model = _model(assemble_exponents(inner.T, basis), alphas)
    return _report(model, *oracle.ledger.arrays(start), levels, (decision,),
                   (), alphas, values[0])


def recover_unknown_n(oracle: Oracle, basis: DirectionBasis,
                      config: RecoveryConfig | None = None) -> RecoveryReport:
    """Adaptive recovery with unknown term count and colliding projections.

    The base stage fits the level-0 piles.  Each further direction i then
    solves level i's shift system, grows the pile sequences until every
    pile's rank is settled, and splits the piles.  A least-squares refit over
    every sample drawn gives the final coefficients.
    """
    if config is None:
        config = RecoveryConfig()
    _check_oracle(oracle, basis)
    run = _Run(oracle, basis, config)
    base_alphas, f0 = _base_stage(run)
    for i in range(1, basis.dimension):
        inner = run.levels[-1].inner_products
        matrix, weights, kappas = _level_system(run, i, inner)
        sequences, ranks = _pile_sequences(
            run, i, matrix, weights, kappas, run.levels[-1].coefficient_sums
        )
        _split_piles(run, inner, sequences, ranks)
    return _final_refit(run, base_alphas, f0)


def _base_stage(run: _Run):
    """Detect the base rank, rescued from cancellation when configured, fit
    the base nodes and the pile coefficient sums, and record level 0.
    Returns the base coefficients and the first base sample, which they
    should sum to."""
    config, base_dir = run.config, run.basis.direction(0)
    base = _line_sampler(run, np.zeros(run.basis.dimension), base_dir)
    decision = detect_sparsity(base, config.max_terms, config.rank_rel_tol)
    values = run.ledger.arrays(run.start)[1]
    run.decisions.append(decision)
    nu = decision.rank
    if not decision.confident:
        run.warnings.append(
            f"base rank {nu} is not confident; continuing with best guess"
        )

    fit_values = values
    if config.rescue_k_max > 0:
        epsilon = default_rescue_epsilon(base_dir, config.seed)
        rescued, rescue_values = cancellation_rescue(
            run, base_dir, epsilon, config.rescue_k_max, config.max_terms,
            config.rank_rel_tol,
        )
        run.decisions.append(rescued)
        if rescued.rank > nu:
            run.warnings.append(
                f"cancellation rescue raised the term count {nu} -> "
                f"{rescued.rank}"
            )
            nu, fit_values = rescued.rank, rescue_values
    if nu == 0:
        raise CancellationSuspectedError(
            "the base line shows no term (rank 0 with rescue_k_max = "
            f"{config.rescue_k_max}); its coefficients may cancel: raise "
            "rescue_k_max to probe parallel lines"
        )

    logs = take_logs(fit_nodes(fit_values, nu))
    # pile coefficient sums always come from the unshifted base line,
    # extended to 2 nu values when the rescue raised nu past what it holds
    if len(values) < 2 * nu:
        values = np.concatenate([values, base(len(values), 2 * nu)])
    alphas = fit_coefficients(logs, values)
    # the piles: row j of ``inner_products`` holds pile j's inner products
    # with the directions so far, ``coefficient_sums[j]`` its coefficient sum
    order = _node_sort_order(logs)
    run.levels.append(LevelState(logs[order][:, None], alphas[order]))
    return alphas, values[0]


def _level_system(run: _Run, i: int, inner):
    """Level i's shift matrix exp(kappa_l omega_j) on the accumulated inner
    products omega = inner @ weights, with the weights and multipliers that
    gave it.  It starts from the default geometry of ``level_geometry``;
    while its condition estimate exceeds LEVEL_CONDITION_LIMIT, the
    multipliers and the weights are redrawn in turn.  A matrix that
    overflows counts as singular."""
    count = len(inner)
    kappas, weights = level_geometry(i, count)
    for attempt in range(MAX_LEVEL_RETRIES + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            matrix = linalg.vandermonde(np.sum(inner * weights, axis=1), kappas)
        # the limit is below 1 / SINGULAR_RTOL, so the solves of the pile
        # sequences can trust this SVD's verdict
        if (np.isfinite(matrix).all()
                and linalg.condition_estimate(matrix) <= LEVEL_CONDITION_LIMIT):
            return matrix, weights, kappas
        if attempt % 2 == 0:
            kappas = _redraw_multipliers(run.rng, count)
        else:
            weights = _perturb_weights(run.rng, weights)
        run.warnings.append(
            f"level {i} shift system ill-conditioned; retry {attempt + 1}"
        )
    raise SingularMatrixError(
        f"level {i} shift system stayed singular after "
        f"{MAX_LEVEL_RETRIES} retries"
    )


def _pile_sequences(run: _Run, i: int, matrix, weights, kappas, sums):
    """Grow the pile sequences along direction i with :func:`grow_ranks`,
    each step one charge, one draw and one solve for shift steps 2m - 1 and
    2m, up to the size cap max_terms - piles + 1; returns the sequences,
    one row per pile, and the ranks.  A pile that settles at rank 0, below
    the level's noise floor, is taken as a single term; a non-confident
    rank is accepted.  Both leave a warning."""
    count, config = len(sums), run.config
    max_pile = config.max_terms - count + 1
    if max_pile < 1:
        raise SparsityUndetectedError(
            f"level {i} starts with {count} piles, more than max_terms = "
            f"{config.max_terms}"
        )

    def draw(m):
        values = run.sample_many(level_points(run.basis, i, weights, kappas,
                                              [2 * m - 1, 2 * m]))
        return np.linalg.solve(matrix, values.reshape(2, count).T)

    try:
        sequences, settled = grow_ranks(sums, draw, max_pile,
                                        config.rank_rel_tol)
    except SparsityUndetectedError as exc:
        raise SparsityUndetectedError(
            f"a pile at level {i} exceeds the remaining term budget "
            f"({max_pile}); raise max_terms"
        ) from exc
    ranks = [0] * count
    for j, decision in settled:
        ranks[j] = max(decision.rank, 1)
        run.decisions.append(decision)
        if decision.rank == 0:
            run.warnings.append(f"pile {j} at level {i} stayed below the "
                                "noise floor; treating it as a single term")
        elif not decision.confident:
            run.warnings.append(f"pile {j} at level {i}: accepting "
                                f"non-confident rank {decision.rank}")
    return sequences, ranks


def _split_piles(run: _Run, inner, sequences, ranks) -> None:
    """Split every pile into the sub-piles its sequence resolves and record
    the level.  A degenerate pencil raises :class:`PencilDegenerateError`."""
    new_logs, new_sums = [], []
    for seq, r in zip(sequences, ranks):
        sub_nodes, sub_coeffs = disentangle_pile(seq, r)
        new_logs.append(take_logs(sub_nodes))
        new_sums.append(sub_coeffs)
    # each sub-pile inherits its pile's row and appends its sub-log;
    # one stable sort orders the rows by their (Re, Im) pairs
    inner = np.column_stack(
        [np.repeat(inner, ranks, axis=0), np.concatenate(new_logs)]
    )
    order = np.lexsort(_re_im(inner).reshape(len(inner), -1).T[::-1])
    run.levels.append(LevelState(
        inner[order], np.concatenate(new_sums)[order], tuple(ranks)
    ))


def _final_refit(run: _Run, base_alphas, f0) -> RecoveryReport:
    """The run's report, with the last level's piles as terms and their
    coefficients refit by least squares over every sample the run drew."""
    piles = run.levels[-1]
    provisional = _model(
        assemble_exponents(piles.inner_products, run.basis),
        piles.coefficient_sums,
    )
    points, observed = run.oracle.ledger.arrays(run.start)
    try:
        final_alphas = linalg.solve_least_squares(
            exp_matrix(provisional, points), observed,
            rcond=run.config.rank_rel_tol,
        )
        model = _model(provisional.exponent_matrix(), final_alphas)
    except RankDeficiencyError:
        run.warnings.append(
            "final coefficient refit was rank deficient; keeping the "
            "pile aggregates"
        )
        model = provisional
    return _report(model, points, observed, run.levels, run.decisions,
                   run.warnings, base_alphas, f0)


def _redraw_multipliers(rng, count: int) -> np.ndarray:
    for _ in range(32):
        draw = rng.uniform(0.0, count, size=count)
        if len(np.unique(np.round(draw, 12))) == count:
            return draw
    raise SingularMatrixError("could not draw distinct shift multipliers")


def _perturb_weights(rng, weights) -> np.ndarray:
    weights = np.asarray(weights, dtype=float).copy()
    if weights.size > 1:
        weights[1:] *= 1.0 + rng.uniform(-0.1, 0.1, size=weights.size - 1)
    else:
        weights *= 1.0 + rng.uniform(0.05, 0.15)
    return weights

"""Batched draws and solves: ledger order, frozen ledgers, error paths.

Each fixed sample set of a driver is one ``sample_many`` call and each group
of same-shaped solves one numpy call.  A successful run's ledger (the log of
every oracle call) must stay byte-identical to the per-column schedule it
replaced; a run that raises may stop earlier, never later, and never holds a
sample the per-column schedule would not have drawn.
"""

import hashlib
import warnings

import numpy as np
import pytest

from expsum import (
    BudgetExceededError,
    CancellationSuspectedError,
    DirectionBasis,
    ExponentialModel,
    InputError,
    MissingSampleError,
    RecoveryConfig,
    SingularMatrixError,
    SyntheticOracle,
    TabulatedOracle,
    Term,
    detect_sparsity,
    identity_basis,
    plan_points,
    recover_known_n,
    recover_unknown_n,
    solve_shift_system,
)
from expsum.synth import (
    cancellation_instance,
    collision_instance,
    model_from_inner_products,
    random_basis,
    random_coefficients,
    random_model,
)

from helpers import model_error, reference_model, scenario_two_basis


def ledger_points(oracle) -> np.ndarray:
    return np.array([p for p, _ in oracle.ledger.entries], dtype=float)


def ledger_digest(oracle) -> str:
    """SHA-256 of the ledger's point sequence, in call order."""
    points = np.ascontiguousarray(ledger_points(oracle))
    return hashlib.sha256(points.tobytes()).hexdigest()


# Ledger digests of the per-column schedule, recorded before batching.
REFERENCE_SCENARIO_DIGEST = (
    "faf036b003426b926ec551345b17b27829b9a66e011ec58cc069d4b5e0e8049e"
)
COLLISION_DIGESTS = [
    # (dimension, pile sizes, deep collision, seed, samples, digest)
    (2, (2, 1), False, 40, 13,
     "c4025b54a4baa9069fa827e0074a2e372bd911a3372a5e7ba984ad62e19f3b25"),
    (3, (3, 1), True, 41, 25,
     "1d495e5bd29836b601d8f7c9bc0abfe63b819be3df0d170b3f8d76c64a4cac1e"),
    (3, (2, 2, 1), False, 42, 29,
     "403f35490c3a59f2d0db14c45c37c24f6bf6e6d545f243beb51cd1de1961941a"),
]
RESCUE_DIGEST = (
    "e35161fc93798f8396c36eaa0e7b31fd8f3ea9367510caaf4b398ecb0cb3f600"
)


def pinned_basis() -> DirectionBasis:
    return DirectionBasis(
        3,
        ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
        multipliers={1: (0.5, 1.5, 2.5), 2: (0.25, 1.0, 3.0)},
    )


@pytest.mark.parametrize("basis", [identity_basis(3), pinned_basis()],
                         ids=["identity", "pinned"])
def test_known_n_ledger_is_plan_points_in_order(basis):
    rng = np.random.default_rng(50)
    model = random_model(3, 3, rng, basis)
    oracle = SyntheticOracle(model)
    recover_known_n(oracle, basis, 3)
    assert np.array_equal(ledger_points(oracle), np.array(plan_points(basis, 3)))


@pytest.mark.parametrize("d, svds", [(1, 1), (3, 2)])
def test_known_n_decomposes_each_matrix_once(monkeypatch, d, svds):
    # one SVD of the base Hankel matrix serves the rank decision and the
    # pencil; d > 1 adds one stacked SVD of the shift matrices
    basis = identity_basis(d)
    model = random_model(d, 4, np.random.default_rng(53), basis)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **k: calls.append(1) or svd(*a, **k))
    report = recover_known_n(SyntheticOracle(model), basis, 4)
    assert report.samples_used == (d + 1) * 4
    assert len(calls) == svds


def test_known_n_base_points_have_no_negative_zero():
    basis = DirectionBasis(2, ((-0.3, -0.2), (0.1, -0.4)))
    model = random_model(2, 3, np.random.default_rng(54), basis)
    oracle = SyntheticOracle(model)
    recover_known_n(oracle, basis, 3)
    points, _ = oracle.ledger.arrays()
    assert points[0].tolist() == [0.0, 0.0]
    assert not np.any(np.signbit(points[0]))
    # byte for byte: np.array_equal would not see the sign of a zero
    assert np.array(plan_points(basis, 3)).tobytes() == points.tobytes()


def test_stacked_shift_solve_matches_per_level_solves():
    rng = np.random.default_rng(51)
    logs = rng.uniform(-0.3, 0.3, 4) + 1j * rng.uniform(-2, 2, 4)
    kappas = np.array([[0.0, 1.0, 2.0, 3.0], [0.5, 1.25, 2.0, 3.5],
                       [0.1, 0.7, 1.9, 2.6]])
    samples = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    stacked = solve_shift_system(logs, kappas, samples)
    assert stacked.shape == (3, 4)
    for level in range(3):
        single = solve_shift_system(logs, kappas[level], samples[level])
        np.testing.assert_allclose(stacked[level], single, rtol=0, atol=1e-13)


def test_shift_solve_rejects_a_multiplier_count_mismatch():
    with pytest.raises(InputError):
        solve_shift_system([0.1j, 0.2j], [0.0, 1.0, 2.0], [1.0, 2.0, 3.0])


def test_shift_solve_singular_system_raises():
    with pytest.raises(SingularMatrixError) as err:
        solve_shift_system([0.1j, 0.1j], [[0.0, 1.0]], [[1.0, 2.0]])
    assert err.value.sigma_min <= 1e-12 * err.value.sigma_max


@pytest.mark.parametrize("d, piles, deep, seed, samples, digest",
                         COLLISION_DIGESTS)
def test_collision_ledger_is_frozen(d, piles, deep, seed, samples, digest):
    rng = np.random.default_rng(seed)
    basis = random_basis(d, rng)
    model = collision_instance(d, rng, basis, pile_sizes=piles,
                               deep_collision=deep)
    oracle = SyntheticOracle(model)
    report = recover_unknown_n(oracle, basis, RecoveryConfig(max_terms=8))
    assert report.detected_n == model.n_terms
    assert report.samples_used == samples
    assert ledger_digest(oracle) == digest


def test_rescue_ledger_is_frozen():
    rng = np.random.default_rng(43)
    basis = identity_basis(2)
    model = cancellation_instance(2, rng, basis, extra_terms=2)
    oracle = SyntheticOracle(model)
    report = recover_unknown_n(
        oracle, basis, RecoveryConfig(max_terms=8, rescue_k_max=2)
    )
    assert any("rescue" in w for w in report.warnings)
    assert report.samples_used == 32
    assert ledger_digest(oracle) == RESCUE_DIGEST


def test_detect_sparsity_asks_for_each_pair_later_index_first():
    asked = []

    def supplier(s):
        asked.append(s)
        return 3.0

    detect_sparsity(supplier, max_terms=4)
    assert asked == [0, 2, 1]


def test_known_n_cancellation_stops_after_the_base_samples():
    model = ExponentialModel(
        2,
        (Term(1.0, (0.2 + 0.3j, 1.0j)), Term(8e-13, (4.0 - 2.8j, 0.4j))),
    )
    oracle = SyntheticOracle(model)
    with pytest.raises(CancellationSuspectedError):
        recover_known_n(oracle, identity_basis(2), 2, RecoveryConfig())
    assert oracle.ledger.count == 2 * 2


def test_budget_cap_sweep_stops_no_later_than_the_cap():
    config = RecoveryConfig(max_terms=8)
    full = SyntheticOracle(reference_model())
    need = recover_unknown_n(full, scenario_two_basis(), config).samples_used
    assert ledger_digest(full) == REFERENCE_SCENARIO_DIGEST
    outcomes = []
    for cap in range(1, need + 1):
        oracle = SyntheticOracle(reference_model())
        capped = RecoveryConfig(max_terms=8, budget_cap=cap)
        try:
            report = recover_unknown_n(oracle, scenario_two_basis(), capped)
        except BudgetExceededError as exc:
            assert exc.samples_used <= cap
            assert exc.samples_used == oracle.ledger.count
            used = exc.samples_used
            # a prefix of the unconstrained run: no sample it would not draw
            assert np.array_equal(ledger_points(oracle),
                                  ledger_points(full)[:used])
            outcomes.append(("raised", used))
        else:
            assert report.samples_used == oracle.ledger.count <= cap
            assert ledger_digest(oracle) == REFERENCE_SCENARIO_DIGEST
            outcomes.append(("ok", report.samples_used))
    assert outcomes[-1] == ("ok", need)
    assert all(kind == "raised" for kind, _ in outcomes[:-1])


def test_known_n_missing_level_two_point_records_no_shift_sample():
    n = 2
    basis = identity_basis(3)
    model = random_model(3, n, np.random.default_rng(52), basis)
    points = plan_points(basis, n)
    missing = 2 * n + n  # level 2's first shift point
    table = TabulatedOracle(3)
    truth = SyntheticOracle(model)
    for k, point in enumerate(points):
        if k != missing:
            table.add(point, truth.sample(point))
    with pytest.raises(MissingSampleError):
        recover_known_n(table, basis, n)
    assert np.array_equal(ledger_points(table), np.array(points[: 2 * n]))


def test_unknown_n_singular_level_matrix_raises_under_a_huge_limit():
    # a limit at or above 1 / SINGULAR_RTOL would accept a matrix that is
    # singular to working precision, so the config refuses it up front
    with pytest.raises(InputError, match="level_condition_limit"):
        RecoveryConfig(level_condition_limit=1e300)
    # level-0 and level-1 inner products swapped between two terms make the
    # default accumulated direction at level 2 singular to working precision;
    # a limit just below 1 / SINGULAR_RTOL still rejects it and retries
    basis = identity_basis(3)
    psi = np.array(
        [
            [0.1 + 0.2j, 0.3 - 0.1j, 0.05j],
            [0.3 - 0.1j, 0.1 + 0.2j, 0.2 + 0.1j],
            [-0.2 + 0.0j, 0.15 + 0.0j, -0.1 + 0.0j],
        ]
    )
    model = model_from_inner_products(
        psi, basis, random_coefficients(3, np.random.default_rng(27))
    )
    oracle = SyntheticOracle(model)
    config = RecoveryConfig(max_terms=6, level_condition_limit=4.4e12)
    report = recover_unknown_n(oracle, basis, config)
    assert report.detected_n == 3
    assert any("retry" in w for w in report.warnings)
    assert report.samples_used == 19
    assert model_error(report.model, model) < 1e-6


def overflowing_model() -> ExponentialModel:
    return ExponentialModel(1, (Term(1.0, (800.0,)), Term(2.0, (0.1j,))))


def test_known_n_rejects_an_overflowing_source_with_an_empty_ledger():
    oracle = SyntheticOracle(overflowing_model())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(InputError, match="overflowed or is not finite"):
            recover_known_n(oracle, identity_basis(1), 2)
    assert oracle.ledger.count == 0


def test_unknown_n_rejects_an_overflowing_source_before_recording_it():
    oracle = SyntheticOracle(overflowing_model())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(InputError, match=r"point \(1\.0,\)"):
            recover_unknown_n(oracle, identity_basis(1))
    # only f(0) = 3 was recorded; the batch holding f(1) = inf was refused
    assert oracle.ledger.count == 1
    assert all(np.isfinite(v) for _, v in oracle.ledger.entries)

"""Recovery drivers: fixed-budget path, adaptive path, piles, rescue, budget."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expsum import (
    BudgetExceededError,
    CancellationSuspectedError,
    CollisionDetectedError,
    DirectionBasis,
    ExpsumError,
    ExponentialModel,
    InputError,
    NoisyOracle,
    RankDecision,
    RecoveryConfig,
    SparsityUndetectedError,
    SyntheticOracle,
    budget_bound,
    canonicalize,
    evaluate,
    identity_basis,
    recover_known_n,
    recover_unknown_n,
)
from expsum.linalg import vandermonde
from expsum._schedule import line_points
from expsum.multivar import (
    RESIDUAL_FLOOR,
    _line_sampler,
    assemble_exponents,
    cancellation_rescue,
    default_rescue_epsilon,
    disentangle_pile,
    sample_residuals,
    solve_shift_system,
)
from expsum.prony import (
    detect_sparsity,
    fit_coefficients,
    fit_nodes,
    take_logs,
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


def test_known_n_univariate_degenerates_to_prony():
    rng = np.random.default_rng(20)
    basis = identity_basis(1)
    model = random_model(1, 3, rng, basis)
    oracle = SyntheticOracle(model)
    report = recover_known_n(oracle, basis, 3)
    assert report.samples_used == 6
    assert model_error(report.model, model) < 1e-8


def test_known_n_random_three_dimensional_model():
    rng = np.random.default_rng(21)
    basis = random_basis(3, rng)
    model = random_model(3, 5, rng, basis)
    oracle = SyntheticOracle(model)
    report = recover_known_n(oracle, basis, 5)
    assert report.samples_used == 20  # (d+1) n
    assert model_error(report.model, model) < 1e-6
    assert report.max_residual_rel < 1e-6
    assert report.conservation_rel_err < 1e-8


def test_known_n_collision_raises_with_nu():
    basis = identity_basis(2)
    # two terms with identical first exponent component collide along e_1
    model = ExponentialModel(
        [1.0, 2.0, 1.5],
        [(0.2 + 0.3j, 1.0j), (0.2 + 0.3j, -0.7j), (-0.1 + 1.1j, 0.4j)],
    )
    oracle = SyntheticOracle(model)
    with pytest.raises(CollisionDetectedError) as err:
        recover_known_n(oracle, basis, 3)
    assert err.value.nu == 2


def test_known_n_near_coincident_nodes_detected(monkeypatch):
    # nodes about 1e-4 apart: on exact data the rank check already fails for
    # nodes as close as the default NODE_TOL, so a looser rank threshold and
    # a wider node tolerance let these pass the rank check and hit the node
    # check instead
    monkeypatch.setattr("expsum.multivar.COLLISION_RTOL", 1e-12)
    monkeypatch.setattr("expsum.multivar.NODE_TOL", 1e-3)
    basis = identity_basis(2)
    model = ExponentialModel(
        [1.0, 2.0, 1.5],
        [(0.2 + 0.3j, 1.0j), (0.2 + 0.3j + 1e-4, -0.7j), (-0.1 + 1.1j, 0.4j)],
    )
    oracle = SyntheticOracle(model)
    with pytest.raises(CollisionDetectedError, match="nearly coincide"):
        recover_known_n(oracle, basis, 3)


def test_known_n_tiny_coefficient_flags_cancellation():
    basis = identity_basis(2)
    model = ExponentialModel([1.0, 8e-13], [(0.2 + 0.3j, 1.0j), (4.0 - 2.8j, 0.4j)])
    oracle = SyntheticOracle(model)
    with pytest.raises(CancellationSuspectedError):
        recover_known_n(oracle, basis, 2)


def test_solve_shift_system_single_node():
    aggregates = solve_shift_system([0.3 + 0.2j], [0.0], [5.0 - 1.0j])
    assert np.allclose(aggregates, [5.0 - 1.0j])


def test_solve_shift_system_integer_multipliers_match_base_matrix():
    rng = np.random.default_rng(22)
    logs = rng.uniform(-0.3, 0.3, 4) + 1j * rng.uniform(-2, 2, 4)
    shift_matrix = vandermonde(logs, np.arange(4.0))
    base_matrix = vandermonde(logs, np.arange(0.0, 4.0))
    assert np.allclose(shift_matrix, base_matrix)


def test_solve_shift_system_reference_shift_log():
    model = reference_model()
    basis = DirectionBasis(2, ((0.01, 0.01), (-0.01, 0.01)))
    oracle = SyntheticOracle(model)
    seq = oracle.sample_many(line_points(np.zeros(2), basis.direction(0), 0, 8))
    logs = take_logs(fit_nodes(seq, 4))
    alphas = fit_coefficients(logs, seq)
    kappas = np.arange(4.0)
    shift_values = [
        oracle.sample(k * basis.direction(0) + basis.direction(1))
        for k in kappas
    ]
    aggregates = solve_shift_system(logs, kappas, shift_values)
    shift_logs = take_logs(aggregates / alphas)
    j = int(np.argmin(np.abs(logs - (0.005 + 0.03142j))))
    assert abs(shift_logs[j] - (0.015 + 0.03142j)) < 5e-4


def test_assemble_exponents_identity_basis_is_passthrough():
    rows = np.array([[0.1 + 2.0j, -0.5j, 3.0]], dtype=complex)
    got = assemble_exponents(rows, identity_basis(3))
    assert np.allclose(got, rows)


def test_assemble_exponents_reference_first_term():
    basis = DirectionBasis(2, ((0.01, 0.01), (-0.01, 0.01)))
    got = assemble_exponents(
        np.array([[0.005 + 0.03142j, 0.015 + 0.03142j]]), basis
    )
    assert np.allclose(got[0], [-0.5, 1.0 + 3.142j], atol=1e-9)


def test_assemble_exponents_random_roundtrip():
    rng = np.random.default_rng(23)
    basis = random_basis(4, rng)
    phis = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    rows = phis @ basis.matrix().T
    assert np.allclose(assemble_exponents(rows, basis), phis, atol=1e-12)


def test_disentangle_pile_rank_one_is_sample_ratio():
    seq = np.array([2.0 + 1j, (2.0 + 1j) * 0.8, (2.0 + 1j) * 0.64])
    nodes, coeffs = disentangle_pile(seq, 1)
    assert np.allclose(nodes, [0.8])
    assert np.allclose(coeffs, [2.0 + 1j])


def test_disentangle_pile_random_three_term_pile():
    # synthesize the aggregated-coefficient sequence directly
    rng = np.random.default_rng(24)
    omegas = rng.uniform(-0.2, 0.2, 3) + 1j * rng.uniform(-2, 2, 3)
    betas = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    seq = np.array(
        [betas @ np.exp(omegas * s) for s in range(6)]
    )
    nodes, coeffs = disentangle_pile(seq, 3)
    order_got = np.argsort(np.log(nodes).imag)
    order_want = np.argsort(omegas.imag)
    assert np.allclose(np.log(nodes)[order_got], omegas[order_want], atol=1e-8)
    assert np.allclose(coeffs[order_got], betas[order_want], atol=1e-8)
    # aggregates are conservative: they sum to the leading sequence value
    assert abs(np.sum(coeffs) - seq[0]) < 1e-8 * abs(seq[0])


def test_unknown_n_collision_free_matches_known_n():
    rng = np.random.default_rng(25)
    basis = random_basis(2, rng)
    model = random_model(2, 3, rng, basis)
    known = recover_known_n(SyntheticOracle(model), basis, 3)
    oracle = SyntheticOracle(model)
    unknown = recover_unknown_n(oracle, basis)
    assert unknown.detected_n == 3
    assert model_error(unknown.model, known.model) < 1e-9
    # base certification costs one extra sample, level certification two per
    # pile and level
    d, n = 2, 3
    assert unknown.samples_used == (2 * n + 1) + (d - 1) * 2 * n


def test_unknown_n_reference_collision_scenario():
    oracle = SyntheticOracle(reference_model())
    report = recover_unknown_n(
        oracle, scenario_two_basis(), RecoveryConfig(max_terms=8)
    )
    assert report.detected_n == 4
    assert report.samples_used == 19
    assert report.per_level[0].pile_count == 3
    assert sorted(report.per_level[1].split_ranks) == [1, 1, 2]
    assert report.max_residual_rel < 1e-9


def test_unknown_n_planted_deep_collision_three_dimensional():
    rng = np.random.default_rng(26)
    basis = random_basis(3, rng)
    model = collision_instance(
        3, rng, basis, pile_sizes=(3, 1), deep_collision=True
    )
    n = model.n_terms
    oracle = SyntheticOracle(model)
    report = recover_unknown_n(oracle, basis, RecoveryConfig(max_terms=8))
    assert report.detected_n == n
    assert model_error(report.model, model) < 1e-6
    assert report.samples_used <= budget_bound(3, n)
    counts = [lv.pile_count for lv in report.per_level]
    assert counts == sorted(counts)  # piles only ever split
    assert counts[0] == 2 and counts[-1] == n
    # the deep pile splits incompletely at level 1 and fully at level 2
    assert counts[1] < n


def test_unknown_n_budget_cap_aborts():
    oracle = SyntheticOracle(reference_model())
    with pytest.raises(BudgetExceededError) as err:
        recover_unknown_n(
            oracle, scenario_two_basis(), RecoveryConfig(budget_cap=10)
        )
    assert err.value.samples_used <= 10
    assert err.value.exit_code == 4


def test_unknown_n_level_system_retry_on_accumulated_collision():
    # two terms whose level-0 and level-1 inner products are swapped make
    # the default accumulated direction degenerate at level 2
    basis = identity_basis(3)
    psi = np.array(
        [
            [0.1 + 0.2j, 0.3 - 0.1j, 0.05j],
            [0.3 - 0.1j, 0.1 + 0.2j, 0.2 + 0.1j],
            [-0.2 + 0.0j, 0.15 + 0.0j, -0.1 + 0.0j],
        ]
    )
    rng = np.random.default_rng(27)
    model = model_from_inner_products(psi, basis, random_coefficients(3, rng))
    oracle = SyntheticOracle(model)
    report = recover_unknown_n(oracle, basis, RecoveryConfig(max_terms=6))
    assert report.detected_n == 3
    assert model_error(report.model, model) < 1e-6
    assert any("retry" in w for w in report.warnings)


def test_cancellation_rescue_confirms_clean_rank():
    rng = np.random.default_rng(28)
    basis = identity_basis(2)
    model = random_model(2, 3, rng, basis)
    oracle = SyntheticOracle(model)
    epsilon = default_rescue_epsilon(basis.direction(0), seed=5)
    decision, _ = cancellation_rescue(
        oracle, basis.direction(0), epsilon, k_max=2, max_terms=7
    )
    assert decision.rank == 3
    assert decision.confident


def test_cancellation_rescue_reveals_hidden_pile():
    rng = np.random.default_rng(29)
    basis = identity_basis(2)
    model = cancellation_instance(2, rng, basis, extra_terms=2)
    oracle = SyntheticOracle(model)
    masked = detect_sparsity(
        _line_sampler(oracle, np.zeros(2), basis.direction(0)), max_terms=8
    )
    assert masked.rank == 2  # one of three piles sums to zero
    epsilon = default_rescue_epsilon(basis.direction(0), seed=6)
    rescued, _ = cancellation_rescue(
        oracle, basis.direction(0), epsilon, k_max=2,
        max_terms=masked.rank + 4,
    )
    assert rescued.rank == 3


@pytest.mark.parametrize("epsilon", [[np.nan, 0.0], [np.inf, 0.0]])
def test_cancellation_rescue_rejects_non_finite_epsilon(epsilon):
    oracle = SyntheticOracle(ExponentialModel([1.0], [(0.1j, 0.2j)]))
    with pytest.raises(InputError, match="must be finite"):
        cancellation_rescue(oracle, [1.0, 0.0], epsilon, k_max=1,
                            max_terms=2)
    assert oracle.ledger.count == 0


@pytest.mark.parametrize("k_max", [0, -1])
def test_cancellation_rescue_needs_a_shifted_line(k_max):
    oracle = SyntheticOracle(ExponentialModel([1.0], [(0.1j, 0.2j)]))
    with pytest.raises(InputError, match="k_max must be >= 1"):
        cancellation_rescue(oracle, [1.0, 0.0], [0.0, 0.01], k_max=k_max,
                            max_terms=2)
    assert oracle.ledger.count == 0


def exhausted_rescue_instance():
    """A cancellation instance whose three piles outnumber max_terms = 2."""
    basis = identity_basis(2)
    model = cancellation_instance(2, np.random.default_rng(43), basis,
                                  extra_terms=2)
    return model, basis


def test_cancellation_rescue_exhausted_probe_counts_as_full_rank():
    # the shifted line shows three piles, more than max_terms = 2: the
    # probe runs to the cap and reports the non-confident rank max_terms
    # with the 2 * 2 + 1 values it drew
    model, basis = exhausted_rescue_instance()
    oracle = SyntheticOracle(model)
    direction = basis.direction(0)
    decision, values = cancellation_rescue(
        oracle, direction, default_rescue_epsilon(direction, 0), k_max=1,
        max_terms=2,
    )
    assert decision == RankDecision(2, (), 0.0, False)
    assert oracle.ledger.count == 5
    assert values.tolist() == [v for _, v in oracle.ledger.entries]


def test_unknown_n_exhausted_rescue_raises_when_the_base_line_does():
    model, basis = exhausted_rescue_instance()
    oracle = SyntheticOracle(model)
    with pytest.raises(SparsityUndetectedError):
        recover_unknown_n(oracle, basis,
                          RecoveryConfig(max_terms=2, rescue_k_max=1))
    assert oracle.ledger.count == 14


def test_unknown_n_with_rescue_recovers_cancellation_instance():
    rng = np.random.default_rng(31)
    basis = identity_basis(2)
    model = cancellation_instance(2, rng, basis, extra_terms=2)
    oracle = SyntheticOracle(model)
    report = recover_unknown_n(
        oracle, basis, RecoveryConfig(max_terms=8, rescue_k_max=2)
    )
    assert report.detected_n == model.n_terms
    assert model_error(report.model, model) < 1e-6
    assert any("rescue" in w for w in report.warnings)


def test_unknown_n_fully_cancelled_base_line_needs_the_rescue():
    # both terms share the base inner product and their coefficients cancel,
    # so every base sample is zero and the base rank is 0
    model = ExponentialModel([1.0, -1.0], [(0.1j, 0.2j), (0.1j, 0.5j)])
    basis = identity_basis(2)
    oracle = SyntheticOracle(model)
    with pytest.raises(CancellationSuspectedError, match="rescue_k_max = 0"):
        recover_unknown_n(oracle, basis)
    # a confident rank 0 settles on the first window: F_0, F_1, F_2
    assert oracle.ledger.count == 3
    report = recover_unknown_n(SyntheticOracle(model), basis,
                               RecoveryConfig(rescue_k_max=2))
    assert report.detected_n == 2
    assert report.samples_used == 13
    assert model_error(report.model, model) < 1e-6
    # the base samples are exactly zero; their residuals are roundoff
    # relative to the floor, not to nothing
    assert report.max_residual_rel <= 1e-7


def test_budget_bound_values():
    assert budget_bound(3, 1) == 4 * 4 * 1
    # enumerate nu (5 - nu) over nu = 1..4: maximum 6
    assert budget_bound(2, 4) == 4 * 3 * 6
    assert 19 <= budget_bound(2, 4)
    # n = 10**7: the maximum sits at nu = n / 2, giving (n / 2) (n / 2 + 1)
    assert budget_bound(1, 10**7) == 4 * 2 * (5 * 10**6) * (5 * 10**6 + 1)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(-300, 300))
@example(k=-300)
@example(k=-10)
@example(k=300)
def test_both_drivers_recover_a_model_at_any_scale(k):
    # coefficients (1, 2, -1.5) * 10**k: every rank, merge and drop decision
    # is relative, so the scale of the data must not change the recovery
    exponents = ((0.1 + 0.3j, 0.2j), (-0.1 + 1.1j, -0.5j), (0.05 - 0.7j, 0.9j))
    model = ExponentialModel(np.array([1.0, 2.0, -1.5]) * 10.0**k, exponents)
    basis = identity_basis(2)
    for report in (recover_known_n(SyntheticOracle(model), basis, 3),
                   recover_unknown_n(SyntheticOracle(model), basis)):
        assert report.model.n_terms == 3
        assert model_error(report.model, model) < 1e-10


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 4), k=st.integers(-300, 300),
       terms=st.integers(1, 7), rescue_k_max=st.integers(0, 2),
       seed=st.integers(0, 2**32 - 1), known_n=st.booleans())
@example(d=2, k=300, terms=7, rescue_k_max=2, seed=0, known_n=False)
@example(d=4, k=-300, terms=7, rescue_k_max=0, seed=0, known_n=True)
def test_a_pure_noise_source_gives_a_model_or_an_expsum_error(
        d, k, terms, rescue_k_max, seed, known_n):
    # samples with no exponential structure at scale 10**k: a driver may
    # return a model or raise its own error, but nothing else and no warning
    silent = SyntheticOracle(ExponentialModel([0.0], [(0.0,) * d]))
    oracle = NoisyOracle(silent, 10.0**k, seed=seed)
    basis = identity_basis(d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            if known_n:
                recover_known_n(oracle, basis, terms)
            else:
                recover_unknown_n(oracle, basis, RecoveryConfig(
                    max_terms=terms, rescue_k_max=rescue_k_max))
        except ExpsumError:
            pass


def test_conservation_and_residual_reports():
    rng = np.random.default_rng(32)
    basis = random_basis(2, rng)
    model = random_model(2, 4, rng, basis)
    report = recover_known_n(SyntheticOracle(model), basis, 4)
    assert report.conservation_rel_err < 1e-8
    assert report.max_residual_rel < 1e-6


def test_sample_residuals_vectorised_matches_evaluate_loop():
    rng = np.random.default_rng(34)
    basis = random_basis(3, rng)
    model = random_model(3, 5, rng, basis)
    oracle = SyntheticOracle(model)
    recover_known_n(oracle, basis, 5)
    points, values = oracle.ledger.arrays()
    values = values * (1 + 1e-6j)
    predicted, rel_err = sample_residuals(model, points, values)
    loop = np.array([evaluate(model, p) for p in points])
    np.testing.assert_allclose(predicted, loop, rtol=1e-12, atol=0)
    floor = RESIDUAL_FLOOR * np.max(np.abs(values))
    np.testing.assert_allclose(
        rel_err, np.abs(loop - values) / np.maximum(np.abs(values), floor),
        rtol=1e-6,
    )


def test_sample_residuals_empty_ledger_and_all_zero_samples():
    model = ExponentialModel([1.0], [(0.1, -0.2)])
    predicted, rel_err = sample_residuals(model, [], [])
    assert predicted.shape == rel_err.shape == (0,)
    assert rel_err.max(initial=0.0) == 0.0
    zeros = ([(0.0, 0.0), (1.0, 0.0)], [0j, 0j])
    # every sample is zero, so the floor is 1 and the errors are absolute
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        predicted, rel_err = sample_residuals(model, *zeros)
    assert np.all(np.isfinite(rel_err))
    assert rel_err.tolist() == np.abs(predicted).tolist()
    zero_model = ExponentialModel([0.0], [(0.1, -0.2)])
    assert sample_residuals(zero_model, *zeros)[1].tolist() == [0.0, 0.0]


def test_pairing_invariant_under_node_permutation():
    rng = np.random.default_rng(33)
    basis = random_basis(2, rng)
    model = random_model(2, 4, rng, basis)
    oracle = SyntheticOracle(model)
    seq = oracle.sample_many(line_points(np.zeros(2), basis.direction(0), 0, 8))
    logs = take_logs(fit_nodes(seq, 4))
    kappas = np.arange(4.0)
    shift_values = np.array(
        [
            oracle.sample(k * basis.direction(0) + basis.direction(1))
            for k in kappas
        ]
    )

    def recover_with(order):
        ordered = logs[order]
        alphas = fit_coefficients(ordered, seq)
        aggregates = solve_shift_system(ordered, kappas, shift_values)
        shift_logs = take_logs(aggregates / alphas)
        phis = assemble_exponents(
            np.column_stack([ordered, shift_logs]), basis
        )
        return canonicalize(ExponentialModel(alphas, phis))

    direct = recover_with(np.arange(4))
    permuted = recover_with(np.array([2, 0, 3, 1]))
    assert model_error(direct, permuted) < 1e-9


def _lexicographic(rows) -> bool:
    keys = [tuple(x for z in row for x in (z.real, z.imag)) for row in rows]
    return keys == sorted(keys)


@pytest.mark.parametrize("mode", ["unknown_n", "known_n"])
def test_level_states_are_read_only_pile_arrays(mode):
    rng = np.random.default_rng(41)
    if mode == "unknown_n":
        # level 3's accumulated direction sums three inner products per pile
        basis = random_basis(4, rng)
        model = collision_instance(4, rng, basis, pile_sizes=(2, 1),
                                   deep_collision=True)
        report = recover_unknown_n(SyntheticOracle(model), basis,
                                   RecoveryConfig(max_terms=8))
    else:
        basis = random_basis(3, rng)
        model = random_model(3, 4, rng, basis)
        report = recover_known_n(SyntheticOracle(model), basis, 4)
    f0 = complex(np.sum(model.coefficients()))
    for lv in report.per_level:
        assert lv.inner_products.shape == (lv.pile_count, lv.level + 1)
        assert lv.coefficient_sums.shape == (lv.pile_count,)
        for arr in (lv.inner_products, lv.coefficient_sums):
            assert arr.dtype == complex and not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
        # base piles come in node order, split piles in inner-product order
        if lv.split_ranks:
            assert _lexicographic(lv.inner_products)
        else:
            assert _lexicographic(np.exp(lv.inner_products[:, :1]))
        assert abs(np.sum(lv.coefficient_sums) - f0) < 1e-10 * abs(f0)
    assert [lv.level for lv in report.per_level] == list(range(basis.dimension))
    if mode == "unknown_n":
        # the deep pair shares its first two inner products
        assert [lv.pile_count for lv in report.per_level] == [2, 2, 3, 3]
    # the last level's rows are the planted inner products Psi = Phi D^T
    psi = model.exponent_matrix() @ basis.matrix().T
    last = report.per_level[-1].inner_products
    gaps = np.abs(last[:, None, :] - psi[None]).max(axis=2)
    assert sorted(gaps.argmin(axis=1)) == list(range(model.n_terms))
    assert gaps.min(axis=1).max() < 1e-8
    # report.json keeps one [re, im] pair per inner product and per sum
    for entry, lv in zip(report.to_dict()["per_level"], report.per_level):
        assert entry["piles"] == [
            {"inner_products": [[float(z.real), float(z.imag)] for z in row],
             "coefficient_sum": [float(c.real), float(c.imag)]}
            for row, c in zip(lv.inner_products, lv.coefficient_sums)
        ]
        assert all(type(x) is float for pile in entry["piles"]
                   for pair in pile["inner_products"] for x in pair)


@pytest.mark.parametrize("tol", [0.0, 1.0, 1.5, float("nan")])
def test_rank_rel_tol_outside_the_unit_interval_fails_before_sampling(tol):
    oracle = SyntheticOracle(reference_model())
    with pytest.raises(InputError, match=r"rank_rel_tol must lie in \(0, 1\)"):
        recover_unknown_n(oracle, scenario_two_basis(),
                          RecoveryConfig(rank_rel_tol=tol))
    with pytest.raises(InputError, match=r"rank_rel_tol must lie in \(0, 1\)"):
        RecoveryConfig.from_dict({"rank_rel_tol": tol})
    assert oracle.ledger.count == 0

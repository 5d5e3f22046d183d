"""Acceptance suite: one test (or test pair) per criterion, summary at exit.

Criteria 1 and 2 reproduce the bundled reference instance.  Term 4 of that
instance has inner products outside the principal imaginary strip of both
published direction pairs, so the sampled data provably cannot distinguish
the published exponent vector from its fold into the strip (the two models
agree at every sampled point; see the indistinguishability test).  The
criterion tests therefore compare against the folded representative, and the
literal published values are kept as strict xfails documenting the defect.
"""

import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from expsum import (
    NoisyOracle,
    RecoveryConfig,
    SyntheticOracle,
    budget_bound,
    detect_sparsity,
    evaluate,
    fit_nodes,
    generalized_eigenvalues,
    recover_known_n,
    recover_unknown_n,
)
from expsum.oracle import SequenceStream
from expsum.synth import cancellation_instance, collision_instance, random_basis, random_model

from helpers import (
    companion_nodes,
    fold_to_principal,
    model_error,
    reference_model,
    scenario_one_basis,
    scenario_two_basis,
)

TP = 2 * np.pi


# ---------------------------------------------------------------------------
# shared suite runs


@pytest.fixture(scope="module")
def scenario1():
    oracle = SyntheticOracle(reference_model())
    started = time.perf_counter()
    report = recover_known_n(oracle, scenario_one_basis(), 4)
    elapsed = time.perf_counter() - started
    return oracle, report, elapsed


@pytest.fixture(scope="module")
def scenario2():
    oracle = SyntheticOracle(reference_model())
    started = time.perf_counter()
    report = recover_unknown_n(
        oracle, scenario_two_basis(), RecoveryConfig(max_terms=8)
    )
    elapsed = time.perf_counter() - started
    return oracle, report, elapsed


@pytest.fixture(scope="module")
def suite3_runs():
    runs = []
    started = time.perf_counter()
    for seed in range(200):
        rng = np.random.default_rng(1000 + seed)
        d = 1 + seed % 4
        n = 1 + seed % 8
        basis = random_basis(d, rng)
        model = random_model(d, n, rng, basis, min_node_separation=1e-3)
        oracle = SyntheticOracle(model)
        report = recover_known_n(oracle, basis, n)
        runs.append((d, n, model, report))
    elapsed = time.perf_counter() - started
    return runs, elapsed


_COLLISION_PATTERNS = [
    (2, (2, 1), False),
    (2, (2, 2), False),
    (2, (3, 1), False),
    (2, (2, 1, 1), False),
    (3, (2, 1), True),
    (3, (3, 1), True),
    (3, (2, 2), True),
    (3, (2, 1, 1), True),
    (2, (4, 1), False),
    (3, (2, 2, 1), True),
]


@pytest.fixture(scope="module")
def suite4_runs():
    runs = []
    for seed in range(50):
        d, sizes, deep = _COLLISION_PATTERNS[seed % len(_COLLISION_PATTERNS)]
        rng = np.random.default_rng(2000 + seed)
        basis = random_basis(d, rng)
        model = collision_instance(
            d, rng, basis, pile_sizes=sizes, deep_collision=deep
        )
        oracle = SyntheticOracle(model)
        report = recover_unknown_n(oracle, basis, RecoveryConfig(max_terms=10))
        runs.append((d, sizes, deep, model, report))
    return runs


@pytest.fixture(scope="module")
def suite5_runs():
    runs = []
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        extra = 1 + seed % 3
        basis = random_basis(2, rng)
        model = cancellation_instance(2, rng, basis, extra_terms=extra)
        true_piles = 1 + extra
        masked_oracle = SyntheticOracle(model)
        stream = SequenceStream(
            masked_oracle, np.zeros(2), basis.direction(0)
        )
        masked = detect_sparsity(stream.value_at, max_terms=10)
        oracle = SyntheticOracle(model)
        report = recover_unknown_n(
            oracle, basis, RecoveryConfig(max_terms=10, rescue_k_max=2)
        )
        runs.append((true_piles, masked, model, report))
    return runs


def _set_match_error(got, want) -> float:
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        return float("inf")
    cost = np.abs(got[:, None] - want[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


# ---------------------------------------------------------------------------
# criterion 1: fixed-budget reproduction of the reference instance


def test_criterion_1_scenario1_reproduction(scenario1, acceptance_log):
    oracle, report, elapsed = scenario1
    truth = reference_model()
    folded_truth = fold_to_principal(truth, scenario_one_basis())

    ok = oracle.ledger.count == 12 and report.samples_used == 12
    # every published intermediate that the data determines, at 4 digits
    published_base_logs = [
        0.005 + 0.03142j,
        0.016 + 0.5404j,
        -0.004 + 1.005j,
        -0.125 + 0.3456j,
    ]
    got_logs = report.per_level[0].inner_products[:, 0]
    ok = ok and _set_match_error(
        got_logs, published_base_logs
    ) < 5e-4 * max(abs(z) for z in published_base_logs)

    # coefficients and exponents against ground truth (folded for term 4)
    err = model_error(report.model, folded_truth)
    ok = ok and err < 5e-4
    # terms 1..3 are unaffected by folding: check them against the literal
    # published exponents as well
    literal = truth.exponent_matrix()
    recovered = report.model.exponent_matrix()
    for j in range(3):
        best = min(
            np.linalg.norm(recovered[k] - literal[j])
            / np.linalg.norm(literal[j])
            for k in range(4)
        )
        ok = ok and best < 5e-4
    ok = ok and elapsed < 1.0
    acceptance_log.record(
        "criterion 1 (fixed budget, reference instance)",
        ok,
        f"12 samples, model err {err:.1e} vs folded truth; term-4 exponent "
        "is determined only up to strip folding (strict xfail documents "
        "the literal value)",
    )
    assert ok


def test_criterion_1_folded_model_is_indistinguishable(scenario1):
    # proof of the aliasing defect: the folded model agrees with the truth
    # at every point the fixed-budget run sampled, to machine precision
    oracle, _, _ = scenario1
    truth = reference_model()
    folded = fold_to_principal(truth, scenario_one_basis())
    assert model_error(folded, truth) > 1e-2  # genuinely different models
    for point, value in oracle.ledger.entries:
        assert abs(evaluate(folded, np.asarray(point)) - value) <= 1e-9 * abs(
            value
        )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "term 4's second exponent component lies outside the principal "
        "imaginary strip for step (0.01, 0.01): the 12 samples cannot "
        "distinguish it from its fold (difference 2*pi*100j), so the "
        "literal published value is information-theoretically unattainable"
    ),
)
def test_criterion_1_literal_term4_exponent(scenario1):
    _, report, _ = scenario1
    truth = reference_model()
    literal_term4 = truth.exponent_matrix()[3]
    recovered = report.model.exponent_matrix()
    best = min(
        np.linalg.norm(recovered[k] - literal_term4)
        / np.linalg.norm(literal_term4)
        for k in range(4)
    )
    assert best < 5e-4


# ---------------------------------------------------------------------------
# criterion 2: adaptive reproduction of the collision scenario


def test_criterion_2_scenario2_reproduction(scenario2, acceptance_log):
    oracle, report, elapsed = scenario2
    truth = reference_model()
    folded_truth = fold_to_principal(truth, scenario_two_basis())

    base = scenario_two_basis().direction(0)
    first_seven = oracle.ledger.entries[:7]
    detection_on_base_line = all(
        np.allclose(point, s * base) for s, (point, _) in enumerate(first_seven)
    )
    ok = detection_on_base_line
    ok = ok and report.per_level[0].pile_count == 3
    ok = ok and sorted(report.per_level[1].split_ranks) == [1, 1, 2]
    ok = ok and report.detected_n == 4
    ok = ok and report.samples_used == 19
    err = model_error(report.model, folded_truth)
    ok = ok and err < 1e-6
    ok = ok and elapsed < 1.0
    acceptance_log.record(
        "criterion 2 (adaptive collision run, reference instance)",
        ok,
        f"nu0=3 after 7 samples, ranks (1,2,1), n=4, 19 samples, model err "
        f"{err:.1e} vs folded truth",
    )
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason=(
        "both inner products of term 4 fall outside the principal strips "
        "of steps (0.03, 0) and (0, 0.01); the adaptive run recovers the "
        "fold, not the literal published exponent"
    ),
)
def test_criterion_2_literal_term4_exponent(scenario2):
    _, report, _ = scenario2
    truth = reference_model()
    literal_term4 = truth.exponent_matrix()[3]
    recovered = report.model.exponent_matrix()
    best = min(
        np.linalg.norm(recovered[k] - literal_term4)
        / np.linalg.norm(literal_term4)
        for k in range(4)
    )
    assert best < 1e-6


# ---------------------------------------------------------------------------
# criterion 3: minimal-budget law on random admissible instances


def test_criterion_3_minimal_budget_law(suite3_runs, acceptance_log):
    runs, elapsed = suite3_runs
    worst = 0.0
    budget_ok = True
    for d, n, model, report in runs:
        budget_ok = budget_ok and report.samples_used == (d + 1) * n
        worst = max(worst, model_error(report.model, model))
    ok = budget_ok and worst <= 1e-6 and elapsed < 30.0
    acceptance_log.record(
        "criterion 3 (minimal budget law, 200 instances)",
        ok,
        f"all budgets exactly (d+1)n, worst model err {worst:.1e}, "
        f"{elapsed:.1f}s",
    )
    assert budget_ok
    assert worst <= 1e-6
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# criterion 4: planted collisions


def test_criterion_4_collision_suite(suite4_runs, acceptance_log):
    worst = 0.0
    ok = True
    for d, sizes, deep, model, report in suite4_runs:
        n = model.n_terms
        ok = ok and report.detected_n == n
        ok = ok and report.samples_used <= budget_bound(d, n)
        counts = [lv.pile_count for lv in report.per_level]
        ok = ok and counts == sorted(counts)
        ok = ok and counts[0] == len(sizes)
        if deep:
            ok = ok and counts[1] < n  # a collision survives level 1
        worst = max(worst, model_error(report.model, model))
    ok = ok and worst <= 1e-6
    acceptance_log.record(
        "criterion 4 (planted collisions, 50 instances)",
        ok,
        f"all term counts correct within budget bound, worst model err "
        f"{worst:.1e}",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: coefficient cancellation and rescue


def test_criterion_5_cancellation_suite(suite5_runs, acceptance_log):
    ok = True
    for true_piles, masked, model, report in suite5_runs:
        ok = ok and masked.rank == true_piles - 1  # mis-ranked without rescue
        ok = ok and report.detected_n == model.n_terms
        ok = ok and model_error(report.model, model) <= 1e-6
    acceptance_log.record(
        "criterion 5 (cancellation rescue, 20 instances)",
        ok,
        "base detection misses the cancelled pile; rescue with k_max=2 "
        "restores the correct term count in all 20",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: kernel oracle equivalence


def _closed_form_eigenvalues_2x2(a):
    tr = a[0, 0] + a[1, 1]
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    disc = np.sqrt(tr * tr - 4 * det + 0j)
    return np.array([(tr + disc) / 2, (tr - disc) / 2])


def _closed_form_eigenvalues_3x3(a):
    # characteristic polynomial lambda^3 + c2 lambda^2 + c1 lambda + c0
    tr = np.trace(a)
    minors = (
        a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
        + a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
        + a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    )
    det = np.linalg.det(a)
    c2, c1, c0 = -tr, minors, -det
    # depressed cubic t^3 + p t + q with lambda = t - c2 / 3
    p = c1 - c2 * c2 / 3
    q = 2 * c2**3 / 27 - c2 * c1 / 3 + c0
    root_term = np.sqrt(q * q / 4 + p**3 / 27 + 0j)
    u_cubed = -q / 2 + root_term
    if abs(u_cubed) < abs(-q / 2 - root_term):
        u_cubed = -q / 2 - root_term
    if abs(u_cubed) < 1e-300:
        ts = np.array([0.0, 0.0, 0.0], dtype=complex) if abs(p) < 1e-300 \
            else np.power(-q + 0j, 1.0 / 3) * np.exp(
                2j * np.pi * np.arange(3) / 3
            )
    else:
        u = u_cubed ** (1.0 / 3)
        omega = np.exp(2j * np.pi / 3)
        us = u * omega ** np.arange(3)
        ts = us - p / (3 * us)
    return ts - c2 / 3


def test_criterion_6_kernel_oracle_equivalence(acceptance_log):
    rng = np.random.default_rng(4000)
    worst_method_gap = 0.0
    for trial in range(100):
        n = 1 + trial % 8
        while True:
            logs = rng.uniform(-0.15, 0.15, n) + 1j * rng.uniform(
                -0.9 * np.pi, 0.9 * np.pi, n
            )
            nodes = np.exp(logs)
            moduli = np.exp(rng.uniform(np.log(0.1), np.log(10), n))
            coeffs = moduli * np.exp(1j * rng.uniform(0, TP, n))
            values = np.array(
                [coeffs @ np.exp(logs * s) for s in range(2 * n)]
            )
            if n == 1:
                break
            gaps = np.abs(nodes[:, None] - nodes[None, :])
            np.fill_diagonal(gaps, np.inf)
            idx = np.arange(n)
            if gaps.min() >= 1e-3 and np.linalg.cond(
                values[idx[:, None] + idx[None, :]]
            ) <= 3e3:
                break
        eig_nodes = fit_nodes(values, n)
        poly_nodes = companion_nodes(values, n)
        worst_method_gap = max(
            worst_method_gap, _set_match_error(eig_nodes, poly_nodes)
        )
    methods_ok = worst_method_gap < 1e-6

    worst_eig_gap = 0.0
    for trial in range(50):
        a2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        worst_eig_gap = max(
            worst_eig_gap,
            _set_match_error(
                generalized_eigenvalues(a2, np.eye(2)),
                _closed_form_eigenvalues_2x2(a2),
            ),
        )
        a3 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        worst_eig_gap = max(
            worst_eig_gap,
            _set_match_error(
                generalized_eigenvalues(a3, np.eye(3)),
                _closed_form_eigenvalues_3x3(a3),
            ),
        )
    eig_ok = worst_eig_gap < 1e-10

    acceptance_log.record(
        "criterion 6 (kernel oracle equivalence)",
        methods_ok and eig_ok,
        f"pencil and companion-matrix nodes agree to {worst_method_gap:.1e} "
        "on 100 instances; "
        f"pencil matches closed-form eigenvalues to {worst_eig_gap:.1e}",
    )
    assert methods_ok
    assert eig_ok


# ---------------------------------------------------------------------------
# criterion 7: conservation checks on every suite run


def test_criterion_7_conservation(
    scenario1, scenario2, suite3_runs, suite4_runs, suite5_runs,
    acceptance_log,
):
    reports = [scenario1[1], scenario2[1]]
    reports += [report for _, _, _, report in suite3_runs[0]]
    reports += [report for _, _, _, _, report in suite4_runs]
    reports += [report for _, _, _, report in suite5_runs]
    worst_conservation = max(r.conservation_rel_err for r in reports)
    worst_residual = max(r.max_residual_rel for r in reports)
    ok = worst_conservation <= 1e-8 and worst_residual <= 1e-6
    acceptance_log.record(
        "criterion 7 (conservation and residuals)",
        ok,
        f"{len(reports)} runs: worst coefficient-sum err "
        f"{worst_conservation:.1e}, worst sample residual {worst_residual:.1e}",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 8: noise regression gate (engineering property, not reproduction)


def test_criterion_8_noise_regression(acceptance_log):
    successes = 0
    trials = 50
    for seed in range(trials):
        rng = np.random.default_rng(5000 + seed)
        d = 1 + seed % 4
        n = 1 + seed % 8
        basis = random_basis(d, rng)
        model = random_model(d, n, rng, basis, min_node_separation=1e-3)
        oracle = NoisyOracle(
            SyntheticOracle(model), sigma=1e-8, seed=seed, relative=True
        )
        try:
            report = recover_known_n(oracle, basis, n)
        except Exception:
            continue
        if model_error(report.model, model) <= 1e-4:
            successes += 1
    rate = successes / trials
    ok = rate >= 0.9
    acceptance_log.record(
        "criterion 8 (noise regression gate)",
        ok,
        f"{successes}/{trials} noisy runs within 1e-4",
    )
    assert ok

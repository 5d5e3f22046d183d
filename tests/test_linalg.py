"""Linear-algebra kernels: structured matrices, solves, rank, pencils."""

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from expsum import (
    InputError,
    PencilDegenerateError,
    RankDeficiencyError,
    SingularMatrixError,
    generalized_eigenvalues,
    hankel,
    numerical_rank,
    solve,
    solve_least_squares,
    vandermonde,
)
from expsum.linalg import EPS, condition_estimate


def test_hankel_definition():
    h = hankel([1, 2, 3], 2, 2)
    assert np.array_equal(h, np.array([[1, 2], [2, 3]]))


def test_hankel_entries_depend_only_on_index_sum():
    rng = np.random.default_rng(0)
    seq = rng.standard_normal(11) + 1j * rng.standard_normal(11)
    h = hankel(seq, 5, 7)
    for r in range(5):
        for c in range(7):
            assert h[r, c] == seq[r + c]


def test_hankel_rejects_short_sequence():
    with pytest.raises(InputError):
        hankel([1, 2, 3], 3, 2)


def test_vandermonde_zero_log_node():
    v = vandermonde([0.0], [0.0, 1.0])
    assert np.allclose(v, [[1.0], [1.0]])


def test_vandermonde_powers_of_two():
    v = vandermonde([np.log(2.0)], [0.0, 1.0, 2.0])
    assert np.allclose(v, [[1.0], [2.0], [4.0]])


def test_vandermonde_integer_multipliers_match_node_powers():
    rng = np.random.default_rng(1)
    logs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    nodes = np.exp(logs)
    v = vandermonde(logs, np.arange(4.0))
    direct = np.vander(nodes, 4, increasing=True).T
    assert np.allclose(v, direct)


def test_solve_identity():
    b = np.array([1 + 2j, 3.0, -1j])
    assert np.allclose(solve(np.eye(3), b), b)


def test_solve_published_direction_system():
    a = np.array([[0.01, 0.01], [-0.01, 0.01]])
    b = np.array([0.005 + 0.03142j, 0.015 + 0.03142j])
    x = solve(a, b)
    assert np.allclose(x, [-0.5, 1.0 + 3.142j], atol=1e-12)


def test_solve_residual_contract_random_system():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    x = solve(a, b)
    residual = np.linalg.norm(a @ x - b)
    bound = 1e3 * EPS * 8 * (
        np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(b)
    )
    assert residual <= bound


def test_solve_singular_matrix_raises_with_diagnostic():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError) as err:
        solve(a, np.array([1.0, 2.0]))
    assert err.value.sigma_max > 0
    assert err.value.sigma_min < 1e-12 * err.value.sigma_max


def test_least_squares_matches_square_solve():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    assert np.allclose(solve_least_squares(a, b), solve(a, b))


def test_least_squares_stacked_duplicate_rows_exact():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    x_true = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    stacked = np.vstack([a, a])
    b = stacked @ x_true
    x = solve_least_squares(stacked, b)
    assert np.allclose(x, x_true)
    assert np.linalg.norm(stacked @ x - b) < 1e-10


def test_least_squares_rank_deficient_raises_with_decision():
    a = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(RankDeficiencyError) as err:
        solve_least_squares(a, np.array([1.0, 1.0, 1.0]))
    assert err.value.decision.rank == 1


def test_numerical_rank_zero_matrix():
    decision = numerical_rank(np.zeros((3, 4)))
    assert decision.rank == 0
    assert decision.confident


def test_numerical_rank_outer_product():
    rng = np.random.default_rng(5)
    u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    decision = numerical_rank(np.outer(u, v.conj()))
    assert decision.rank == 1
    assert decision.confident


def test_numerical_rank_hankel_of_three_term_sequence():
    # a nu-term exponential sequence has Hankel rank nu at every size >= nu
    rng = np.random.default_rng(6)
    logs = rng.standard_normal(3) * 0.2 + 1j * rng.uniform(-2, 2, 3)
    coef = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    seq = np.array(
        [coef @ np.exp(np.asarray(logs) * s) for s in range(11)]
    )
    for size in (4, 5):
        decision = numerical_rank(hankel(seq, size, size))
        assert decision.rank == 3
        assert decision.confident


def test_generalized_eigenvalues_diagonal_pencil():
    values = generalized_eigenvalues(np.diag([2.0, 3.0]), np.eye(2))
    assert np.allclose(sorted(values.real), [2.0, 3.0])
    assert np.allclose(values.imag, 0.0)


def test_generalized_eigenvalues_identity_b_matches_characteristic_roots():
    rng = np.random.default_rng(7)
    for size in (2, 3):
        a = rng.standard_normal((size, size)) + 1j * rng.standard_normal(
            (size, size)
        )
        got = np.sort_complex(generalized_eigenvalues(a, np.eye(size)))
        want = np.sort_complex(np.roots(np.poly(a)))
        assert np.allclose(got, want, atol=1e-10)


def test_generalized_eigenvalues_pencil_from_planted_model():
    rng = np.random.default_rng(8)
    logs = rng.standard_normal(5) * 0.2 + 1j * rng.uniform(-2.5, 2.5, 5)
    coef = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    seq = np.array(
        [coef @ np.exp(np.asarray(logs) * s) for s in range(10)]
    )
    h0 = hankel(seq, 5, 5)
    h1 = hankel(seq[1:], 5, 5)
    got = np.sort_complex(generalized_eigenvalues(h1, h0))
    want = np.sort_complex(np.exp(logs))
    assert np.allclose(got, want, rtol=1e-8)


def test_generalized_eigenvalues_matches_qz_on_ill_conditioned_hankel_pencils():
    # reference: scipy's QZ on the same pencil.  Both solvers lose about
    # cond(H0) * eps; measured over 40 pencils here, the worst gap is
    # 1.6 * cond * eps (median 0.26), and at most 3.0 over seeds 0-4
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 40:
        n = int(rng.integers(2, 7))
        logs = rng.uniform(-0.1, 0.1, n) + 1j * rng.uniform(-3, 3, n)
        logs[1] = logs[0] + 10 ** rng.uniform(-5, -2) * np.exp(
            1j * rng.uniform(0, 6.3)
        )
        coef = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        seq = np.array([coef @ np.exp(logs * s) for s in range(2 * n)])
        h0, h1 = hankel(seq, n, n), hankel(seq[1:], n, n)
        cond = condition_estimate(h0)
        if not 1e8 < cond <= 1e12:
            continue
        checked += 1
        got = generalized_eigenvalues(h1, h0)
        want = scipy.linalg.eigvals(h1, h0)
        gaps = np.abs(got[:, None] - want[None, :])
        rows, cols = linear_sum_assignment(gaps)
        assert gaps[rows, cols].max() <= 10 * cond * EPS


def test_generalized_eigenvalues_subnormal_pencil_raises():
    # well conditioned, but at 1e-310 the reduction b^{-1} a overflows
    rng = np.random.default_rng(9)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    with pytest.raises(PencilDegenerateError, match="could not be reduced"):
        generalized_eigenvalues(a * 1e-310, b * 1e-310)


def test_generalized_eigenvalues_singular_b_raises():
    with pytest.raises(PencilDegenerateError):
        generalized_eigenvalues(np.eye(2), np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_condition_estimate_identity():
    assert condition_estimate(np.eye(4)) == pytest.approx(1.0)

"""Univariate engine: sparsity detection, node fits, logs, coefficients."""

import numpy as np
import pytest

from expsum import (
    InputError,
    InvalidNodeError,
    PencilDegenerateError,
    RankDeficiencyError,
    SingularMatrixError,
    SparsityUndetectedError,
    SyntheticOracle,
)
from expsum.prony import (
    detect_sparsity,
    fit_coefficients,
    fit_nodes,
    grow_ranks,
    take_logs,
)
from expsum._schedule import line_points
from expsum.multivar import _line_sampler

from helpers import companion_nodes, reference_model, scenario_two_basis


def _planted_sequence(logs, coeffs, count):
    logs = np.asarray(logs, dtype=complex)
    coeffs = np.asarray(coeffs, dtype=complex)
    return np.array([coeffs @ np.exp(logs * s) for s in range(count)])


class _CountingSupplier:
    """A ``sample(start, stop)`` over fixed values that records the
    batches asked for."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=complex)
        self.batches = []

    def __call__(self, start, stop):
        self.batches.append((start, stop))
        return self.values[start:stop]


def test_detect_sparsity_constant_sequence():
    supplier = _CountingSupplier([3.0] * 10)
    decision = detect_sparsity(supplier, max_terms=4)
    assert decision.rank == 1
    assert decision.confident
    # F_0 alone, then one batch per growth step
    assert supplier.batches == [(0, 1), (1, 3)]


def test_detect_sparsity_reference_collision_scenario_uses_seven_samples():
    oracle = SyntheticOracle(reference_model())
    decision = detect_sparsity(
        _line_sampler(oracle, np.zeros(2), scenario_two_basis().direction(0)),
        max_terms=6,
    )
    assert decision.rank == 3
    assert oracle.ledger.count == 7


def test_detect_sparsity_random_four_term_model_consumes_nine_samples():
    rng = np.random.default_rng(10)
    logs = rng.standard_normal(4) * 0.2 + 1j * rng.uniform(-2, 2, 4)
    coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    seq = _planted_sequence(logs, coeffs, 16)
    supplier = _CountingSupplier(seq)
    decision = detect_sparsity(supplier, max_terms=7)
    assert decision.rank == 4
    assert decision.confident
    assert supplier.batches[-1] == (7, 9)


def test_detect_sparsity_exhaustion_raises():
    rng = np.random.default_rng(11)
    logs = rng.standard_normal(5) * 0.2 + 1j * rng.uniform(-2, 2, 5)
    coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    seq = _planted_sequence(logs, coeffs, 16)
    with pytest.raises(SparsityUndetectedError):
        detect_sparsity(_CountingSupplier(seq), max_terms=3)


class _ScriptedRows:
    """A ``draw`` for :func:`grow_ranks` that hands out the columns of fixed
    rows two at a time and records the steps asked for."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=complex)
        self.steps = []

    def __call__(self, m):
        self.steps.append(m)
        return self.rows[:, 2 * m - 1 : 2 * m + 1]


def test_grow_ranks_settles_rank_one_and_zero_rows_on_the_first_window():
    rows = [_planted_sequence([0.1j], [2.0], 9), np.zeros(9)]
    draw = _ScriptedRows(rows)
    sequences, settled = grow_ranks(draw.rows[:, 0], draw, max_size=4)
    assert draw.steps == [1]
    assert np.array_equal(sequences, draw.rows[:, :3])
    assert [(j, d.rank, d.confident) for j, d in settled] == [
        (0, 1, True), (1, 0, True)
    ]


def test_grow_ranks_returns_rows_in_the_order_they_settle():
    rows = [_planted_sequence([0.1j, -0.4j], [1.0, 0.5], 9),
            _planted_sequence([0.3j], [1.0], 9)]
    draw = _ScriptedRows(rows)
    sequences, settled = grow_ranks(draw.rows[:, 0], draw, max_size=4)
    assert draw.steps == [1, 2]
    assert sequences.shape == (2, 5)
    assert [(j, d.rank, d.confident) for j, d in settled] == [
        (1, 1, True), (0, 2, True)
    ]


def test_grow_ranks_full_rank_at_the_cap_without_a_deficiency_raises():
    draw = _ScriptedRows([_planted_sequence([0.1j, -0.4j], [1.0, 0.5], 9)])
    with pytest.raises(SparsityUndetectedError, match="up to 1 terms"):
        grow_ranks(draw.rows[:, 0], draw, max_size=1)
    assert draw.steps == [1]


def test_grow_ranks_full_rank_at_the_cap_takes_the_latest_deficiency():
    # row 0 sets the shared floor, 0.1 * 10 = 1.  Row 1's Hankel matrices
    # have singular values (5, 0.5), then (5.12, 2.88, 0.5): ranks 1
    # and 2, neither gap 1e3 wide; at the cap, (5.12, 3.5, 2.88, 2.5) is
    # full rank, so row 1 keeps its m = 2 decision
    draw = _ScriptedRows([[10, 0, 0, 0, 0, 0, 0],
                          [5, 0, 0.5, 0, 3, 0, 0.5]])
    sequences, settled = grow_ranks(draw.rows[:, 0], draw, max_size=3,
                                    rel_tol=0.1)
    assert draw.steps == [1, 2, 3]
    assert sequences.shape == (2, 7)
    (first, floor), (row, kept) = settled
    assert (first, floor.rank, floor.confident) == (0, 1, True)
    assert (row, kept.rank, kept.confident) == (1, 2, False)
    assert len(kept.singular_values) == 3


def test_fit_nodes_single_term():
    nodes = fit_nodes([2.0, 2.0 * np.e, 2.0 * np.e**2], 1)
    assert np.allclose(nodes, [np.e])


def test_fit_nodes_reference_base_logs():
    oracle = SyntheticOracle(reference_model())
    values = oracle.sample_many(
        line_points(np.zeros(2), np.array([0.01, 0.01]), 0, 8))
    nodes = fit_nodes(values, 4)
    logs = np.sort_complex(take_logs(nodes))
    expected = np.sort_complex(
        np.array(
            [
                0.005 + 0.03142j,
                0.016 + 0.5404j,
                -0.004 + 1.005j,
                -0.125 + 0.3456j,
            ]
        )
    )
    assert np.allclose(logs, expected, atol=5e-4)


def test_fit_nodes_methods_agree_and_match_planted():
    rng = np.random.default_rng(12)
    logs = rng.standard_normal(3) * 0.2 + 1j * rng.uniform(-2, 2, 3)
    coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    seq = _planted_sequence(logs, coeffs, 6)
    eig_nodes = np.sort_complex(fit_nodes(seq, 3))
    poly_nodes = np.sort_complex(companion_nodes(seq, 3))
    planted = np.sort_complex(np.exp(logs))
    assert np.allclose(eig_nodes, poly_nodes, atol=1e-6)
    assert np.allclose(eig_nodes, planted, rtol=1e-8)


def test_fit_nodes_wrong_nu_raises_rank_mismatch():
    seq = _planted_sequence([0.1], [2.0], 8)
    with pytest.raises(PencilDegenerateError):
        fit_nodes(seq, 3)
    with pytest.raises(SingularMatrixError):
        companion_nodes(seq, 3)


@pytest.mark.parametrize("values", [[], [1.0], np.ones((2, 2))])
def test_fit_nodes_and_coefficients_reject_empty_short_or_2d_samples(values):
    with pytest.raises(InputError):
        fit_nodes(values, 1)
    with pytest.raises(InputError):
        fit_coefficients([0.1, 0.2], values)


def test_fit_coefficients_rejects_empty_samples_without_logs():
    with pytest.raises(InputError):
        fit_coefficients([], [])


def test_take_logs_unit_node():
    assert np.allclose(take_logs([1.0]), [0.0])


def test_take_logs_reference_value_roundtrip():
    z = 0.005 + 0.03142j
    assert np.allclose(take_logs([np.exp(z)]), [z])


def test_take_logs_branch_cut_convention():
    assert np.allclose(take_logs([-1.0]), [1j * np.pi])


def test_take_logs_zero_node_rejected():
    with pytest.raises(InvalidNodeError):
        take_logs([0.0])


def test_take_logs_exp_roundtrip_inside_strip():
    rng = np.random.default_rng(13)
    logs = rng.standard_normal(64) + 1j * rng.uniform(-np.pi * 0.999, np.pi * 0.999, 64)
    assert np.allclose(take_logs(np.exp(logs)), logs)


def test_fit_coefficients_single_unit_node():
    coeffs = fit_coefficients([0.0], [5.0, 5.0])
    assert np.allclose(coeffs, [5.0])


def _near_collision(eps):
    logs = np.array([0.1j, 0.1j + eps, -0.3j])
    return logs, _planted_sequence(logs, [1.0, 2.0, 3.0], 6)


def test_fit_coefficients_conditioning_warning():
    # least squares stops at rcond 1e-8; its error names the condition
    for eps in (1e-12, 1e-9):
        logs, seq = _near_collision(eps)
        with pytest.raises(RankDeficiencyError,
                           match=r"condition estimate \d\.\d\de\+\d+"):
            fit_coefficients(logs, seq)


def test_fit_coefficients_reference_alpha1():
    oracle = SyntheticOracle(reference_model())
    seq = oracle.sample_many(
        line_points(np.zeros(2), np.array([0.01, 0.01]), 0, 8))
    nodes = fit_nodes(seq, 4)
    logs = take_logs(nodes)
    coeffs = fit_coefficients(logs, seq)
    # alpha paired with the node whose log is closest to the first base log
    j = int(np.argmin(np.abs(logs - (0.005 + 0.03142j))))
    expected = 1.7 * np.exp(1j * 2 * np.pi * 0.1)
    assert abs(coeffs[j] - expected) / abs(expected) < 5e-4


def test_roundtrip_random_admissible_models():
    # nodes separated, moduli of coefficients in [0.1, 10]: 2n samples
    # reproduce the sequence parameters to high accuracy
    rng = np.random.default_rng(15)
    for trial in range(25):
        n = int(rng.integers(1, 9))
        while True:
            logs = rng.uniform(-0.3, 0.3, n) + 1j * rng.uniform(
                -0.98 * np.pi, 0.98 * np.pi, n
            )
            nodes = np.exp(logs)
            if n == 1:
                break
            gaps = np.abs(nodes[:, None] - nodes[None, :])
            np.fill_diagonal(gaps, np.inf)
            if gaps.min() >= 1e-3:
                break
        moduli = np.exp(rng.uniform(np.log(0.1), np.log(10), n))
        coeffs = moduli * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        seq = _planted_sequence(logs, coeffs, 2 * n)
        fit_logs = take_logs(fit_nodes(seq, n))
        fit_coeffs = fit_coefficients(fit_logs, seq)
        order_got = np.argsort(fit_logs.imag)
        order_want = np.argsort(logs.imag)
        got_logs = fit_logs[order_got]
        got_coeffs = fit_coeffs[order_got]
        assert np.allclose(got_logs, logs[order_want], atol=1e-6)
        assert np.allclose(got_coeffs, coeffs[order_want], rtol=1e-6, atol=1e-8)

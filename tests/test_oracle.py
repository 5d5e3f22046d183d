"""Sampling sources: ledger accounting, noise, tabulated files, planning."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsum import (
    DimensionMismatchError,
    ExponentialModel,
    InputError,
    MissingSampleError,
    NoisyOracle,
    SyntheticOracle,
    TabulatedOracle,
    budget_bound,
    evaluate,
    identity_basis,
    plan_points,
    recover_known_n,
)
from expsum._schedule import MAX_TERMS
from expsum.model import exp_matrix
from expsum.oracle import (
    SMALLEST_NORMAL,
    read_points_file,
    read_samples_file,
    write_points_file,
    write_samples_file,
)

from helpers import reference_model, scenario_one_basis


def test_synthetic_oracle_single_term():
    model = ExponentialModel([1.0], [(0.0, 0.0)])
    oracle = SyntheticOracle(model)
    assert oracle.sample([3.0, -1.0]) == pytest.approx(1.0 + 0j)
    assert oracle.ledger.count == 1


def test_synthetic_oracle_reference_first_sample_is_coefficient_sum():
    oracle = SyntheticOracle(reference_model())
    value = oracle.sample(np.zeros(2))
    expected = sum(reference_model().coefficients())
    assert value == pytest.approx(expected)


def test_oracle_rejects_wrong_dimension():
    oracle = SyntheticOracle(reference_model())
    with pytest.raises(DimensionMismatchError):
        oracle.sample([1.0])


def test_ledger_counts_known_n_run_exactly():
    oracle = SyntheticOracle(reference_model())
    recover_known_n(oracle, scenario_one_basis(), 4)
    assert oracle.ledger.count == 12


def test_noisy_oracle_zero_sigma_is_transparent():
    base = SyntheticOracle(reference_model())
    noisy = NoisyOracle(SyntheticOracle(reference_model()), sigma=0.0, seed=1)
    point = np.array([0.02, 0.01])
    assert noisy.sample(point) == base.sample(point)


def test_noisy_oracle_seeded_reproducibility():
    def draw():
        noisy = NoisyOracle(
            SyntheticOracle(reference_model()), sigma=1e-3, seed=42
        )
        return [noisy.sample(np.array([0.01 * s, 0.0])) for s in range(5)]

    assert draw() == draw()


def test_noisy_oracle_relative_scale():
    model = ExponentialModel([1000.0], [(0.0,)])
    noisy = NoisyOracle(SyntheticOracle(model), sigma=1e-3, seed=0, relative=True)
    value = noisy.sample(np.zeros(1))
    assert abs(value - 1000.0) < 10.0
    assert abs(value - 1000.0) > 1e-4


def test_tabulated_oracle_hit_and_miss():
    table = TabulatedOracle(2)
    table.add([0.25, 0.5], 1.0 + 2.0j)
    assert table.sample([0.25, 0.5]) == 1.0 + 2.0j
    # within MATCH_TOL of the stored point
    assert table.sample([0.25 + 5e-10, 0.5]) == 1.0 + 2.0j
    with pytest.raises(MissingSampleError) as err:
        table.sample([0.1, 0.1])
    assert "0.1" in str(err.value)


# Samples-table properties.  Grid points are at least 0.1 apart, so only the
# point under test lies within MATCH_TOL of a query; coordinates stay within
# +-100, where rounding to 12 decimals has ulps to spare.
TABLE_GRID = (0.0, -0.0, 0.1, -0.1, 1 / 3, -2.5, 7.25, -99.9, 100.0)
TABLE_VALUES = (1 + 0j, 1 + 5e-10j, 1j, -2.5 + 0.5j)


def table_points(d, min_size=1, max_size=8):
    point = st.tuples(*[st.sampled_from(TABLE_GRID)] * d)
    return st.lists(point, min_size=min_size, max_size=max_size)


def distinct(points):
    """The points with -0.0 and +0.0 taken as one, in first-seen order."""
    return list(dict.fromkeys(tuple(x + 0.0 for x in p) for p in points))


def served(table, points):
    """What the table serves at each point: its value, or None on a miss."""
    out = []
    for p in points:
        try:
            out.append(table.sample(p))
        except MissingSampleError:
            out.append(None)
    return out


@settings(max_examples=80, deadline=None)
@given(d=st.integers(1, 3), data=st.data())
def test_from_file_builds_the_table_add_builds(tmp_path_factory, d, data):
    points = data.draw(table_points(d, max_size=10))
    rows = [(p, data.draw(st.sampled_from(TABLE_VALUES))) for p in points]
    path = tmp_path_factory.mktemp("table") / "samples.txt"
    write_samples_file(path, d, rows)
    added, add_error = TabulatedOracle(d), None
    try:
        for p, v in rows:
            added.add(p, v)
    except InputError as exc:
        add_error = type(exc)
    try:
        loaded, file_error = TabulatedOracle.from_file(path), None
    except InputError as exc:
        file_error = type(exc)
    assert file_error is add_error
    if add_error is None:
        queries = [*points, *itertools.product(TABLE_GRID, repeat=d)]
        assert served(loaded, queries) == served(added, queries)


@settings(max_examples=40, deadline=None)
@given(points=table_points(3))
def test_signed_zeros_are_one_table_point(points):
    flip = [tuple(-x if x == 0 else x for x in p) for p in points]
    table = TabulatedOracle(3)
    for k, p in enumerate(distinct(points)):
        table.add(p, complex(k))
    for p in flip:
        table.add(p, table.sample(p))  # an equal duplicate is accepted
    values = table.sample_many(np.array(flip))
    assert values.tolist() == served(table, points)
    with pytest.raises(InputError):
        table.add(flip[0], table.sample(flip[0]) + 1)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 3), data=st.data())
def test_exact_duplicate_rows_are_accepted(tmp_path_factory, d, data):
    points = distinct(data.draw(table_points(d)))
    rows = [(p, complex(k, 1)) for k, p in enumerate(points)]
    repeats = data.draw(st.lists(st.sampled_from(rows), min_size=1))
    path = tmp_path_factory.mktemp("table") / "samples.txt"
    write_samples_file(path, d, rows + repeats)
    table = TabulatedOracle.from_file(path)
    for p, v in repeats:
        table.add(p, v)
    assert table.sample_many(np.array(points)).tolist() == [v for _, v in rows]


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 3), data=st.data())
def test_lookup_tolerance_of_the_fallback_scan(d, data):
    points = distinct(data.draw(table_points(d)))
    table = TabulatedOracle(d)
    for k, p in enumerate(points):
        table.add(p, complex(k, -1))
    k = data.draw(st.integers(0, len(points) - 1))
    axis = data.draw(st.integers(0, d - 1))
    sign = data.draw(st.sampled_from((-1.0, 1.0)))
    near = np.array(points[k])
    # at least 1e-11 off, so the rounded key differs and only the scan hits
    near[axis] += sign * data.draw(st.floats(1e-11, 5e-10))
    batch = np.array([*points, near])
    assert table.sample_many(batch).tolist() == [
        complex(j, -1) for j in range(len(points))] + [complex(k, -1)]
    far = np.array(points[k])
    far[axis] += sign * 2e-9
    with pytest.raises(MissingSampleError):
        table.sample_many(np.array([*points, far]))


def test_table_keys_keep_huge_coordinates_apart():
    # scaling 1e300 by 10**12 overflows; such coordinates are keyed unrounded
    table = TabulatedOracle(2)
    points = np.array([[1e300, 0.0], [2e300, 0.0], [-1e300, 9007.123456789012]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k, p in enumerate(points):
            table.add(p, complex(k))
        assert table.sample_many(points).tolist() == [0j, 1 + 0j, 2 + 0j]
    with pytest.raises(MissingSampleError):
        table.sample([3e300, 0.0])


def test_fallback_scan_serves_the_nearest_point(monkeypatch):
    # 1e-9 is within MATCH_TOL of both; 1.5e-9 is the nearer, in either order
    for rows in ([(0.0, 1), (1.5e-9, 2)], [(1.5e-9, 2), (0.0, 1)]):
        table = TabulatedOracle(1)
        for x, value in rows:
            table.add([x], value)
        assert table.sample([1e-9]) == 2
    # a tie serves the first stored point
    monkeypatch.setattr("expsum.oracle.MATCH_TOL", 0.5)
    table = TabulatedOracle(1)
    table.add([0.0], 1)
    table.add([1.0], 2)
    assert table.sample([0.5]) == 1


def test_samples_file_roundtrip(tmp_path):
    model = reference_model()
    points = [np.array([0.01 * s, 0.003 * s]) for s in range(6)]
    rows = [(tuple(p), evaluate(model, p)) for p in points]
    path = tmp_path / "samples.txt"
    write_samples_file(path, 2, rows)
    dim, parsed = read_samples_file(path)
    assert dim == 2
    assert len(parsed) == 6
    for (p0, v0), (p1, v1) in zip(rows, parsed):
        assert np.allclose(p0, p1)
        assert v0 == pytest.approx(v1)


def test_samples_file_comments_ignored(tmp_path):
    path = tmp_path / "samples.txt"
    path.write_text("# header comment\ndim=1\n0.0 1.0 0.5  # trailing\n")
    dim, rows = read_samples_file(path)
    assert dim == 1
    assert rows == [((0.0,), 1.0 + 0.5j)]


def test_points_file_roundtrip(tmp_path):
    points = [(0.0, 1.0), (2.0, -3.5)]
    path = tmp_path / "points.txt"
    write_points_file(path, 2, points)
    dim, parsed = read_points_file(path)
    assert dim == 2
    assert parsed == points


def test_plan_points_univariate_known_budget():
    basis = identity_basis(1)
    points = plan_points(basis, 2, "known_n")
    assert np.allclose(points, [[0.0], [1.0], [2.0], [3.0]])


def test_plan_points_known_matches_pipeline_requests():
    basis = scenario_one_basis()
    planned = {tuple(np.round(p, 12)) for p in plan_points(basis, 4, "known_n")}
    oracle = SyntheticOracle(reference_model())
    recover_known_n(oracle, basis, 4)
    requested = {
        tuple(np.round(p, 12)) for p, _ in oracle.ledger.entries
    }
    assert planned == requested
    assert len(planned) == 12


def test_plan_points_unknown_length_equals_budget_bound():
    basis = scenario_one_basis()
    points = plan_points(basis, 4, "unknown_n_worst_case")
    assert len(points) == budget_bound(2, 4)


@pytest.mark.parametrize("n", [0, MAX_TERMS + 1])
def test_term_count_outside_the_bound_is_refused_before_sampling(n):
    basis = identity_basis(2)
    for mode in ("known_n", "unknown_n_worst_case"):
        with pytest.raises(InputError, match=rf"\[1, {MAX_TERMS}\]"):
            plan_points(basis, n, mode)
    oracle = SyntheticOracle(ExponentialModel([1.0], [(0.1j, 0.3j)]))
    with pytest.raises(InputError, match=rf"\[1, {MAX_TERMS}\]"):
        recover_known_n(oracle, basis, n)
    assert oracle.ledger.count == 0


def test_plan_points_accept_the_largest_term_count():
    points = plan_points(identity_basis(1), MAX_TERMS, "unknown_n_worst_case")
    assert len(points) == budget_bound(1, MAX_TERMS)


def test_plan_points_unknown_covers_adaptive_collision_run():
    # every point an adaptive run requests under default schedules must be
    # in the plan, otherwise offline sample collection cannot work
    from expsum import RecoveryConfig, recover_unknown_n
    from expsum.synth import collision_instance, random_basis

    for seed, sizes, dim in ((0, (2, 2), 2), (1, (3, 1), 2), (2, (2, 1), 3)):
        rng = np.random.default_rng(7000 + seed)
        basis = random_basis(dim, rng)
        model = collision_instance(dim, rng, basis, pile_sizes=sizes)
        n = model.n_terms
        planned = {
            tuple(np.round(p, 10))
            for p in plan_points(basis, n, "unknown_n_worst_case")
        }
        oracle = SyntheticOracle(model)
        recover_unknown_n(oracle, basis, RecoveryConfig(max_terms=8))
        requested = {
            tuple(np.round(p, 10)) for p, _ in oracle.ledger.entries
        }
        assert requested <= planned


def test_read_points_file_rejects_bad_fields(tmp_path):
    path = tmp_path / "points.txt"
    for text, lineno in [("dim=2\n0 1\n1 abc\n", 3), ("dim=x\n0 1\n", 1),
                         ("dim=0\n", 1), ("dim=1\nnan\n", 2)]:
        path.write_text(text)
        with pytest.raises(InputError, match=f"{path}:{lineno}:"):
            read_points_file(path)


@pytest.mark.parametrize("body, message", [
    ("0 1 0\n1 abc 0\n2 1\n", "3: could not convert string to float: 'abc'"),
    ("0 1e400 0\n1 abc 0\n", "2: non-finite field"),
    ("0 1 0\n1 2\n2 abc 0\n", "3: expected 3 fields, got 2"),
    ("0 1 0\n# comment\n\n1 -inf 0\n", "5: non-finite field"),
])
def test_read_table_names_the_first_defective_line(tmp_path, body, message):
    path = tmp_path / "samples.txt"
    path.write_text("dim=1\n" + body)
    with pytest.raises(InputError) as err:
        read_samples_file(path)
    assert str(err.value) == f"{path}:{message}"


def _source(kind, model, points):
    table = TabulatedOracle(model.dimension)
    for p in points:
        table.add(p, evaluate(model, p))
    return {
        "synthetic": SyntheticOracle(model),
        "noisy": NoisyOracle(SyntheticOracle(model), 1e-3, seed=5, relative=True),
        "tabulated": table,
        "noisy_tabulated": NoisyOracle(table, 1e-3, seed=5),
    }[kind]


@pytest.mark.parametrize(
    "kind", ["synthetic", "noisy", "tabulated", "noisy_tabulated"]
)
def test_sample_many_matches_a_loop_of_sample(kind):
    model = reference_model()
    points = np.array([[0.01 * s, -0.003 * s + 0.1] for s in range(7)])
    batched, looped = _source(kind, model, points), _source(kind, model, points)
    values = batched.sample_many(points)
    expected = np.array([looped.sample(p) for p in points])
    ledger_points = lambda o: np.array([p for p, _ in o.ledger.entries]).tobytes()
    assert ledger_points(batched) == ledger_points(looped) == points.tobytes()
    assert [v for _, v in batched.ledger.entries] == values.tolist()
    assert np.all(np.abs(values - expected) <= 1e-13 * np.abs(expected))


@pytest.mark.parametrize("kind", ["synthetic", "noisy", "tabulated"])
def test_ledger_arrays_match_the_entries_view(kind):
    model = reference_model()
    points = np.array([[0.01 * s, -0.003 * s + 0.1] for s in range(7)])
    oracle = _source(kind, model, points)
    oracle.sample_many(points[:4])
    oracle.sample(points[4])
    oracle.sample_many(points[5:])
    entries = oracle.ledger.entries
    for start in (0, 3, 7):
        got_points, got_values = oracle.ledger.arrays(start)
        want_points = np.array([p for p, _ in entries[start:]]).reshape(-1, 2)
        want_values = np.array([v for _, v in entries[start:]], dtype=complex)
        assert got_points.shape == want_points.shape
        assert got_points.tobytes() == want_points.tobytes()
        assert got_values.tobytes() == want_values.tobytes()


def test_ledger_arrays_are_read_only():
    oracle = SyntheticOracle(reference_model())
    values = oracle.sample_many(np.array([[0.0, 0.1], [0.2, 0.3]]))
    oracle.sample([0.4, 0.5])
    before = oracle.ledger.entries
    values[0] = 99.0  # the caller's copy, not the ledger's
    for start in (0, 2):
        points, values = oracle.ledger.arrays(start)
        with pytest.raises(ValueError):
            values[0] = 0.0
        with pytest.raises(ValueError):
            points[0, 0] = 1.0
    assert oracle.ledger.entries == before


@pytest.mark.parametrize("relative", [False, True])
def test_noisy_batch_repeats_the_per_point_noise_stream(relative):
    # one (m, 2) draw must give what m draws of standard_normal(2) gave,
    # applied as clean + scale * complex(g1, g2) / sqrt(2)
    model = reference_model()
    points = np.array([[0.01 * s, -0.003 * s + 0.1] for s in range(7)])
    table = _source("tabulated", model, points)
    values = NoisyOracle(table, 1e-3, seed=9, relative=relative).sample_many(points)
    rng = np.random.default_rng(9)
    expected = []
    for p in points:
        clean = evaluate(model, p)
        scale = 1e-3 * (abs(clean) if relative else 1.0)
        g1, g2 = rng.standard_normal(2)
        expected.append(clean + scale * complex(g1, g2) / np.sqrt(2.0))
    assert values.tolist() == expected


def test_sample_many_empty_batch_leaves_ledger():
    oracle = SyntheticOracle(reference_model())
    oracle.sample([0.0, 0.0])
    before = list(oracle.ledger.entries)
    values = oracle.sample_many(np.empty((0, 2)))
    assert values.shape == (0,)
    assert oracle.ledger.entries == before


def test_sample_many_rejects_bad_points():
    oracle = SyntheticOracle(reference_model())
    with pytest.raises(DimensionMismatchError):
        oracle.sample_many(np.zeros((3, 3)))
    with pytest.raises(DimensionMismatchError):
        oracle.sample_many(np.zeros(2))
    with pytest.raises(InputError):
        oracle.sample_many(np.array([[0.0, 1.0], [1.0, 1j]]))
    assert oracle.ledger.count == 0
    # a zero imaginary part is a real point
    oracle.sample_many(np.array([[0.0, 1.0 + 0j]]))
    assert oracle.ledger.entries[0][0] == (0.0, 1.0)


def test_tabulated_batch_is_all_or_nothing():
    table = TabulatedOracle(1)
    for x in (0.0, 1.0, 2.0):
        table.add([x], complex(x, 1.0))
    table.sample([0.0])
    with pytest.raises(MissingSampleError):
        table.sample_many(np.array([[1.0], [5.0], [2.0]]))
    assert table.ledger.entries == [((0.0,), 1j)]


@pytest.mark.parametrize(
    "bad", [complex("nan"), complex("inf"), complex(1, float("-inf"))]
)
def test_sample_many_rejects_non_finite_values(bad):
    table = TabulatedOracle(1)
    for x, value in ((0.0, 1.0), (1.0, bad), (2.0, 2.0)):
        table.add([x], value)
    message = r"point \(1\.0,\) overflowed or is not finite"
    with pytest.raises(InputError, match=message):
        table.sample_many(np.array([[0.0], [1.0], [2.0]]))
    assert table.ledger.count == 0
    noisy = NoisyOracle(table, sigma=1e-8, seed=1)
    with pytest.raises(InputError):
        noisy.sample([1.0])
    assert noisy.ledger.count == 0


def test_sample_many_rejects_subnormal_values():
    table = TabulatedOracle(1)
    for x, value in ((0.0, 1.0), (1.0, 1e-310j), (2.0, 0.0), (3.0, 1 + 1e-310j)):
        table.add([x], value)
    with pytest.raises(InputError, match=r"point \(1\.0,\) is subnormal"):
        table.sample_many(np.array([[0.0], [1.0], [2.0]]))
    assert table.ledger.count == 0
    # zero, and a subnormal part of a normal value, are valid samples
    table.sample_many(np.array([[2.0], [3.0]]))
    assert table.ledger.count == 2


def test_synthetic_oracle_refuses_a_subnormal_model_value():
    # a subnormal coefficient makes the value at the origin subnormal
    oracle = SyntheticOracle(ExponentialModel([5e-324j], [(0.0,)]))
    with pytest.raises(InputError, match=r"point \(0\.0,\) is subnormal"):
        oracle.sample_many(np.zeros((1, 1)))
    assert oracle.ledger.count == 0


def test_model_arrays_are_cached_and_read_only():
    model = reference_model()
    assert model.coefficients() is model.coefficients()
    assert model.exponent_matrix() is model.exponent_matrix()
    with pytest.raises(ValueError):
        model.coefficients()[0] = 0.0
    with pytest.raises(ValueError):
        model.exponent_matrix()[0, 0] = 0.0
    # equality and hashing see the values
    assert model == reference_model()
    assert hash(model) == hash(reference_model())
    assert "_coefficients" not in repr(model)


_component = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sample_many_agrees_with_evaluate(data):
    d = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 6))
    coeffs, exponents = [], []
    for _ in range(n):
        coeffs.append(complex(data.draw(_component), data.draw(_component)))
        exponents.append([
            complex(data.draw(_component), 3 * data.draw(_component))
            for _ in range(d)
        ])
    model = ExponentialModel(coeffs, exponents)
    m = data.draw(st.integers(0, 8))
    points = np.array(
        [[data.draw(st.floats(-4.0, 4.0)) for _ in range(d)] for _ in range(m)]
    ).reshape(m, d)
    oracle = SyntheticOracle(model)
    # the source's values decide the branch: a batch holding a subnormal
    # one is refused whole, any other batch is recorded
    magnitudes = np.abs(exp_matrix(model, points) @ model.coefficients())
    if np.any((magnitudes > 0) & (magnitudes < SMALLEST_NORMAL)):
        with pytest.raises(InputError, match="is subnormal"):
            oracle.sample_many(points)
        assert oracle.ledger.count == 0
        return
    values = oracle.sample_many(points)
    assert oracle.ledger.count == m
    expected = np.array([evaluate(model, p) for p in points], dtype=complex)
    scale = np.abs(np.exp(points @ model.exponent_matrix().T)) @ np.abs(
        model.coefficients()
    )
    assert np.all(np.abs(values - expected) <= 1e-13 * scale)

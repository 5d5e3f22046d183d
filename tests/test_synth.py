"""Instance generators: admissibility, planted structure, determinism."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsum import (GenerationError, InputError, SyntheticOracle,
                    nyquist_margins, recover_unknown_n)
from expsum.multivar import _line_sampler
from expsum.prony import detect_sparsity
from expsum.synth import (
    CONDITIONING_CAP,
    MAX_RANDOM_TERMS,
    REAL_RANGE,
    cancellation_instance,
    collision_instance,
    random_basis,
    random_model,
)


def test_random_model_is_admissible_for_its_basis():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        d = 1 + seed % 4
        basis = random_basis(d, rng)
        model = random_model(d, 1 + seed % 6, rng, basis)
        assert (nyquist_margins(model, basis) > 0).all()


def test_random_model_honors_node_separation():
    rng = np.random.default_rng(40)
    basis = random_basis(2, rng)
    model = random_model(2, 6, rng, basis, min_node_separation=1e-2)
    nodes = np.exp(model.exponent_matrix() @ basis.direction(0))
    gaps = np.abs(nodes[:, None] - nodes[None, :])
    np.fill_diagonal(gaps, np.inf)
    assert gaps.min() >= 1e-2


@pytest.mark.parametrize("n", [0, MAX_RANDOM_TERMS + 1, 10**9])
def test_random_model_rejects_term_counts_outside_its_range(n):
    rng = np.random.default_rng(42)
    with pytest.raises(InputError, match="n must lie in"):
        random_model(2, n, rng, random_basis(2, rng))


def test_random_model_impossible_constraints_raise():
    rng = np.random.default_rng(41)
    basis = random_basis(2, rng)
    with pytest.raises(GenerationError):
        random_model(2, 8, rng, basis, min_node_separation=10.0)


def test_random_model_deterministic_given_rng_state():
    basis = random_basis(3, np.random.default_rng(1))
    a = random_model(3, 4, np.random.default_rng(2), basis)
    b = random_model(3, 4, np.random.default_rng(2), basis)
    assert a == b


def test_collision_instance_plants_base_collisions():
    rng = np.random.default_rng(42)
    basis = random_basis(2, rng)
    model = collision_instance(2, rng, basis, pile_sizes=(3, 1))
    inner = model.exponent_matrix() @ basis.direction(0)
    # three of the four terms share a base inner product: differences of
    # the colliding exponents are orthogonal to the base direction
    unique = set(np.round(inner, 10))
    assert model.n_terms == 4
    assert len(unique) == 2


def test_deep_collision_survives_level_one():
    rng = np.random.default_rng(43)
    basis = random_basis(3, rng)
    model = collision_instance(
        3, rng, basis, pile_sizes=(3, 1), deep_collision=True
    )
    inner = model.exponent_matrix() @ basis.matrix().T
    pairs = {
        tuple(np.round([inner[j, 0], inner[j, 1]], 10))
        for j in range(model.n_terms)
    }
    # two terms agree in both the base and the first shift inner product
    assert len(pairs) == model.n_terms - 1


def test_cancellation_instance_hides_a_pile():
    rng = np.random.default_rng(44)
    basis = random_basis(2, rng)
    model = cancellation_instance(2, rng, basis, extra_terms=1)
    assert model.n_terms == 3
    oracle = SyntheticOracle(model)
    decision = detect_sparsity(
        _line_sampler(oracle, np.zeros(2), basis.direction(0)), max_terms=6
    )
    assert decision.rank == 1  # only the extra term is visible


def test_unknown_n_univariate_degenerate_case():
    rng = np.random.default_rng(45)
    basis = random_basis(1, rng)
    model = random_model(1, 3, rng, basis)
    oracle = SyntheticOracle(model)
    report = recover_unknown_n(oracle, basis)
    assert report.detected_n == 3
    assert report.samples_used == 7  # 2n + 1, nothing else to certify


# Models drawn by each generator at fixed seeds, and the rng's next
# uniform draw after it returned.  Any change to the random stream, to the
# number of draws or to an accept/reject decision moves them.
PINS = json.loads((Path(__file__).parent / "data" / "synth_pins.json")
                  .read_text(encoding="utf-8"))


def _draw_pinned(case):
    args = case["args"]
    rng = np.random.default_rng(args["seed"])
    d = args["dimension"]
    basis = random_basis(d, rng)
    if case["generator"] == "random_model":
        model = random_model(d, args["n"], rng, basis)
    elif case["generator"] == "collision_instance":
        model = collision_instance(
            d, rng, basis, pile_sizes=tuple(args["pile_sizes"]),
            deep_collision=args["deep_collision"],
        )
    else:
        model = cancellation_instance(d, rng, basis,
                                      extra_terms=args["extra_terms"])
    return model, rng


def _complex(pairs):
    return np.asarray(pairs, dtype=float) @ np.array([1.0, 1j])


@pytest.mark.parametrize(
    "case", PINS,
    ids=[f"{c['generator']}-seed{c['args']['seed']}" for c in PINS],
)
def test_generators_reproduce_their_pinned_draws(case):
    model, rng = _draw_pinned(case)
    # values, not bytes: exp may differ by an ulp across CPUs
    np.testing.assert_allclose(model.coefficients(),
                               _complex(case["coefficients"]), rtol=1e-12)
    np.testing.assert_allclose(model.exponent_matrix(),
                               _complex(case["exponents"]), rtol=1e-12)
    assert rng.random() == case["next_random"]


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(1, 3),
    n=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    margin=st.sampled_from([0.05, 0.1, 0.3]),
    separation=st.sampled_from([1e-3, 1e-2, 5e-2]),
)
def test_random_model_meets_its_documented_contract(d, n, seed, margin,
                                                    separation):
    rng = np.random.default_rng(seed)
    basis = random_basis(d, rng)
    model = random_model(d, n, rng, basis, nyquist_margin=margin,
                         min_node_separation=separation)
    assert model.n_terms == n
    inner = model.exponent_matrix() @ basis.matrix().T
    nodes = np.exp(inner[:, 0])
    gaps = np.abs(nodes[:, None] - nodes[None, :])
    np.fill_diagonal(gaps, np.inf)
    assert gaps.min() >= separation
    values = np.exp(np.arange(2 * n)[:, None] * inner[:, 0]) \
        @ model.coefficients()
    idx = np.arange(n)
    hankel = values[idx[:, None] + idx]
    assert np.linalg.cond(hankel) <= CONDITIONING_CAP * (1 + 1e-6)
    assert np.abs(inner.imag).max() < (1 - margin) * np.pi
    assert np.abs(inner.real).max() <= REAL_RANGE * (1 + 1e-12)

"""Model types: evaluation, canonicalization, admissibility margins."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expsum import (
    DegenerateModelError,
    DimensionMismatchError,
    DirectionBasis,
    ExponentialModel,
    InputError,
    InvalidBasisError,
    canonicalize,
    evaluate,
    identity_basis,
    nyquist_margins,
)

from helpers import reference_canonicalize, reference_model, scenario_one_basis


def test_evaluate_zero_exponent_is_constant():
    model = ExponentialModel([1.0], [(0, 0, 0)])
    for point in ([0, 0, 0], [1.5, -2.0, 7.0]):
        assert evaluate(model, point) == pytest.approx(1.0 + 0j)


def test_evaluate_reference_model_at_origin_sums_coefficients():
    model = reference_model()
    # direct complex arithmetic on the four coefficients
    expected = (
        1.7 * np.exp(1j * 2 * np.pi / 10)
        + 1.1 * np.exp(1j * 2 * np.pi / 20)
        + 0.9
        + 9.2 * np.exp(1j * np.pi)
    )
    assert evaluate(model, [0.0, 0.0]) == pytest.approx(expected)


def test_evaluate_single_term_inner_product_matches_published_value():
    model = reference_model()
    term = ExponentialModel([1.0], model.exponent_matrix()[:1])
    value = evaluate(term, [0.01, 0.01])
    assert np.log(value) == pytest.approx(0.005 + 0.03142j, rel=1e-3)


def test_evaluate_dimension_mismatch():
    model = ExponentialModel([1.0], [(0, 0)])
    with pytest.raises(DimensionMismatchError):
        evaluate(model, [1.0])


def test_evaluate_linear_in_coefficients():
    rng = np.random.default_rng(3)
    exponents = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    model = ExponentialModel(coeffs, exponents)
    scaled = ExponentialModel(4.5 * coeffs, exponents)
    for _ in range(5):
        point = rng.standard_normal(2)
        assert evaluate(scaled, point) == pytest.approx(
            4.5 * evaluate(model, point)
        )


def test_evaluate_separability_of_single_term():
    rng = np.random.default_rng(4)
    exponent = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    model = ExponentialModel([2.0 - 1j], [exponent])
    x, y = rng.standard_normal(3), rng.standard_normal(3)
    lhs = evaluate(model, x + y)
    rhs = evaluate(model, x) * np.exp(exponent @ y)
    assert lhs == pytest.approx(rhs)


def test_canonicalize_merges_duplicate_exponents():
    model = ExponentialModel([1.0, 2.0], [(2.0 + 1j,), (2.0 + 1j,)])
    merged = canonicalize(model)
    assert merged.n_terms == 1
    assert merged.coefficients()[0] == pytest.approx(3.0 + 0j)


def test_canonicalize_exact_cancellation_is_degenerate():
    model = ExponentialModel([1.0, -1.0], [(0.5j,), (0.5j,)])
    with pytest.raises(DegenerateModelError):
        canonicalize(model)


def test_canonicalize_reference_model_unchanged():
    model = reference_model()
    assert canonicalize(model) == canonicalize(canonicalize(model))
    assert canonicalize(model).n_terms == 4


def test_canonicalize_idempotent_and_permutation_invariant():
    rng = np.random.default_rng(5)
    exponents = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    model = ExponentialModel(coeffs, exponents)
    shuffled = ExponentialModel(coeffs[::-1], exponents[::-1])
    assert canonicalize(model) == canonicalize(shuffled)
    assert canonicalize(canonicalize(model)) == canonicalize(model)


# Components drawn from a few values, signed zeros included, so sort keys tie.
COMPONENTS = (-1.0, -0.0, 0.0, 0.5, 2.0)
# Offsets of a planted duplicate from its source row: exact, near (inside
# tol 1e-9 or 1e-3) and far (outside every tol).
OFFSETS = (0.0, 1e-12, 4e-10, 2e-9, 5e-4, 2e-3, 0.7)
COEFFICIENT_PARTS = (-2.0, -1.0, -0.0, 0.0, 1e-12, 1.0, 3.0)


@st.composite
def planted_models(draw):
    """(coefficients, exponent rows) with planted exact, near and far
    duplicate rows, in a drawn order."""
    d = draw(st.integers(1, 3))
    component = st.builds(complex, st.sampled_from(COMPONENTS),
                          st.sampled_from(COMPONENTS))
    rows = [[draw(component) for _ in range(d)]
            for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(0, 5))):
        source = rows[draw(st.integers(0, len(rows) - 1))]
        unit = st.sampled_from((1, -1, 1j, -1j, 1 + 1j))
        rows.append([z + draw(st.sampled_from(OFFSETS)) * draw(unit)
                     for z in source])
    part = st.sampled_from(COEFFICIENT_PARTS)
    coeffs = [draw(st.builds(complex, part, part)) for _ in rows]
    order = draw(st.permutations(range(len(rows))))
    return [coeffs[k] for k in order], [rows[k] for k in order]


@settings(max_examples=200, deadline=None)
@given(planted=planted_models(), tol=st.sampled_from((0.0, 1e-9, 1e-3)))
# the last row is within tol of both earlier rows, which are not within tol
# of each other: it joins the first group
@example(planted=([1.0, 2.0, 4.0], [[0j], [1.5e-9j], [5e-10 + 7.5e-10j]]),
         tol=1e-9)
def test_canonicalize_matches_the_term_list_reference(planted, tol):
    coefficients, exponents = planted
    model = ExponentialModel(coefficients, exponents)
    try:
        want_coeffs, want_exponents = reference_canonicalize(
            coefficients, exponents, tol)
    except DegenerateModelError:
        with pytest.raises(DegenerateModelError):
            canonicalize(model, tol)
        return
    got = canonicalize(model, tol)
    assert got.coefficients().tobytes() == want_coeffs.tobytes()
    assert got.exponent_matrix().tobytes() == want_exponents.tobytes()


def _flip_zero_signs(z: complex) -> complex:
    return complex(*(-part if part == 0 else part for part in (z.real, z.imag)))


@settings(max_examples=60, deadline=None)
@given(planted=planted_models())
def test_equal_models_hash_alike_signed_zeros_included(planted):
    coefficients, exponents = planted
    model = ExponentialModel(coefficients, exponents)
    flipped = ExponentialModel(
        [_flip_zero_signs(a) for a in coefficients],
        [[_flip_zero_signs(z) for z in row] for row in exponents],
    )
    assert model == flipped and hash(model) == hash(flipped)
    assert model == ExponentialModel(np.array(coefficients),
                                     np.array(exponents))
    moved = ExponentialModel([coefficients[0] + 1] + coefficients[1:],
                             exponents)
    assert model != moved
    assert model != ExponentialModel(coefficients + [1.0],
                                     exponents + [exponents[0]])
    assert model != model.to_dict()


@settings(max_examples=60, deadline=None)
@given(planted=planted_models())
def test_model_document_roundtrip_keeps_every_bit(planted):
    coefficients, exponents = planted
    model = ExponentialModel(coefficients, exponents)
    doc = model.to_dict()
    # the term-list layout of the model file
    assert json.dumps(doc) == json.dumps({
        "dimension": len(exponents[0]),
        "terms": [{"coeff": [a.real, a.imag],
                   "exponent": [[z.real, z.imag] for z in row]}
                  for a, row in zip(coefficients, exponents)],
    })
    back = ExponentialModel.from_dict(json.loads(json.dumps(doc)))
    assert back.coefficients().tobytes() == model.coefficients().tobytes()
    assert back.exponent_matrix().tobytes() == \
        model.exponent_matrix().tobytes()


def test_model_arrays_are_c_ordered_copies():
    coeffs = np.array([1.0, 2.0 + 1j])
    exponents = np.asfortranarray([[0.1j, 0.2, 0.5], [0.3, -0.4j, 0.0]])
    model = ExponentialModel(coeffs, exponents)
    coeffs[0] = exponents[0, 0] = 9.0
    assert model.coefficients().tolist() == [1.0, 2.0 + 1j]
    assert model.exponent_matrix()[0, 0] == 0.1j
    assert model.exponent_matrix().flags.c_contiguous
    assert (model.dimension, model.n_terms) == (3, 2)


@pytest.mark.parametrize("coefficients, exponents, error", [
    ([], [], DegenerateModelError),
    ([], np.empty((0, 2)), DegenerateModelError),
    ([1.0], [[]], InputError),
    ([1.0, 2.0], [[0.1], [0.2, 0.3]], InputError),
    ([1.0], [0.1], InputError),
    (1.0, [[0.1]], InputError),
    ([None], [[0.1]], InputError),
    (["x"], [[0.1]], InputError),
    ([1.0, 2.0], [[0.1]], DimensionMismatchError),
], ids=["no-term", "no-row", "zero-dimension", "ragged", "exponent-vector",
        "scalar-coefficient", "none", "string", "row-count"])
def test_model_constructor_errors(coefficients, exponents, error):
    with pytest.raises(error) as exc:
        ExponentialModel(coefficients, exponents)
    assert type(exc.value) is error


@pytest.mark.parametrize("doc, error", [
    ({"dimension": 2, "terms": [{"coeff": [1, 0], "exponent": [[0, 1]]}]},
     DimensionMismatchError),
    ({"dimension": 0, "terms": [{"coeff": [1, 0], "exponent": []}]},
     InputError),
    ({"dimension": 1, "terms": []}, DegenerateModelError),
    ({"dimension": 1, "terms": [{"coeff": [1, 0]}]}, InputError),
], ids=["dimension-differs", "zero-dimension", "no-term", "no-exponent"])
def test_model_document_errors(doc, error):
    with pytest.raises(error) as exc:
        ExponentialModel.from_dict(doc)
    assert type(exc.value) is error


def test_nyquist_margin_value():
    # phi = (0, i pi/2), direction (1, 1): |Im <phi, dir>| / ||dir|| vs pi / ||dir||
    model = ExponentialModel([1.0], [(0.0, 1j * np.pi / 2)])
    basis = DirectionBasis(2, ((1.0, 1.0), (0.0, 1.0)))
    margins = nyquist_margins(model, basis)
    expected = (np.pi - np.pi / 2) / np.sqrt(2.0)
    assert margins.shape == (1, 2)
    assert margins[0, 0] == pytest.approx(expected)
    assert (margins > 0).all()


def test_nyquist_real_exponents_margin_is_pi_over_norm():
    model = ExponentialModel([1.0], [(0.7, -1.2)])
    basis = DirectionBasis(2, ((3.0, 0.0), (0.0, 0.5)))
    margins = nyquist_margins(model, basis)
    assert margins[0, 0] == pytest.approx(np.pi / 3.0)
    assert margins[0, 1] == pytest.approx(np.pi / 0.5)
    assert (margins > 0).all()


def test_nyquist_reference_instance_term4_exceeds_strip():
    # the bundled demonstration instance is only partially admissible for
    # its published directions: term 4's inner products leave the principal
    # strip, so its margins are negative while terms 1..3 are clean
    margins = nyquist_margins(reference_model(), scenario_one_basis())
    assert margins.shape == (4, 2)
    assert np.all(margins[:3] > 0)
    assert margins[3].min() < 0


def test_nyquist_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        nyquist_margins(reference_model(), identity_basis(3))


def test_direction_basis_rejects_dependent_directions():
    with pytest.raises(InvalidBasisError):
        DirectionBasis(2, ((1.0, 1.0), (2.0, 2.0)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_direction_basis_rejects_non_finite_components(value):
    # JSON cannot carry these values, so only the library can pass them;
    # they are refused before the independence check's SVD sees them
    with pytest.raises(InvalidBasisError, match="must be finite"):
        DirectionBasis(2, ((value, 0.0), (0.0, 1.0)))


@pytest.mark.parametrize("key", ["multipliers", "combination_weights",
                                 "multiplier"])
def test_direction_basis_rejects_unknown_keys(key):
    # the sampling geometry is fixed, so a pin, or a typo, is refused
    # instead of silently running the identity basis
    doc = {"directions": [[1.0, 0.0], [0.0, 1.0]], key: {"1": [0.0, 1.0]}}
    with pytest.raises(InputError, match=rf"unknown basis keys: \['{key}'\]"):
        DirectionBasis.from_dict(doc)


def test_identity_basis_roundtrip_serialization():
    basis = identity_basis(3)
    assert DirectionBasis.from_dict(basis.to_dict()) == basis


def test_model_file_roundtrip(tmp_path):
    model = reference_model()
    path = tmp_path / "model.json"
    model.save(path)
    assert ExponentialModel.load(path) == model

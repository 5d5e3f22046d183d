"""Shared test utilities: the bundled reference instance and model comparison."""

import numpy as np

from expsum import (
    DegenerateModelError,
    DirectionBasis,
    ExponentialModel,
    canonicalize,
)
from expsum.cli import verify_models
from expsum.demo import demo_model as reference_model
from expsum.demo import scenario_one_basis, scenario_two_basis
from expsum.linalg import hankel, solve


def model_error(model_a: ExponentialModel, model_b: ExponentialModel) -> float:
    """Worst relative error between optimally matched terms of two models,
    over exponent vectors (relative to the exponent norm) and coefficients,
    as :func:`expsum.cli.verify_models` measures it; inf when the term
    counts differ."""
    result = verify_models(model_a, model_b, tol=0.0)
    if result["terms_a"] != result["terms_b"]:
        return float("inf")
    return max(result["max_exponent_rel_err"],
               result["max_coefficient_rel_err"])


def companion_nodes(values, nu: int) -> np.ndarray:
    """The nu nodes of equidistant samples F_0, F_1, ... by the classical
    Prony route, independent of the library's pencil: solve the Hankel
    system for the monic polynomial whose roots are the nodes, then take
    the eigenvalues of its companion matrix.  Raises
    :class:`expsum.SingularMatrixError` when the nu x nu Hankel matrix is
    singular, i.e. when nu exceeds the number of terms."""
    values = np.asarray(values, dtype=complex)
    beta = solve(hankel(values, nu, nu), -values[nu : 2 * nu])
    # companion matrix of z^nu + beta_{nu-1} z^{nu-1} + ... + beta_0
    comp = np.zeros((nu, nu), dtype=complex)
    comp[1:, :-1] = np.eye(nu - 1)
    comp[:, -1] = -beta
    return np.linalg.eigvals(comp)


def fold_to_principal(model: ExponentialModel, basis: DirectionBasis) -> ExponentialModel:
    """The representative of the model identifiable from this sampling geometry.

    Each inner product's imaginary part is reduced into the principal strip
    (-pi, pi] and the exponents are reassembled.  Sampling along integer
    multiples of the directions cannot distinguish a model from its folded
    representative, so recovered models are compared against this fold.
    """
    exponents = model.exponent_matrix()
    matrix = basis.matrix()
    inner = exponents @ matrix.T
    im = np.mod(inner.imag + np.pi, 2 * np.pi) - np.pi
    im = np.where(np.isclose(im, -np.pi), np.pi, im)
    folded = inner.real + 1j * im
    phis = np.linalg.solve(matrix, folded.T).T
    return canonicalize(ExponentialModel(model.coefficients(), phis))


def reference_canonicalize(coefficients, exponents, tol: float = 0.0):
    """The term-list algorithm :func:`expsum.canonicalize` replaced, kept as
    its reference.  Terms are (coefficient, exponent tuple) pairs sorted with
    ``sorted`` on the key (Re phi_1, Im phi_1, ..., Re phi_d, Im phi_d); in
    that order each joins the first earlier group whose first term is within
    ``tol`` componentwise (complex ``abs``), each group's coefficients are
    added with ``sum``, a sum with ``|sum| <= tol * max |sum|`` is dropped,
    and the survivors are sorted again.  Returns the coefficient and
    exponent arrays of the result."""
    def key(term):
        return tuple(part for z in term[1] for part in (z.real, z.imag))

    terms = [(complex(a), tuple(complex(z) for z in row))
             for a, row in zip(coefficients, exponents)]
    groups = []
    for term in sorted(terms, key=key):
        for group in groups:
            if all(abs(a - b) <= tol for a, b in zip(group[0][1], term[1])):
                group.append(term)
                break
        else:
            groups.append([term])
    sums = [sum(coefficient for coefficient, _ in group) for group in groups]
    floor = tol * max(map(abs, sums))
    merged = [(total, group[0][1]) for total, group in zip(sums, groups)
              if abs(total) > floor]
    if not merged:
        raise DegenerateModelError("all terms cancelled during canonicalization")
    merged.sort(key=key)
    return (np.array([c for c, _ in merged], dtype=complex),
            np.array([e for _, e in merged], dtype=complex))

"""Domain types for multivariate exponential sums and sampling geometry.

An exponential sum is f(x) = sum_j alpha_j * exp(<phi_j, x>) where the inner
product is bilinear (no conjugation): <phi, x> = sum_i phi_i * x_i.  Sample
points are real d-vectors; coefficients and exponent components are complex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _json, linalg
from .errors import (
    DegenerateModelError,
    DimensionMismatchError,
    InputError,
    InvalidBasisError,
)

# Smallest acceptable ratio sigma_min/sigma_max for the stacked direction
# matrix; below this the shift-system solves are not trustworthy.
INDEPENDENCE_RTOL = 1e-10


def _complex_array(values, name: str) -> np.ndarray:
    """A C-ordered complex copy of numeric ``values``, else InputError."""
    try:
        array = np.asarray(values)
    except (TypeError, ValueError) as exc:  # ragged nesting
        raise InputError(f"malformed model {name}: {exc}") from exc
    if array.dtype.kind not in "biufc":
        raise InputError(f"model {name} must be numbers, got {array.dtype}")
    return np.array(array, dtype=complex, order="C")


def _complex(pair, what: str) -> complex:
    """The complex number of a JSON ``[re, im]`` pair of numbers."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise InputError(f"{what} must be an [re, im] pair, got {pair!r}")
    return complex(_json.number(pair[0], what), _json.number(pair[1], what))


class ExponentialModel:
    """A d-variate exponential sum: the n coefficients alpha_j and the (n, d)
    matrix whose row j is the exponent vector phi_j, stored as read-only
    C-contiguous complex arrays.  Models compare and hash by value.

    No term raises :class:`DegenerateModelError`, unequal row counts
    :class:`DimensionMismatchError`, and a ragged or non-numeric input, or
    d < 1, :class:`InputError`.
    """

    def __init__(self, coefficients, exponents):
        coefficients = _complex_array(coefficients, "coefficients")
        exponents = _complex_array(exponents, "exponents")
        if coefficients.size == 0:
            raise DegenerateModelError("model must have at least one term")
        if coefficients.ndim != 1 or exponents.ndim != 2 or not exponents.size:
            raise InputError(
                "need an (n,) coefficient vector and an (n, d) exponent matrix "
                f"with d >= 1, got shapes {coefficients.shape} and "
                f"{exponents.shape}"
            )
        if len(exponents) != len(coefficients):
            raise DimensionMismatchError(
                f"{len(coefficients)} coefficients but {len(exponents)} "
                "exponent rows"
            )
        coefficients.flags.writeable = exponents.flags.writeable = False
        self._coefficients = coefficients
        self._exponents = exponents

    @property
    def dimension(self) -> int:
        return self._exponents.shape[1]

    @property
    def n_terms(self) -> int:
        return len(self._coefficients)

    def coefficients(self) -> np.ndarray:
        """Return the read-only vector of term coefficients."""
        return self._coefficients

    def exponent_matrix(self) -> np.ndarray:
        """Return the read-only (n_terms, dimension) matrix of exponent vectors."""
        return self._exponents

    def __eq__(self, other):
        if not isinstance(other, ExponentialModel):
            return NotImplemented
        return (np.array_equal(self._coefficients, other._coefficients)
                and np.array_equal(self._exponents, other._exponents))

    def __hash__(self):
        # Python's hash of a complex agrees with ==, so -0.0 and 0.0 match
        return hash((self._exponents.shape, *self._coefficients.tolist(),
                     *self._exponents.ravel().tolist()))

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "terms": [{"coeff": c, "exponent": e} for c, e in zip(
                re_im(self._coefficients).tolist(),
                re_im(self._exponents).tolist())],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExponentialModel":
        data = _json.mapping(data, "model document")
        try:
            dim = _json.integer(data["dimension"], "dimension")
            coefficients = [_complex(td["coeff"], "coeff")
                            for td in data["terms"]]
            exponents = [[_complex(z, "exponent") for z in td["exponent"]]
                         for td in data["terms"]]
        except (KeyError, TypeError, IndexError) as exc:
            raise InputError(f"malformed model document: {exc}") from exc
        if dim < 1:
            raise InputError(f"dimension must be >= 1, got {dim}")
        for row in exponents:
            if len(row) != dim:
                raise DimensionMismatchError(
                    f"term exponent has length {len(row)}, expected {dim}"
                )
        return cls(coefficients, exponents)

    def save(self, path) -> None:
        _json.write(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "ExponentialModel":
        return cls.from_dict(_json.read(path))


def re_im(z) -> np.ndarray:
    """Complex ``z`` with each entry as its [re, im] pair on a new last axis:
    the JSON encoding of a complex number, the same doubles."""
    z = np.ascontiguousarray(z, dtype=complex)
    return z.view(float).reshape(*z.shape, 2)


def row_order(rows) -> np.ndarray:
    """The stable order of the complex ``rows`` (entries of a vector, or
    rows of a matrix) by their lexicographic (Re, Im, Re, Im, ...) keys."""
    pairs = re_im(rows)
    return np.lexsort(pairs.reshape(len(pairs), -1).T[::-1])


def evaluate(model: ExponentialModel, point) -> complex:
    """Evaluate the exponential sum at a real d-vector.

    Returns sum_j alpha_j * exp(<phi_j, point>) with the bilinear inner
    product.  Raises :class:`DimensionMismatchError` on a length mismatch.
    """
    pt = np.asarray(point)
    if pt.shape != (model.dimension,):
        raise DimensionMismatchError(
            f"point has shape {pt.shape}, expected ({model.dimension},)"
        )
    if np.iscomplexobj(pt):
        if np.any(pt.imag != 0):
            raise InputError("sample points must be real vectors")
        pt = pt.real
    return complex(
        model.coefficients() @ np.exp(model.exponent_matrix() @ pt)
    )


def exp_matrix(model: ExponentialModel, points: np.ndarray) -> np.ndarray:
    """The (m, n_terms) matrix ``exp(P @ E^T)`` for an (m, d) real array P.

    The complex exponential is built from real ufuncs as
    ``e^Re (cos Im + i sin Im)``: on the benchmark's known-n matrices numpy's
    complex ``exp`` took about 330 ns per element and this about 44 ns
    (x86-64 Xeon, numpy 2.4), agreeing within 4e-16 relative.
    """
    x = points @ model.exponent_matrix().T
    r = np.exp(x.real)
    return r * np.cos(x.imag) + 1j * (r * np.sin(x.imag))


def canonicalize(model: ExponentialModel, tol: float = 0.0) -> ExponentialModel:
    """Merge duplicate exponent vectors, drop vanished terms, sort.

    Terms are sorted by the lexicographic key (Re phi_1, Im phi_1, ...,
    Re phi_d, Im phi_d), so canonical models compare deterministically.  In
    that order each term joins the first earlier group whose first term's
    exponent vector agrees with its own componentwise within ``tol``, and a
    group's coefficients are summed in order.  A merged term is dropped when
    its ``|coefficient| <= tol * max |coefficient|`` over the merged terms,
    so the drop does not depend on the model's overall scale.

    Raises :class:`DegenerateModelError` if every term cancels.
    """
    if tol < 0:
        raise InputError("tol must be >= 0")
    exponents = model.exponent_matrix()
    order = row_order(exponents)
    exponents, coefficients = exponents[order], model.coefficients()[order]
    rows = np.arange(len(order))
    with np.errstate(over="ignore", invalid="ignore"):
        # earlier[j, k]: row k < j lies within tol of row j
        earlier = ((np.abs(exponents[:, None] - exponents[None]) <= tol)
                   .all(axis=2) & (rows[:, None] > rows))
        # leader[j] is the first row of row j's group; only a row with an
        # earlier row within tol can join an earlier group
        leader = rows.copy()
        for j in np.flatnonzero(earlier.any(axis=1)):
            hits = np.flatnonzero(earlier[j] & (leader == rows))
            if hits.size:
                leader[j] = hits[0]
        groups: dict[int, list[complex]] = {}
        for k, coefficient in zip(leader.tolist(), coefficients.tolist()):
            groups.setdefault(k, []).append(coefficient)
        sums = np.array([sum(group) for group in groups.values()],
                        dtype=complex)
        magnitudes = np.abs(sums)
        keep = magnitudes > tol * magnitudes.max()
    leaders = np.fromiter(groups, dtype=int, count=len(groups))
    if not keep.any():
        raise DegenerateModelError("all terms cancelled during canonicalization")
    return ExponentialModel(sums[keep], exponents[leaders[keep]])


@dataclass(frozen=True)
class DirectionBasis:
    """The d sampling directions.

    ``directions[0]`` is the base direction along which the equidistant
    samples are taken; the remaining d-1 vectors are the shift directions
    introduced one per identification level.  All d vectors must be real,
    finite and linearly independent.  The sampling geometry on them is
    fixed: a level's multipliers and the weights of its accumulated
    direction come from ``_schedule.level_geometry``.
    """

    dimension: int
    directions: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        d = self.dimension
        if d < 1:
            raise InvalidBasisError("dimension must be >= 1")
        dirs = []
        for vec in self.directions:
            arr = np.asarray(vec)
            if np.iscomplexobj(arr):
                if np.any(arr.imag != 0):
                    raise InvalidBasisError(
                        "complex direction vectors are not supported"
                    )
                arr = arr.real
            if arr.shape != (d,):
                raise InvalidBasisError(
                    f"direction has shape {arr.shape}, expected ({d},)"
                )
            dirs.append(tuple(float(x) for x in arr))
        if len(dirs) != d:
            raise InvalidBasisError(
                f"need exactly {d} directions, got {len(dirs)}"
            )
        object.__setattr__(self, "directions", tuple(dirs))
        matrix = self.matrix()
        if not np.isfinite(matrix).all():
            raise InvalidBasisError("direction components must be finite")
        sv = linalg.singular_values(matrix)
        if sv[0] == 0 or sv[-1] < INDEPENDENCE_RTOL * sv[0]:
            raise InvalidBasisError(
                "direction vectors are not linearly independent "
                f"(sigma_min/sigma_max = {sv[-1] / sv[0] if sv[0] else 0:.2e})"
            )

    def matrix(self) -> np.ndarray:
        """Stack the directions row-wise into the d x d solve matrix."""
        return np.array(self.directions, dtype=float)

    def direction(self, i: int) -> np.ndarray:
        return np.asarray(self.directions[i], dtype=float)

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "directions": [list(v) for v in self.directions],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DirectionBasis":
        data = _json.mapping(data, "basis document")
        unknown = set(data) - {"dimension", "directions"}
        if unknown:
            raise InputError(f"unknown basis keys: {sorted(unknown)}")
        try:
            directions = tuple(
                tuple(_json.number(x, "direction component") for x in v)
                for v in data["directions"]
            )
            dim = _json.integer(data.get("dimension", len(directions)),
                                "dimension")
            return cls(dim, directions)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise InputError(f"malformed basis document: {exc}") from exc


def identity_basis(dimension: int) -> DirectionBasis:
    """The standard basis: base direction e_1, shifts e_2 ... e_d."""
    if dimension < 1:
        raise InvalidBasisError(f"dimension must be >= 1, got {dimension}")
    eye = np.eye(dimension)
    return DirectionBasis(dimension, tuple(tuple(row) for row in eye))


def nyquist_margins(model: ExponentialModel, basis: DirectionBasis) -> np.ndarray:
    """The (n_terms, dimension) array of aliasing margins of a (model, basis) pair.

    Entry (j, i) is the slack pi/||delta_i|| - |Im <phi_j, delta_i>| /
    ||delta_i|| in radians.  It is positive exactly when the imaginary part
    of the term's inner product with that direction lies strictly inside
    (-pi, pi), so the principal logarithm of the corresponding node is
    unambiguous; the pair is admissible iff every margin is positive.
    """
    if basis.dimension != model.dimension:
        raise DimensionMismatchError(
            f"basis dimension {basis.dimension} != model dimension "
            f"{model.dimension}"
        )
    directions = basis.matrix()
    inner = model.exponent_matrix() @ directions.T
    return (np.pi - np.abs(inner.imag)) / np.linalg.norm(directions, axis=1)

"""Domain types for multivariate exponential sums and sampling geometry.

An exponential sum is f(x) = sum_j alpha_j * exp(<phi_j, x>) where the inner
product is bilinear (no conjugation): <phi, x> = sum_i phi_i * x_i.  Sample
points are real d-vectors; coefficients and exponent components are complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _json
from .errors import (
    DegenerateModelError,
    DimensionMismatchError,
    InputError,
    InvalidBasisError,
)

# Smallest acceptable ratio sigma_min/sigma_max for the stacked direction
# matrix; below this the shift-system solves are not trustworthy.
INDEPENDENCE_RTOL = 1e-10


@dataclass(frozen=True)
class Term:
    """One exponential term: a complex coefficient and a d-vector exponent."""

    coefficient: complex
    exponent: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficient", complex(self.coefficient))
        object.__setattr__(
            self, "exponent", tuple(complex(z) for z in self.exponent)
        )
        if len(self.exponent) == 0:
            raise InputError("term exponent must have at least one component")

    @property
    def dimension(self) -> int:
        return len(self.exponent)


def _term_sort_key(term: Term):
    key = []
    for z in term.exponent:
        key.append(z.real)
        key.append(z.imag)
    return tuple(key)


@dataclass(frozen=True)
class ExponentialModel:
    """A d-variate exponential sum with an ordered list of terms."""

    dimension: int
    terms: tuple[Term, ...]

    def __post_init__(self):
        if self.dimension < 1:
            raise InputError(f"dimension must be >= 1, got {self.dimension}")
        terms = tuple(
            t if isinstance(t, Term) else Term(*t) for t in self.terms
        )
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise DegenerateModelError("model must have at least one term")
        for t in terms:
            if t.dimension != self.dimension:
                raise DimensionMismatchError(
                    f"term exponent has length {t.dimension}, "
                    f"expected {self.dimension}"
                )
        # read-only caches, kept out of the fields so == and hash ignore them
        coefficients = np.array([t.coefficient for t in terms], dtype=complex)
        exponents = np.array([t.exponent for t in terms], dtype=complex)
        coefficients.flags.writeable = exponents.flags.writeable = False
        object.__setattr__(self, "_coefficients", coefficients)
        object.__setattr__(self, "_exponents", exponents)

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def coefficients(self) -> np.ndarray:
        """Return the read-only vector of term coefficients."""
        return self._coefficients

    def exponent_matrix(self) -> np.ndarray:
        """Return the read-only (n_terms, dimension) matrix of exponent vectors."""
        return self._exponents

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "terms": [
                {
                    "coeff": [t.coefficient.real, t.coefficient.imag],
                    "exponent": [[z.real, z.imag] for z in t.exponent],
                }
                for t in self.terms
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExponentialModel":
        data = _json.mapping(data, "model document")
        try:
            dim = _json.integer(data["dimension"], "dimension")
            terms = tuple(
                Term(
                    complex(td["coeff"][0], td["coeff"][1]),
                    tuple(complex(z[0], z[1]) for z in td["exponent"]),
                )
                for td in data["terms"]
            )
        except (KeyError, TypeError, IndexError) as exc:
            raise InputError(f"malformed model document: {exc}") from exc
        return cls(dim, terms)

    def save(self, path) -> None:
        _json.write(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "ExponentialModel":
        return cls.from_dict(_json.read(path))


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

    Terms whose exponent vectors agree componentwise within ``tol`` are
    merged by summing coefficients.  A merged term is dropped when its
    ``|coefficient| <= tol * max |coefficient|`` over the merged terms, so
    the drop does not depend on the model's overall scale.  The result is
    sorted by the lexicographic key (Re phi_1, Im phi_1, ..., Re phi_d,
    Im phi_d) so canonical models compare deterministically.

    Raises :class:`DegenerateModelError` if every term cancels.
    """
    if tol < 0:
        raise InputError("tol must be >= 0")
    ordered = sorted(model.terms, key=_term_sort_key)
    groups: list[list[Term]] = []
    for term in ordered:
        placed = False
        for group in groups:
            rep = group[0].exponent
            if all(abs(a - b) <= tol for a, b in zip(rep, term.exponent)):
                group.append(term)
                placed = True
                break
        if not placed:
            groups.append([term])
    sums = [sum(t.coefficient for t in group) for group in groups]
    floor = tol * max(map(abs, sums))
    merged = [Term(coeff, group[0].exponent)
              for coeff, group in zip(sums, groups) if abs(coeff) > floor]
    if not merged:
        raise DegenerateModelError("all terms cancelled during canonicalization")
    merged.sort(key=_term_sort_key)
    return ExponentialModel(model.dimension, tuple(merged))


@dataclass(frozen=True)
class DirectionBasis:
    """The d sampling directions plus per-level shift multipliers.

    ``directions[0]`` is the base direction along which the equidistant
    samples are taken; the remaining d-1 vectors are the shift directions
    introduced one per identification level.  All d vectors must be real
    and linearly independent.

    ``multipliers`` optionally pins the shift multipliers kappa for a
    level (1-based); by default level i uses 0, 1, 2, ...  ``combination
    _weights`` optionally reweights the accumulated direction used by the
    collision-aware driver at levels >= 2; all weights must be nonzero.
    """

    dimension: int
    directions: tuple[tuple[float, ...], ...]
    multipliers: dict[int, tuple[float, ...]] = field(default_factory=dict)
    combination_weights: dict[int, tuple[float, ...]] = field(default_factory=dict)

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
        sv = np.linalg.svd(self.matrix(), compute_uv=False)
        if sv[0] == 0 or sv[-1] < INDEPENDENCE_RTOL * sv[0]:
            raise InvalidBasisError(
                "direction vectors are not linearly independent "
                f"(sigma_min/sigma_max = {sv[-1] / sv[0] if sv[0] else 0:.2e})"
            )
        mult = {}
        for level, kappas in dict(self.multipliers).items():
            level = int(level)
            vals = tuple(float(k) for k in kappas)
            if len(set(vals)) != len(vals):
                raise InvalidBasisError(
                    f"multipliers for level {level} are not pairwise distinct"
                )
            mult[level] = vals
        object.__setattr__(self, "multipliers", mult)
        weights = {}
        for level, ws in dict(self.combination_weights).items():
            level = int(level)
            vals = tuple(float(w) for w in ws)
            if any(w == 0 for w in vals):
                raise InvalidBasisError(
                    f"combination weights for level {level} must be nonzero"
                )
            weights[level] = vals
        object.__setattr__(self, "combination_weights", weights)

    def matrix(self) -> np.ndarray:
        """Stack the directions row-wise into the d x d solve matrix."""
        return np.array(self.directions, dtype=float)

    def direction(self, i: int) -> np.ndarray:
        return np.asarray(self.directions[i], dtype=float)

    def multipliers_for(self, level: int, count: int) -> np.ndarray:
        """Multipliers kappa_{1..count} for a level, defaulting to 0..count-1."""
        pinned = self.multipliers.get(level)
        if pinned is None:
            return np.arange(count, dtype=float)
        if len(pinned) < count:
            raise InvalidBasisError(
                f"level {level} pins {len(pinned)} multipliers, need {count}"
            )
        return np.asarray(pinned[:count], dtype=float)

    def weights_for(self, level: int) -> np.ndarray:
        """Weights of the accumulated direction used at a level (length = level)."""
        pinned = self.combination_weights.get(level)
        if pinned is None:
            return np.ones(level)
        if len(pinned) != level:
            raise InvalidBasisError(
                f"level {level} needs {level} combination weights, "
                f"got {len(pinned)}"
            )
        return np.asarray(pinned, dtype=float)

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "directions": [list(v) for v in self.directions],
            "multipliers": {
                str(k): list(v) for k, v in sorted(self.multipliers.items())
            },
            "combination_weights": {
                str(k): list(v)
                for k, v in sorted(self.combination_weights.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DirectionBasis":
        data = _json.mapping(data, "basis document")
        try:
            directions = tuple(tuple(v) for v in data["directions"])
            dim = _json.integer(data.get("dimension", len(directions)),
                                "dimension")
            mult = {
                int(k): tuple(v) for k, v in data.get("multipliers", {}).items()
            }
            weights = {
                int(k): tuple(v)
                for k, v in data.get("combination_weights", {}).items()
            }
            return cls(dim, directions, mult, weights)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise InputError(f"malformed basis document: {exc}") from exc


def identity_basis(dimension: int) -> DirectionBasis:
    """The standard basis: base direction e_1, shifts e_2 ... e_d."""
    if dimension < 1:
        raise InvalidBasisError(f"dimension must be >= 1, got {dimension}")
    eye = np.eye(dimension)
    return DirectionBasis(dimension, tuple(tuple(row) for row in eye))


@dataclass(frozen=True)
class NyquistCertificate:
    """Aliasing-margin certificate for a (model, basis) pair.

    ``margins[j][i]`` is the slack pi/||delta_i|| - |Im <phi_j, delta_i>| /
    ||delta_i|| in radians.  The pair is admissible (principal-branch
    logarithms recover the true inner products) iff every margin is
    strictly positive.
    """

    model: ExponentialModel
    basis: DirectionBasis
    margins: tuple[tuple[float, ...], ...]

    @property
    def valid(self) -> bool:
        return all(m > 0 for row in self.margins for m in row)

    def min_margin(self) -> float:
        return min(m for row in self.margins for m in row)


def validate_nyquist(model: ExponentialModel, basis: DirectionBasis) -> NyquistCertificate:
    """Compute the per-(term, direction) aliasing margins.

    A margin is positive exactly when the imaginary part of the term's
    inner product with that direction lies strictly inside (-pi, pi), so
    the principal logarithm of the corresponding node is unambiguous.
    """
    if basis.dimension != model.dimension:
        raise DimensionMismatchError(
            f"basis dimension {basis.dimension} != model dimension "
            f"{model.dimension}"
        )
    exponents = model.exponent_matrix()
    margins = []
    for j in range(model.n_terms):
        row = []
        for i in range(basis.dimension):
            direction = basis.direction(i)
            norm = float(np.linalg.norm(direction))
            inner = complex(exponents[j] @ direction)
            row.append((math.pi - abs(inner.imag)) / norm)
        margins.append(tuple(row))
    return NyquistCertificate(model, basis, tuple(margins))

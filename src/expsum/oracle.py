"""Sampling sources with exact call accounting.

Every oracle owns a :class:`SampleLedger` that records each evaluation, so
the drivers' sample-budget claims are checkable to the single call.  Sources
are synthetic (closed-form model), noisy wrappers, or tabulated files.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from ._schedule import unknown_n_plan
from .errors import DimensionMismatchError, InputError, MissingSampleError
from .model import DirectionBasis, ExponentialModel, evaluate
from .prony import EquidistantSequence

QUANTIZE_DIGITS = 12
MATCH_TOL = 1e-9


@dataclass
class SampleLedger:
    """Append-only record of (point, value) oracle calls."""

    entries: list[tuple[tuple[float, ...], complex]] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.entries)

    def record(self, point, value: complex) -> None:
        self.entries.append(
            (tuple(float(x) for x in point), complex(value))
        )

    def since(self, start: int) -> list[tuple[tuple[float, ...], complex]]:
        return self.entries[start:]


class Oracle:
    """Base sampling source: validates points, delegates, and keeps the ledger."""

    def __init__(self, dimension: int):
        if dimension < 1:
            raise InputError("oracle dimension must be >= 1")
        self.dimension = dimension
        self.ledger = SampleLedger()

    def _value(self, point: np.ndarray) -> complex:
        raise NotImplementedError

    def sample(self, point) -> complex:
        pt = np.asarray(point)
        if pt.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"point has shape {pt.shape}, expected ({self.dimension},)"
            )
        if np.iscomplexobj(pt):
            if np.any(pt.imag != 0):
                raise InputError("sample points must be real vectors")
            pt = pt.real
        pt = pt.astype(float)
        value = self._value(pt)
        self.ledger.record(pt, value)
        return value


class SyntheticOracle(Oracle):
    """Evaluates a closed-form exponential model."""

    def __init__(self, model: ExponentialModel):
        super().__init__(model.dimension)
        self.model = model

    def _value(self, point: np.ndarray) -> complex:
        return evaluate(self.model, point)


class NoisyOracle(Oracle):
    """Adds seeded circular complex Gaussian noise to an underlying source.

    Total noise variance is sigma^2, split evenly between the real and
    imaginary parts.  With ``relative=True`` the deviation is scaled by the
    magnitude of the underlying value.
    """

    def __init__(self, base: Oracle, sigma: float, seed: int = 0,
                 relative: bool = False):
        super().__init__(base.dimension)
        if sigma < 0:
            raise InputError("sigma must be >= 0")
        self.base = base
        self.sigma = float(sigma)
        self.relative = bool(relative)
        self._rng = np.random.default_rng(seed)

    def _value(self, point: np.ndarray) -> complex:
        clean = self.base._value(point)
        if self.sigma == 0.0:
            return clean
        scale = self.sigma * (abs(clean) if self.relative else 1.0)
        g1, g2 = self._rng.standard_normal(2)
        return clean + scale * complex(g1, g2) / np.sqrt(2.0)


class TabulatedOracle(Oracle):
    """Serves pre-computed samples from a table keyed by quantized points."""

    def __init__(self, dimension: int, match_tol: float = MATCH_TOL):
        super().__init__(dimension)
        self.match_tol = float(match_tol)
        self._table: dict[tuple[float, ...], complex] = {}

    @staticmethod
    def _key(point) -> tuple[float, ...]:
        return tuple(round(float(x), QUANTIZE_DIGITS) for x in point)

    def add(self, point, value: complex) -> None:
        pt = np.asarray(point, dtype=float)
        if pt.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"point has shape {pt.shape}, expected ({self.dimension},)"
            )
        key = self._key(pt)
        existing = self._table.get(key)
        if existing is not None and abs(existing - complex(value)) > self.match_tol:
            raise InputError(
                f"conflicting values for point {key}: "
                f"{existing} vs {complex(value)}"
            )
        self._table[key] = complex(value)

    def _value(self, point: np.ndarray) -> complex:
        hit = self._table.get(self._key(point))
        if hit is not None:
            return hit
        # quantization can split near-boundary keys; fall back to a scan
        for key, value in self._table.items():
            if max(abs(k - p) for k, p in zip(key, point)) <= self.match_tol:
                return value
        raise MissingSampleError(point, self.match_tol)

    @classmethod
    def from_file(cls, path) -> "TabulatedOracle":
        dimension, rows = read_samples_file(path)
        oracle = cls(dimension)
        for point, value in rows:
            oracle.add(point, value)
        return oracle


class SequenceStream:
    """Memoized equidistant samples f(origin + s * step) drawn on demand."""

    def __init__(self, oracle: Oracle, origin, step):
        self.oracle = oracle
        self.origin = np.asarray(origin, dtype=float)
        self.step = np.asarray(step, dtype=float)
        self.values: list[complex] = []

    def value_at(self, s: int) -> complex:
        self.ensure(s + 1)
        return self.values[s]

    def ensure(self, count: int) -> None:
        while len(self.values) < count:
            s = len(self.values)
            self.values.append(self.oracle.sample(self.origin + s * self.step))

    def sequence(self) -> EquidistantSequence:
        return EquidistantSequence(
            tuple(self.values), tuple(self.step), tuple(self.origin)
        )


def plan_points(basis: DirectionBasis, n_hint: int, mode: str = "known_n"):
    """Deterministic list of points a recovery run will (or may) request.

    ``known_n`` returns the exact (d+1) n points of the fixed-budget driver.
    ``unknown_n_worst_case`` returns the superset the adaptive driver may
    request under default schedules, padded to the budget bound, so samples
    can be collected offline for a :class:`TabulatedOracle`.
    """
    if n_hint < 1:
        raise InputError("n_hint must be >= 1")
    d = basis.dimension
    base = basis.direction(0)
    if mode == "known_n":
        points = [s * base for s in range(2 * n_hint)]
        for i in range(1, d):
            kappas = basis.multipliers_for(i, n_hint)
            shift = basis.direction(i)
            points.extend(k * base + shift for k in kappas)
        return points
    if mode == "unknown_n_worst_case":
        return unknown_n_plan(basis, n_hint)
    raise InputError(f"unknown planning mode: {mode!r}")


def write_samples_file(path, dimension: int, rows) -> None:
    """Write ``dim=<d>`` then one ``x_1 ... x_d re im`` line per sample."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dim={dimension}\n")
        for point, value in rows:
            coords = " ".join(f"{float(x):.17g}" for x in point)
            fh.write(f"{coords} {value.real:.17g} {value.imag:.17g}\n")


def read_samples_file(path):
    """Parse a samples file; returns (dimension, [(point, value), ...])."""
    rows = []
    dimension = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if dimension is None:
                if not line.startswith("dim="):
                    raise InputError(
                        f"{path}:{lineno}: expected 'dim=<d>' header"
                    )
                dimension = int(line[4:])
                if dimension < 1:
                    raise InputError(f"{path}: dimension must be >= 1")
                continue
            fields = line.split()
            if len(fields) != dimension + 2:
                raise InputError(
                    f"{path}:{lineno}: expected {dimension + 2} fields, "
                    f"got {len(fields)}"
                )
            point = tuple(float(x) for x in fields[:dimension])
            value = complex(float(fields[dimension]), float(fields[dimension + 1]))
            if not all(map(cmath.isfinite, (*point, value))):
                raise InputError(f"{path}:{lineno}: non-finite coordinate or value")
            rows.append((point, value))
    if dimension is None:
        raise InputError(f"{path}: empty samples file")
    return dimension, rows


def write_points_file(path, dimension: int, points) -> None:
    """Write a planned-points file: ``dim=<d>`` then one point per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dim={dimension}\n")
        for point in points:
            fh.write(" ".join(f"{float(x):.17g}" for x in point) + "\n")


def read_points_file(path):
    """Parse a planned-points file; returns (dimension, [point, ...])."""
    points = []
    dimension = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if dimension is None:
                if not line.startswith("dim="):
                    raise InputError(
                        f"{path}:{lineno}: expected 'dim=<d>' header"
                    )
                dimension = int(line[4:])
                continue
            fields = line.split()
            if len(fields) != dimension:
                raise InputError(
                    f"{path}:{lineno}: expected {dimension} coordinates, "
                    f"got {len(fields)}"
                )
            points.append(tuple(float(x) for x in fields))
    if dimension is None:
        raise InputError(f"{path}: empty points file")
    return dimension, points

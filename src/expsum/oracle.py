"""Sampling sources with exact call accounting.

Every oracle owns a :class:`SampleLedger` that records each evaluation, so
the drivers' sample-budget claims are checkable to the single call.  Sources
are synthetic (closed-form model), noisy wrappers, or tabulated files.
"""

from __future__ import annotations

import math

import numpy as np

from ._schedule import known_n_points, line_points, unknown_n_plan
from .errors import DimensionMismatchError, InputError, MissingSampleError
# ``evaluate`` is unused here; bench/tracer.py wraps ``oracle.evaluate`` by name
from .model import DirectionBasis, ExponentialModel, evaluate, exp_matrix

QUANTIZE_DIGITS = 12
MATCH_TOL = 1e-9
SMALLEST_NORMAL = float(np.finfo(float).tiny)


class SampleLedger:
    """Append-only record of oracle calls, kept as a private copy of each
    batch: an (m, d) point array and its m values.  :meth:`arrays` hands out
    read-only copies; ``entries`` and :meth:`since` build the
    ``(point tuple, value)`` view when read."""

    def __init__(self, dimension: int):
        self.count = 0
        self._points = [np.empty((0, dimension))]
        self._values = [np.empty(0, dtype=complex)]

    def extend(self, points: np.ndarray, values: np.ndarray) -> None:
        """Record a batch: an (m, d) real point array and its m values."""
        self._points.append(np.array(points, dtype=float))
        self._values.append(np.array(values, dtype=complex))
        self.count += len(values)

    def arrays(self, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Points (m, d) and values (m,) of every call from index ``start``
        on, in call order, as read-only arrays."""
        points = np.concatenate(self._points)[start:]
        values = np.concatenate(self._values)[start:]
        points.flags.writeable = values.flags.writeable = False
        return points, values

    def since(self, start: int) -> list[tuple[tuple[float, ...], complex]]:
        points, values = self.arrays(start)
        return list(zip(map(tuple, points.tolist()), values.tolist()))

    @property
    def entries(self) -> list[tuple[tuple[float, ...], complex]]:
        return self.since(0)


class Oracle:
    """Base sampling source: validates points, delegates, and keeps the ledger.

    A source implements :meth:`_values`, which maps an (m, d) float array of
    points to m complex values.  Sampling is all-or-nothing per batch: if
    ``_values`` raises or returns a non-finite value, nothing from that
    batch reaches the ledger.
    """

    def __init__(self, dimension: int):
        if dimension < 1:
            raise InputError("oracle dimension must be >= 1")
        self.dimension = dimension
        self.ledger = SampleLedger(dimension)

    def _values(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sample_many(self, points) -> np.ndarray:
        """Sample at each row of an (m, d) real array; one ledger append."""
        pts = np.asarray(points)
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise DimensionMismatchError(
                f"points have shape {pts.shape}, expected (m, {self.dimension})"
            )
        if np.iscomplexobj(pts):
            if np.any(pts.imag != 0):
                raise InputError("sample points must be real vectors")
            pts = pts.real
        pts = pts.astype(float)
        # an overflow surfaces as the InputError below, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            values = self._values(pts)
        finite = np.isfinite(values)
        if not finite.all():
            point = tuple(pts[np.argmin(finite)].tolist())
            raise InputError(
                f"the source value at point {point} overflowed or is not finite"
            )
        # a subnormal value keeps too few bits for the solves that follow;
        # zero is a valid sample.  The minimum screens the batch cheaply.
        magnitudes = np.abs(values)
        if magnitudes.min(initial=np.inf) < SMALLEST_NORMAL:
            subnormal = (magnitudes > 0) & (magnitudes < SMALLEST_NORMAL)
            if subnormal.any():
                point = tuple(pts[np.argmax(subnormal)].tolist())
                raise InputError(
                    f"the source value at point {point} is subnormal (below "
                    f"{SMALLEST_NORMAL:.3e} in magnitude); rescale the data"
                )
        self.ledger.extend(pts, values)
        return values

    def sample(self, point) -> complex:
        """Sample at one real d-vector: a batch of one."""
        return complex(self.sample_many(np.asarray(point)[None])[0])


class SyntheticOracle(Oracle):
    """Evaluates a closed-form exponential model."""

    def __init__(self, model: ExponentialModel):
        super().__init__(model.dimension)
        self.model = model

    def _values(self, points: np.ndarray) -> np.ndarray:
        return exp_matrix(self.model, points) @ self.model.coefficients()


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

    def _values(self, points: np.ndarray) -> np.ndarray:
        clean = self.base._values(points)
        if self.sigma == 0.0:
            return clean
        scale = self.sigma * (np.abs(clean)[:, None] if self.relative else 1.0)
        # one (m, 2) draw is the same stream as m draws of 2; the view pairs
        # each row into re + i im without complex rounding
        noise = scale * self._rng.standard_normal((len(clean), 2)) / np.sqrt(2.0)
        return clean + noise.view(complex)[:, 0]


class TabulatedOracle(Oracle):
    """Serves pre-computed samples from a table keyed by quantized points."""

    def __init__(self, dimension: int, match_tol: float = MATCH_TOL):
        super().__init__(dimension)
        self.match_tol = float(match_tol)
        self._table: dict[tuple[float, ...], complex] = {}

    @staticmethod
    def _keys(points: np.ndarray) -> list[tuple[float, ...]]:
        """Row keys of an (m, d) array rounded to 12 decimals (-0.0 is +0.0). From
        2**53 / 10**12 on, np.round would move or overflow what rounding keeps."""
        small = np.abs(points) < 2.0**53 / 10**QUANTIZE_DIGITS
        rounded = np.round(np.where(small, points, 0.0), QUANTIZE_DIGITS)
        return list(map(tuple, np.where(small, rounded, points).tolist()))

    def _insert(self, points: np.ndarray, values: list[complex],
                path=None, lines=None) -> None:
        """Store m rows in one pass; a repeated point must repeat its value to
        within ``match_tol``.  A conflict names ``path`` and ``lines`` if given."""
        keys = self._keys(points)
        for i, (key, value) in enumerate(zip(keys, values)):
            existing = self._table.get(key)
            if existing is not None and abs(existing - value) > self.match_tol:
                message = f"conflicting values for point {key}: {existing} vs {value}"
                if path is not None:
                    j = max(j for j in range(i) if keys[j] == key)
                    message = f"{path}:{lines[i]}: {message} (first: line {lines[j]})"
                raise InputError(message)
            self._table[key] = value

    def add(self, point, value: complex) -> None:
        pt = np.asarray(point, dtype=float)
        if pt.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"point has shape {pt.shape}, expected ({self.dimension},)"
            )
        self._insert(pt[None], [complex(value)])

    def _scan(self, point: list[float]) -> complex:
        # quantization can split near-boundary keys; fall back to the nearest
        # stored point, the first in file order on a tie
        distance = lambda key: max(abs(k - p) for k, p in zip(key, point))
        key = min(self._table, key=distance, default=None)
        if key is None or distance(key) > self.match_tol:
            raise MissingSampleError(point, self.match_tol)
        return self._table[key]

    def _values(self, points: np.ndarray) -> np.ndarray:
        values = list(map(self._table.get, self._keys(points)))
        if None in values:
            values = [self._scan(p) if v is None else v
                      for p, v in zip(points.tolist(), values)]
        return np.array(values, dtype=complex)

    @classmethod
    def from_file(cls, path) -> "TabulatedOracle":
        dimension, rows, lines = _read_table(path, 2, "samples")
        oracle = cls(dimension)
        # the (re, im) column pairs viewed as complex: no rounding, signed zeros kept
        values = rows[:, dimension:].copy().view(complex)[:, 0]
        oracle._insert(rows[:, :dimension], values.tolist(), path, lines)
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
        """Draw every missing index below ``count`` in one batch."""
        if count > len(self.values):
            points = line_points(self.origin, self.step, len(self.values), count)
            self.values.extend(self.oracle.sample_many(points).tolist())


def plan_points(basis: DirectionBasis, n_hint: int, mode: str = "known_n"):
    """Deterministic list of points a recovery run will (or may) request.

    ``known_n`` returns the exact (d+1) n points of the fixed-budget driver.
    ``unknown_n_worst_case`` returns the superset the adaptive driver may
    request under default schedules, padded to the budget bound, so samples
    can be collected offline for a :class:`TabulatedOracle`.
    """
    if n_hint < 1:
        raise InputError("n_hint must be >= 1")
    if mode == "known_n":
        base, _, shifts = known_n_points(basis, n_hint)
        return [*base, *shifts.reshape(-1, basis.dimension)]
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


def _read_table(path, extra: int, kind: str):
    """Parse a ``dim=<d>`` file whose rows hold d + ``extra`` finite numbers;
    returns (dimension, (m, d + extra) float array, [line number per row]).
    Every defect is an :class:`InputError` naming the file and line: the
    first defective line's, as if the file were read one line at a time."""
    fields, lines = [], []
    dimension = width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if dimension is None:
                try:
                    if not line.startswith("dim="):
                        raise ValueError("expected 'dim=<d>' header")
                    dimension = int(line[4:])
                    if dimension < 1:
                        raise ValueError("dimension must be >= 1")
                except ValueError as exc:
                    raise InputError(f"{path}:{lineno}: {exc}") from exc
                width = dimension + extra
                continue
            row = line.split()
            if len(row) != width:
                _check_rows(path, fields, lines, width)  # earlier lines first
                raise InputError(
                    f"{path}:{lineno}: expected {width} fields, got {len(row)}")
            fields += row
            lines.append(lineno)
    if dimension is None:
        raise InputError(f"{path}: empty {kind} file")
    try:
        table = np.array(fields, dtype=float)  # float()'s syntax and rounding
        if np.isfinite(table).all():
            return dimension, table.reshape(-1, width), lines
    except ValueError:
        pass
    _check_rows(path, fields, lines, width)


def _check_rows(path, fields: list[str], lines: list[int], width: int) -> None:
    """Raise the :class:`InputError` of the first row, ``width`` fields each,
    that holds a field that is not a number or is not finite."""
    for k, lineno in enumerate(lines):
        try:
            row = [float(x) for x in fields[k * width:(k + 1) * width]]
            if not all(map(math.isfinite, row)):
                raise ValueError("non-finite field")
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc


def read_samples_file(path):
    """Parse a samples file; returns (dimension, [(point, value), ...])."""
    d, rows, _ = _read_table(path, 2, "samples")
    return d, [(tuple(r[:d]), complex(r[d], r[d + 1])) for r in rows.tolist()]


def write_points_file(path, dimension: int, points) -> None:
    """Write a planned-points file: ``dim=<d>`` then one point per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dim={dimension}\n")
        for point in points:
            fh.write(" ".join(f"{float(x):.17g}" for x in point) + "\n")


def read_points_file(path):
    """Parse a planned-points file; returns (dimension, [point, ...])."""
    d, rows, _ = _read_table(path, 0, "points")
    return d, [tuple(r) for r in rows.tolist()]

"""Command-line surface: generate, plan, recover, verify, demo.

Exit codes: 0 success, 2 invalid input, 3 numerical failure, 4 budget
exceeded, 5 verification mismatch.  Errors are reported as one JSON object
on stderr with an ``error_class`` field.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import _json
from .demo import run_demo
from .errors import ExpsumError, InputError
from .linalg import min_cost_matching
from .model import (
    DirectionBasis,
    ExponentialModel,
    canonicalize,
    evaluate,  # unused; bench/tracer.py wraps ``cli.evaluate`` by name
    identity_basis,
    nyquist_margins,
)
from .multivar import (RecoveryConfig, recover_known_n, recover_unknown_n,
                       residual_floor)
from .oracle import (
    SyntheticOracle,
    TabulatedOracle,
    plan_points,
    write_points_file,
)
from .synth import random_model

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_BUDGET = 4
EXIT_MISMATCH = 5


@dataclass
class RunConfig:
    """Serializable run configuration consumed by plan/recover.

    ``io`` holds default paths (keys ``model``, ``samples``, ``out``);
    command-line flags override them.
    """

    basis: DirectionBasis | None = None
    mode: str = "unknown_n"
    n: int | None = None
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)
    io: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "basis": None if self.basis is None else self.basis.to_dict(),
            "mode": self.mode,
            "n": self.n,
            "recovery": self.recovery.to_dict(),
            "io": dict(self.io),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        data = _json.mapping(data, "run config")
        known = {"basis", "mode", "n", "recovery", "io"}
        unknown = set(data) - known
        if unknown:
            raise InputError(f"unknown run-config keys: {sorted(unknown)}")
        basis = data.get("basis")
        mode = data.get("mode", "unknown_n")
        if mode not in ("known_n", "unknown_n"):
            raise InputError(f"mode must be known_n or unknown_n, got {mode!r}")
        n = data.get("n")
        if n is not None:
            _json.integer(n, "n")
        io = _json.mapping(data.get("io", {}), "io")
        bad = set(io) - {"model", "samples", "out"}
        if bad:
            raise InputError(f"unknown io keys: {sorted(bad)}")
        if not all(isinstance(v, str) for v in io.values()):
            raise InputError(f"io paths must be strings, got {io}")
        return cls(
            basis=None if basis is None else DirectionBasis.from_dict(basis),
            mode=mode,
            n=n,
            recovery=RecoveryConfig.from_dict(data.get("recovery", {})),
            io=dict(io),
        )

    @classmethod
    def load(cls, path) -> "RunConfig":
        return cls.from_dict(_json.read(path))

    def save(self, path) -> None:
        _json.write(path, self.to_dict())


def _resolve_config(args) -> RunConfig:
    """The run config of ``--config`` (or the defaults) with every flag
    given put over it; ``--model`` or ``--samples`` replaces the config's
    source.  ``--known-n`` with ``--n-hint`` is an :class:`InputError`."""
    flags = vars(args)
    config = RunConfig.load(args.config) if flags.get("config") else RunConfig()
    if flags.get("seed") is not None:
        config.recovery = replace(config.recovery, seed=args.seed)
    if flags.get("known_n") is not None and flags.get("n_hint") is not None:
        raise InputError("give --known-n or --n-hint, not both")
    if flags.get("known_n") is not None:
        config.mode, config.n = "known_n", args.known_n
    if flags.get("n_hint") is not None:
        config.n = args.n_hint
    if flags.get("model") or flags.get("samples"):
        config.io = {k: v for k, v in config.io.items() if k == "out"}
    config.io.update({key: str(flags[key]) for key in ("model", "samples", "out")
                      if flags.get(key)})
    return config


def cmd_generate(args) -> int:
    basis = _resolve_config(args).basis or identity_basis(args.dimension)
    if basis.dimension != args.dimension:
        raise InputError(
            f"config basis dimension {basis.dimension} != requested "
            f"{args.dimension}"
        )
    rng = np.random.default_rng(args.seed)  # checked by RecoveryConfig
    model = random_model(
        args.dimension,
        args.n_terms,
        rng,
        basis,
        nyquist_margin=args.nyquist_margin,
    )
    margins = nyquist_margins(model, basis)
    if not (margins > 0).all():
        raise InputError("generated model failed its admissibility check")
    model.save(args.out)
    _json.emit(
        {
            "written": str(args.out),
            "dimension": args.dimension,
            "terms": model.n_terms,
            "min_margin": float(margins.min()),
        }
    )
    return EXIT_OK


def cmd_plan(args) -> int:
    config = _resolve_config(args)
    if config.basis is None:
        raise InputError("plan requires a config file with a basis")
    if config.n is None:
        raise InputError("plan needs --known-n, --n-hint or n in the config")
    mode = "known_n" if config.mode == "known_n" else "unknown_n_worst_case"
    points = plan_points(config.basis, config.n, mode,
                         config.recovery.rescue_k_max, config.recovery.seed)
    write_points_file(args.out, config.basis.dimension, points)
    _json.emit(
        {"written": str(args.out), "points": len(points), "mode": mode}
    )
    return EXIT_OK


def cmd_recover(args) -> int:
    config = _resolve_config(args)
    model_path, samples_path = config.io.get("model"), config.io.get("samples")
    if bool(model_path) == bool(samples_path):
        raise InputError("recover needs exactly one of --model or --samples")
    if "out" not in config.io:
        raise InputError("recover needs --out (or io.out in the config)")
    if model_path:
        oracle = SyntheticOracle(ExponentialModel.load(model_path))
    else:
        oracle = TabulatedOracle.from_file(samples_path)
    basis = config.basis or identity_basis(oracle.dimension)
    if basis.dimension != oracle.dimension:
        raise InputError(
            f"basis dimension {basis.dimension} != source dimension "
            f"{oracle.dimension}"
        )
    if config.mode == "known_n":
        if config.n is None:
            raise InputError("known_n mode requires n (--known-n)")
        report = recover_known_n(oracle, basis, config.n)
    else:
        report = recover_unknown_n(oracle, basis, config.recovery)

    out = Path(config.io["out"])
    out.mkdir(parents=True, exist_ok=True)
    report.model.save(out / "recovered_model.json")
    _json.write(out / "report.json", report.to_dict(), indent=False)
    _json.emit(
        {
            "written": str(out),
            "detected_n": report.detected_n,
            "samples_used": report.samples_used,
            "max_residual_rel": report.max_residual_rel,
            "warnings": list(report.warnings),
        }
    )
    return EXIT_OK


def verify_models(model_a: ExponentialModel, model_b: ExponentialModel,
                  tol: float) -> dict:
    """Match terms by nearest exponent vector and report worst errors."""
    a = canonicalize(model_a)
    b = canonicalize(model_b)
    result = {"dimension": a.dimension, "terms_a": a.n_terms,
              "terms_b": b.n_terms, "tol": tol}
    if a.dimension != b.dimension:
        raise InputError("models have different dimensions")
    if a.n_terms != b.n_terms:
        result["match"] = False
        result["reason"] = "term-count mismatch"
        return result
    ea, eb = a.exponent_matrix(), b.exponent_matrix()
    with np.errstate(over="ignore", invalid="ignore"):
        cost = np.linalg.norm(ea[:, None, :] - eb[None, :, :], axis=2)
    cols = min_cost_matching(cost)
    ca, cb = a.coefficients(), b.coefficients()
    norms = [float(np.linalg.norm(row)) for row in ea]
    exp_floor = residual_floor(max(norms))
    coeff_floor = residual_floor(float(np.max(np.abs(ca))))
    exp_err = coeff_err = 0.0
    for r, c in enumerate(cols):
        exp_err = max(exp_err, float(cost[r, c]) / max(norms[r], exp_floor))
        with np.errstate(over="ignore"):
            coeff_err = max(
                coeff_err, abs(ca[r] - cb[c]) / max(abs(ca[r]), coeff_floor)
            )
    if not np.isfinite(coeff_err):
        raise InputError("coefficient differences overflow; cannot compare")
    result["max_exponent_rel_err"] = exp_err
    result["max_coefficient_rel_err"] = coeff_err
    result["match"] = bool(exp_err <= tol and coeff_err <= tol)
    return result


def cmd_verify(args) -> int:
    if not 0 <= args.tol < np.inf:
        raise InputError(f"--tol must be finite and >= 0, got {args.tol}")
    report = verify_models(
        ExponentialModel.load(args.model_a),
        ExponentialModel.load(args.model_b),
        args.tol,
    )
    _json.emit(report)
    return EXIT_OK if report["match"] else EXIT_MISMATCH


def cmd_demo(args) -> int:
    return EXIT_OK if run_demo() else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expsum",
        description=(
            "Recover the terms of a multivariate exponential sum from "
            "adaptively chosen samples."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a random admissible model file")
    p.add_argument("--dimension", type=int, required=True)
    p.add_argument("--terms", type=int, required=True, dest="n_terms")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nyquist-margin", type=float, default=0.3)
    p.add_argument("--config", type=Path, help="run config providing the basis")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("plan", help="write the points a recovery will request")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--known-n", type=int, dest="known_n")
    p.add_argument("--n-hint", type=int, dest="n_hint")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("recover", help="run a recovery and write its report")
    p.add_argument("--config", type=Path)
    p.add_argument("--model", type=Path, help="sample a model file exactly")
    p.add_argument("--samples", type=Path, help="serve tabulated samples")
    p.add_argument("--known-n", type=int, dest="known_n")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", type=Path, help="output directory (or io.out)")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("verify", help="compare two model files term by term")
    p.add_argument("model_a", type=Path)
    p.add_argument("model_b", type=Path)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("demo", help="run the bundled end-to-end demonstration")
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ExpsumError as exc:
        return _fail(type(exc).__name__, exc, exc.exit_code)
    except OSError as exc:
        return _fail("OSError", exc, EXIT_INPUT)
    except MemoryError as exc:
        # a huge term count can exhaust memory while its points are built
        return _fail("MemoryError", exc, EXIT_INPUT)


def _fail(error_class: str, exc: BaseException, code: int) -> int:
    """Report ``exc`` as one JSON object on stderr and return ``code``."""
    _json.emit({"error_class": error_class, "message": str(exc)},
               stream=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Bundled demonstration instance and end-to-end transcript.

A fixed 4-term bivariate model is recovered twice: once on a direction pair
that separates all terms (fixed 12-sample budget, term count given), and
once on directions chosen to make two projections collide (term count and
collision structure detected adaptively, 19 samples).

Expected values are frozen to 4 significant digits.  Two inner products of
term 4 lie outside the principal imaginary strip (-pi, pi] of their sampling
step; the sampled data determines such components only up to multiples of
2 pi / step, so the expected values are their folded representatives, marked
"folded" in the transcript.
"""

from __future__ import annotations

import sys

import numpy as np

from .model import DirectionBasis, ExponentialModel
from .multivar import RecoveryConfig, recover_known_n, recover_unknown_n
from .oracle import SyntheticOracle

DEMO_TOL = 5e-4

_TP = 2 * np.pi


def demo_model() -> ExponentialModel:
    """The bundled 4-term bivariate model."""
    return ExponentialModel(
        [1.7 * np.exp(1j * _TP / 10), 1.1 * np.exp(1j * _TP / 20), 0.9,
         9.2 * np.exp(1j * _TP / 2)],
        [(-0.5, 1 + 1j * _TP * 0.5),
         (0.1 + 1j * _TP * 3.4, 1.5 + 1j * _TP * 5.2),
         (0.1 + 1j * _TP * 3.4, -0.5 + 1j * _TP * 12.6),
         (-2.5 + 1j * _TP * 23.2, -10 + 1j * _TP * 82.3)],
    )


def scenario_one_basis() -> DirectionBasis:
    return DirectionBasis(2, ((0.01, 0.01), (-0.01, 0.01)))


def scenario_two_basis() -> DirectionBasis:
    return DirectionBasis(2, ((0.03, 0.0), (0.0, 0.01)))


# scenario 1 expectations, ordered by base inner product below
_S1_BASE_LOGS = [
    (0.005 + 0.03142j, ""),
    (0.016 + 0.5404j, ""),
    (-0.004 + 1.005j, ""),
    (-0.125 + 0.3456j, "folded"),
]
_S1_SHIFT_LOGS = [
    (0.015 + 0.03142j, ""),
    (0.014 + 0.1131j, ""),
    (-0.006 + 0.5781j, ""),
    (-0.075 - 2.570j, "folded"),
]
_S1_COEFFS = [
    (1.375 + 0.9992j, ""),
    (1.046 + 0.3399j, ""),
    (0.9 + 0j, ""),
    (-9.2 + 0j, ""),
]
_S1_EXPONENTS = [
    ((-0.5, 1.0 + 3.142j), ("", "")),
    ((0.1 + 21.36j, 1.5 + 32.67j), ("", "")),
    ((0.1 + 21.36j, -0.5 + 79.17j), ("", "")),
    ((-2.5 + 145.8j, -10.0 - 111.2j), ("", "folded")),
]

# scenario 2 expectations
_S2_SAMPLES_DETECT = 7
_S2_PILE_COUNT = 3
_S2_PILE_LOGS = [
    (-0.075 - 1.910j, "folded"),
    (-0.015 + 0j, ""),
    (0.003 + 0.6409j, ""),
]
_S2_SPLIT_RANKS = (1, 2, 1)
_S2_SUBLOGS_RANK2 = [0.015 + 0.3267j, -0.005 + 0.7917j]
_S2_TOTAL_SAMPLES = 19
_S2_N = 4


def _rel_err(got: complex, want: complex) -> float:
    return abs(got - want) / max(abs(want), 1e-12)


def _fmt(z: complex) -> str:
    return f"{z.real:+.6g}{z.imag:+.6g}j"


class _Transcript:
    def __init__(self, out):
        self.out = out
        self.ok = True

    def line(self, text: str = "") -> None:
        print(text, file=self.out)

    def check(self, label: str, got, want, note: str = "") -> None:
        err = _rel_err(complex(got), complex(want))
        good = err <= DEMO_TOL
        self.ok = self.ok and good
        status = "ok" if good else "MISMATCH"
        suffix = f"  [{note}]" if note else ""
        self.line(
            f"  {label:<22} {_fmt(complex(got)):>26}  "
            f"expected {_fmt(complex(want)):>26}  {status}{suffix}"
        )

    def check_count(self, label: str, got: int, want: int) -> None:
        good = got == want
        self.ok = self.ok and good
        status = "ok" if good else "MISMATCH"
        self.line(f"  {label:<22} {got:>6}  expected {want:>6}  {status}")


def _match_nearest(reference, candidates):
    """Index of the candidate closest to the reference value."""
    return int(np.argmin([abs(c - reference) for c in candidates]))


def run_demo(out=None) -> bool:
    """Run both scenarios, print the transcript, return overall success."""
    if out is None:
        out = sys.stdout
    t = _Transcript(out)
    model = demo_model()

    t.line("scenario 1: term count known, separating directions, fixed budget")
    oracle = SyntheticOracle(model)
    report = recover_known_n(oracle, scenario_one_basis(), 4)
    t.check_count("samples used", report.samples_used, 12)
    base_logs, shift_logs = report.per_level[-1].inner_products.T
    coeffs = report.per_level[-1].coefficient_sums
    for idx, (want, note) in enumerate(_S1_BASE_LOGS, start=1):
        j = _match_nearest(want, base_logs)
        t.check(f"base log {idx}", base_logs[j], want, note)
        w_shift, n_shift = _S1_SHIFT_LOGS[idx - 1]
        t.check(f"shift log {idx}", shift_logs[j], w_shift, n_shift)
        w_coeff, n_coeff = _S1_COEFFS[idx - 1]
        t.check(f"coefficient {idx}", coeffs[j], w_coeff, n_coeff)
    recovered = report.model.exponent_matrix()
    for idx, (want_vec, notes) in enumerate(_S1_EXPONENTS, start=1):
        j = int(np.argmin(np.linalg.norm(recovered - want_vec, axis=1)))
        for comp in range(2):
            t.check(
                f"exponent {idx}[{comp}]",
                recovered[j, comp],
                want_vec[comp],
                notes[comp],
            )
    t.line()

    t.line("scenario 2: term count unknown, colliding projections, adaptive")
    oracle2 = SyntheticOracle(model)
    report2 = recover_unknown_n(
        oracle2, scenario_two_basis(), RecoveryConfig(max_terms=8)
    )
    base_points = [e[0] for e in oracle2.ledger.entries[:_S2_SAMPLES_DETECT]]
    step = scenario_two_basis().direction(0)
    detection_on_line = all(
        np.allclose(pt, s * step) for s, pt in enumerate(base_points)
    )
    t.check_count(
        "detection samples",
        _S2_SAMPLES_DETECT if detection_on_line else -1,
        _S2_SAMPLES_DETECT,
    )
    t.check_count(
        "piles detected", report2.per_level[0].pile_count, _S2_PILE_COUNT
    )
    pile_logs = report2.per_level[0].inner_products[:, 0]
    for idx, (want, note) in enumerate(_S2_PILE_LOGS, start=1):
        j = _match_nearest(want, pile_logs)
        t.check(f"pile log {idx}", pile_logs[j], want, note)
    got_ranks = tuple(sorted(report2.per_level[1].split_ranks))
    want_ranks = tuple(sorted(_S2_SPLIT_RANKS))
    good = got_ranks == want_ranks
    t.ok = t.ok and good
    t.line(
        f"  {'pile ranks':<22} {str(got_ranks):>26}  "
        f"expected {str(want_ranks):>26}  {'ok' if good else 'MISMATCH'}"
    )
    rank2_members = [
        row[1]
        for row in report2.per_level[1].inner_products
        if _rel_err(row[0], _S2_PILE_LOGS[2][0]) <= 10 * DEMO_TOL
    ]
    for idx, want in enumerate(_S2_SUBLOGS_RANK2, start=1):
        j = _match_nearest(want, rank2_members)
        t.check(f"split log {idx}", rank2_members[j], want)
    t.check_count("terms found", report2.detected_n, _S2_N)
    t.check_count("samples used", report2.samples_used, _S2_TOTAL_SAMPLES)
    t.line()
    t.line(
        "note: quantities marked [folded] are reported in the principal "
        "imaginary strip of their sampling step; the samples determine "
        "them only up to multiples of 2*pi/step."
    )
    t.line(f"demo {'PASSED' if t.ok else 'FAILED'}")
    return t.ok

"""Branches of the adaptive driver's level loop, pinned on fixed instances.

Exact planted collisions settle every pile rank confidently, so the
fallback branches (non-confident ranks, the size cap, piles below the noise
floor, the refit fallback, exhausted retries, the pile-count check) are
reached only on noisy data.  The noisy instances are cases of one corpus:
case ``idx`` is the ``idx``-th ``random_model`` drawn from ``rng(7)`` in the
cycle of (d, n) cells below, sampled with relative noise seeded by ``idx``.
Each test pins the warning, the samples used and the rank decisions kept.
A degenerate pile pencil is planted with a widened tolerance: it raises,
in the library and at the command line, rather than being retried.
"""

import json
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

from expsum import (
    ExpsumError,
    NoisyOracle,
    PencilDegenerateError,
    RecoveryConfig,
    SingularMatrixError,
    SparsityUndetectedError,
    SyntheticOracle,
    identity_basis,
    recover_unknown_n,
)
from expsum.cli import EXIT_NUMERICAL, main
from expsum.synth import (
    collision_instance,
    model_from_inner_products,
    random_basis,
    random_model,
)

from helpers import model_error

CELLS = [(2, 2), (2, 4), (3, 3), (4, 4)]
CORPUS_SIZE = 120


@lru_cache(maxsize=None)
def corpus_models():
    rng = np.random.default_rng(7)
    return [random_model(d, n, rng, identity_basis(d))
            for d, n in (CELLS[k % len(CELLS)] for k in range(CORPUS_SIZE))]


def corpus_model(idx):
    return corpus_models()[idx]


def noisy_run(idx, sigma=1e-8, **config):
    model = corpus_model(idx)
    oracle = NoisyOracle(SyntheticOracle(model), sigma, seed=idx,
                         relative=True)
    report = recover_unknown_n(oracle, identity_basis(model.dimension),
                               RecoveryConfig(**config))
    assert report.samples_used == oracle.ledger.count
    return report


@pytest.mark.parametrize("idx, config, warning, samples, decisions, count", [
    (1, {}, "pile 0 at level 1: accepting non-confident rank 2", 113, 5, 4),
    (6, {}, "pile 2 at level 2 stayed below the noise floor; treating it as "
     "a single term", 235, 12, 10),
    (15, {"rank_rel_tol": 1e-6}, "final coefficient refit was rank "
     "deficient; keeping the pile aggregates", 253, 15, 6),
], ids=["non-confident", "noise-floor", "refit-fallback"])
def test_noisy_fallback_warning(idx, config, warning, samples, decisions,
                                count):
    report = noisy_run(idx, **config)
    assert warning in report.warnings
    assert len(report.warnings) == count
    assert report.samples_used == samples
    assert len(report.rank_confidences) == decisions


def test_noisy_corpus_outcome_counts():
    # the yardstick of the noise handling: at sigma = 1e-8 and the default
    # config, how the corpus's cases end, by term count and error class
    outcomes = Counter()
    for idx in range(CORPUS_SIZE):
        planted = corpus_model(idx).n_terms
        try:
            report = noisy_run(idx)
        except ExpsumError as exc:
            outcomes[type(exc).__name__] += 1
            continue
        found = report.model.n_terms
        if found == planted:
            outcomes["right count"] += 1
            outcomes["right, within 1e-4"] += int(
                model_error(report.model, corpus_model(idx)) <= 1e-4
            )
        else:
            outcomes["too many" if found > planted else "too few"] += 1
    assert dict(outcomes) == {
        "right count": 28, "right, within 1e-4": 28, "too many": 51,
        "SparsityUndetectedError": 34, "SingularMatrixError": 7,
    }


def test_size_cap_accepts_the_best_deficiency_after_the_last_window():
    report = noisy_run(46)
    # the size-cap fallback settles after the window's own decisions
    assert report.warnings[-2:] == (
        "pile 8 at level 2 stayed below the noise floor; treating it as a "
        "single term",
        "pile 0 at level 2: accepting non-confident rank 7",
    )
    assert len(report.warnings) == 11
    assert report.samples_used == 235
    assert len(report.rank_confidences) == 13


def test_level_retries_exhausted_raise_singular():
    model = corpus_model(3)
    oracle = NoisyOracle(SyntheticOracle(model), 1e-8, seed=3, relative=True)
    with pytest.raises(SingularMatrixError,
                       match="level 3 shift system stayed singular after 4 "
                             "retries"):
        recover_unknown_n(oracle, identity_basis(4))
    assert oracle.ledger.count == 245


def test_level_with_more_piles_than_max_terms_raises_before_drawing():
    model = corpus_model(14)
    oracle = NoisyOracle(SyntheticOracle(model), 1e-8, seed=14, relative=True)
    with pytest.raises(SparsityUndetectedError,
                       match="level 2 starts with 23 piles, more than "
                             "max_terms = 16"):
        recover_unknown_n(oracle, identity_basis(3))
    assert oracle.ledger.count == 91


def test_non_confident_base_rank_warns():
    rng = np.random.default_rng([11, 4])
    basis = random_basis(2, rng)
    model = collision_instance(2, rng, basis, (3, 1))
    oracle = NoisyOracle(SyntheticOracle(model), 1e-7, seed=4, relative=True)
    report = recover_unknown_n(oracle, basis, RecoveryConfig(max_terms=8))
    assert report.warnings[0] == (
        "base rank 5 is not confident; continuing with best guess"
    )
    assert len(report.warnings) == 5
    assert report.samples_used == 57
    assert len(report.rank_confidences) == 6


def pencil_model():
    # one base node, so one pile: its 1 x 1 base pencil passes the widened
    # check and its 2 x 2 level-1 pencil fails it
    return model_from_inner_products(
        np.array([[0.1j, 0.3j], [0.1j, -0.5j]]), identity_basis(2),
        np.array([1.0, 2.0]),
    )


def test_degenerate_pencil_raises_instead_of_retrying(monkeypatch):
    monkeypatch.setattr("expsum.linalg.PENCIL_SINGULAR_RTOL", 0.999)
    oracle = SyntheticOracle(pencil_model())
    with pytest.raises(PencilDegenerateError):
        recover_unknown_n(oracle, identity_basis(2))
    assert oracle.ledger.count == 7


def test_degenerate_pencil_exits_3_with_one_json_object(monkeypatch,
                                                        tmp_path, capsys):
    monkeypatch.setattr("expsum.linalg.PENCIL_SINGULAR_RTOL", 0.999)
    pencil_model().save(tmp_path / "model.json")
    code = main(["recover", "--model", str(tmp_path / "model.json"),
                 "--out", str(tmp_path / "run")])
    assert code == EXIT_NUMERICAL
    payload = json.loads(capsys.readouterr().err)
    assert payload["error_class"] == "PencilDegenerateError"

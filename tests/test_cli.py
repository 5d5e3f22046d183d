"""Command-line surface: subcommands, file formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import expsum
from expsum import (
    ExponentialModel,
    NoisyOracle,
    SyntheticOracle,
    canonicalize,
    evaluate,
    identity_basis,
    recover_known_n,
    recover_unknown_n,
)
from expsum.cli import (
    EXIT_INPUT,
    EXIT_MISMATCH,
    EXIT_NUMERICAL,
    EXIT_OK,
    RunConfig,
    main,
    verify_models,
)
from expsum._schedule import MAX_TERMS
from expsum.oracle import read_points_file, write_samples_file
from expsum.synth import MAX_RANDOM_TERMS, collision_instance, random_model


def run(argv, capsys):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(path, directions, mode="known_n", n=None, recovery=None):
    doc = {
        "basis": {
            "dimension": len(directions),
            "directions": [list(v) for v in directions],
        },
        "mode": mode,
        "n": n,
        "recovery": recovery or {},
    }
    path.write_text(json.dumps(doc))
    return path


def test_generate_is_deterministic(tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for out in (out_a, out_b):
        code, _, _ = run(
            ["generate", "--dimension", 2, "--terms", 3, "--seed", 11,
             "--out", out],
            capsys,
        )
        assert code == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()


def test_generate_seed_changes_output(tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    run(["generate", "--dimension", 2, "--terms", 3, "--seed", 1, "--out", out_a], capsys)
    run(["generate", "--dimension", 2, "--terms", 3, "--seed", 2, "--out", out_b], capsys)
    assert out_a.read_bytes() != out_b.read_bytes()


def test_recover_and_verify_roundtrip(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    run(
        ["generate", "--dimension", 2, "--terms", 4, "--seed", 3,
         "--out", model_path],
        capsys,
    )
    cfg = write_config(
        tmp_path / "cfg.json",
        [[1.0, 0.0], [0.0, 1.0]],
        mode="known_n",
        n=4,
    )
    out_dir = tmp_path / "run"
    code, out, _ = run(
        ["recover", "--config", cfg, "--model", model_path, "--out", out_dir],
        capsys,
    )
    assert code == EXIT_OK
    summary = json.loads(out)
    assert summary["samples_used"] == 12
    report = json.loads((out_dir / "report.json").read_text())
    assert report["samples_used"] == 12
    assert len(report["residuals"]) == 12
    assert all(r["rel_err"] < 1e-6 for r in report["residuals"])
    code, out, _ = run(
        ["verify", model_path, out_dir / "recovered_model.json",
         "--tol", 1e-6],
        capsys,
    )
    assert code == EXIT_OK
    assert json.loads(out)["match"] is True


def test_recover_unknown_mode_via_samples_file(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    run(
        ["generate", "--dimension", 2, "--terms", 3, "--seed", 5,
         "--out", model_path],
        capsys,
    )
    cfg = write_config(
        tmp_path / "cfg.json", [[1.0, 0.0], [0.0, 1.0]], mode="unknown_n"
    )
    points_path = tmp_path / "points.txt"
    code, out, _ = run(
        ["plan", "--config", cfg, "--n-hint", 3, "--out", points_path],
        capsys,
    )
    assert code == EXIT_OK
    model = ExponentialModel.load(model_path)
    dim, points = read_points_file(points_path)
    samples_path = tmp_path / "samples.txt"
    write_samples_file(
        samples_path,
        dim,
        [(p, evaluate(model, np.asarray(p))) for p in points],
    )
    out_dir = tmp_path / "run"
    code, out, _ = run(
        ["recover", "--config", cfg, "--samples", samples_path,
         "--out", out_dir],
        capsys,
    )
    assert code == EXIT_OK
    assert json.loads(out)["detected_n"] == 3
    code, _, _ = run(
        ["verify", model_path, out_dir / "recovered_model.json",
         "--tol", 1e-6],
        capsys,
    )
    assert code == EXIT_OK


@pytest.mark.parametrize("seed", [[], ["--seed", 5]], ids=["config", "flag"])
def test_plan_lists_the_rescue_lines_of_the_run_config(tmp_path, capsys, seed):
    # an adaptive run with rescue_k_max = 2 probes two lines parallel to the
    # base line; an offline run finds their samples only if the plan lists them
    basis = identity_basis(2)
    model = collision_instance(2, np.random.default_rng(0), basis, (2, 1))
    model_path = tmp_path / "model.json"
    model.save(model_path)
    cfg = write_config(tmp_path / "cfg.json", [[1.0, 0.0], [0.0, 1.0]],
                       mode="unknown_n", recovery={"rescue_k_max": 2})
    points_path = tmp_path / "points.txt"
    code, _, _ = run(["plan", "--config", cfg, "--n-hint", 6, *seed,
                      "--out", points_path], capsys)
    assert code == EXIT_OK
    dim, points = read_points_file(points_path)
    samples_path = tmp_path / "samples.txt"
    write_samples_file(samples_path, dim,
                       [(p, evaluate(model, np.asarray(p))) for p in points])
    reports = []
    for source in (["--model", model_path], ["--samples", samples_path]):
        out_dir = tmp_path / source[0][2:]
        code, _, err = run(["recover", "--config", cfg, *source, *seed,
                            "--out", out_dir], capsys)
        assert code == EXIT_OK, err
        reports.append(json.loads((out_dir / "report.json").read_text()))
    live, offline = reports
    assert live["detected_n"] == offline["detected_n"] == 3
    assert live["samples_used"] == offline["samples_used"]
    assert [r["point"] for r in live["residuals"]] == \
        [r["point"] for r in offline["residuals"]]


def test_recover_of_a_fully_cancelled_base_line_exits_3(tmp_path, capsys):
    # both terms share the base inner product and their coefficients cancel,
    # so the base line is zero; without a rescue the run cannot see them
    model_path = tmp_path / "model.json"
    ExponentialModel([1.0, -1.0], [(0.1j, 0.2j), (0.1j, 0.5j)]).save(
        model_path)
    code, _, err = run(["recover", "--model", model_path,
                        "--out", tmp_path / "run"], capsys)
    assert code == EXIT_NUMERICAL
    payload = json.loads(err)
    assert payload["error_class"] == "CancellationSuspectedError"
    assert "rescue_k_max" in payload["message"]


def test_config_rank_rel_tol_of_one_or_more_exits_2_before_sampling(
        tmp_path, capsys, monkeypatch):
    drawn = []
    sample_many = SyntheticOracle.sample_many
    monkeypatch.setattr(SyntheticOracle, "sample_many",
                        lambda self, points: drawn.append(len(points))
                        or sample_many(self, points))
    model_path = tmp_path / "model.json"
    ExponentialModel([1.0], [(0.1j,)]).save(model_path)
    config = write_config(tmp_path / "config.json", [(1.0,)], "unknown_n",
                          recovery={"rank_rel_tol": 1.5})
    code, _, err = run(["recover", "--config", config, "--model", model_path,
                        "--out", tmp_path / "run"], capsys)
    assert code == EXIT_INPUT
    payload = json.loads(err)
    assert payload["error_class"] == "InputError"
    assert payload["message"] == "rank_rel_tol must lie in (0, 1), got 1.5"
    assert drawn == []
    assert not (tmp_path / "run").exists()


def test_recover_missing_sample_names_point(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json", [[1.0, 0.0], [0.0, 1.0]],
        mode="known_n", n=2,
    )
    samples_path = tmp_path / "samples.txt"
    samples_path.write_text("dim=2\n0 0 1.0 0.0\n")
    code, _, err = run(
        ["recover", "--config", cfg, "--samples", samples_path,
         "--out", tmp_path / "run"],
        capsys,
    )
    assert code == EXIT_INPUT
    payload = json.loads(err)
    assert payload["error_class"] == "MissingSampleError"
    assert "(1.0, 0.0)" in payload["message"]


@pytest.mark.parametrize(
    "row", ["1 nan 0", "1 0 inf", "nan 1 0", "-inf 1 0"]
)
def test_recover_rejects_non_finite_samples(tmp_path, capsys, row):
    samples_path = tmp_path / "samples.txt"
    samples_path.write_text(f"dim=1\n0 1 0\n{row}\n2 1 0\n3 1 0\n")
    code, _, err = run(
        ["recover", "--samples", samples_path, "--known-n", 2,
         "--out", tmp_path / "run"],
        capsys,
    )
    assert code == EXIT_INPUT
    payload = json.loads(err)
    assert payload["error_class"] == "InputError"
    assert f"{samples_path}:3:" in payload["message"]


@pytest.mark.parametrize(
    "text, lineno",
    [("dim=1\n0 1 0\n1 abc 0\n2 1 0\n3 1 0\n", 3),
     ("dim=x\n0 1 0\n1 1 0\n2 1 0\n3 1 0\n", 1)],
)
def test_recover_rejects_non_numeric_samples(tmp_path, capsys, text, lineno):
    samples_path = tmp_path / "samples.txt"
    samples_path.write_text(text)
    code, _, err = run(
        ["recover", "--samples", samples_path, "--known-n", 2,
         "--out", tmp_path / "run"],
        capsys,
    )
    assert code == EXIT_INPUT
    payload = json.loads(err)
    assert payload["error_class"] == "InputError"
    assert f"{samples_path}:{lineno}:" in payload["message"]


def test_recover_rejects_a_conflicting_duplicate_row_by_file_and_lines(
        tmp_path, capsys):
    samples_path = tmp_path / "samples.txt"
    samples_path.write_text("dim=1\n0.0 1.0 0.0\n0.5 2.0 0.0\n0.0 3.0 0.0\n")
    code, _, err = run(
        ["recover", "--samples", samples_path, "--known-n", 1,
         "--out", tmp_path / "run"],
        capsys,
    )
    assert code == EXIT_INPUT
    payload = json.loads(err)
    assert payload["error_class"] == "InputError"
    assert payload["message"] == (
        f"{samples_path}:4: conflicting values for point (0.0,): "
        "(1+0j) vs (3+0j) (first: line 2)"
    )


@pytest.mark.parametrize("command", ["model", "config", "verify"])
@pytest.mark.parametrize("text", [
    '{"dimension": 1, "terms": [',
    '{"dimension": 1, "terms": [{"coeff": [NaN, 0], "exponent": [[0, 1]]}]}',
], ids=["truncated", "nan"])
def test_malformed_json_input_exits_with_input_error(tmp_path, capsys, command,
                                                     text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    model_path = tmp_path / "model.json"
    ExponentialModel([1.0], [(1j,)]).save(model_path)
    argv = {
        "model": ["recover", "--model", bad, "--known-n", 1,
                  "--out", tmp_path / "run"],
        "config": ["recover", "--config", bad, "--model", model_path,
                   "--known-n", 1, "--out", tmp_path / "run"],
        "verify": ["verify", bad, bad],
    }[command]
    code, _, err = run(argv, capsys)
    assert code == EXIT_INPUT
    payload = json.loads(err)
    assert payload["error_class"] == "InputError"
    assert payload["message"].startswith(f"{bad}: not a JSON document: ")


# former RecoveryConfig fields, now constants of expsum.linalg and multivar
REMOVED_RECOVERY_KEYS = (
    "gap_factor", "node_tol", "collision_rel_tol", "merge_tol",
    "rescue_epsilon_scale", "max_level_retries", "level_condition_limit",
)


@pytest.mark.parametrize("command, text, message", [
    ("model", '{"dimension": "x", "terms": []}', None),
    ("model", '{"dimension": 1.9, "terms": '
              '[{"coeff": [1, 0], "exponent": [[0, 1]]}]}', None),
    ("verify", '{"dimension": "x", "terms": []}', None),
    ("config", '[1, [2]]', None),
    ("config", '{"recovery": []}', None),
    ("config", '{"recovery": {"max_terms": "x"}}', None),
    ("config", '{"basis": {"directions": [[1.0]], "multipliers": {"a": [1]}}}',
     "unknown basis keys: ['multipliers']"),
    ("config", '{"basis": {"directions": [[1.0]], "combination_weights": {}}}',
     "unknown basis keys: ['combination_weights']"),
    ("config", '{"basis": {"directions": [[true]]}}',
     "direction component must be a number, got True"),
    ("config", '{"basis": {"directions": [["1"]]}}',
     "direction component must be a number, got '1'"),
    ("model", '{"dimension": 1, "terms": '
              '[{"coeff": [true, 0], "exponent": [[0, 1]]}]}',
     "coeff must be a number, got True"),
    ("model", '{"dimension": 1, "terms": '
              '[{"coeff": [1, 0], "exponent": [[0, false]]}]}',
     "exponent must be a number, got False"),
    ("model", '{"dimension": 1, "terms": '
              '[{"coeff": [1, 0, 5], "exponent": [[0, 1]]}]}',
     "coeff must be an [re, im] pair, got [1, 0, 5]"),
    ("verify", '{"dimension": 1, "terms": '
               '[{"coeff": [1, 0], "exponent": [[0, 1, 7]]}]}',
     "exponent must be an [re, im] pair, got [0, 1, 7]"),
    ("config", '{"io": {"out": [1, 2]}}', None),
    ("config", '{"recovery": {"node_method": "generalized_eig"}}', None),
] + [
    ("config", json.dumps({"recovery": {key: 1}}),
     f"unknown config keys: ['{key}']")
    for key in REMOVED_RECOVERY_KEYS
], ids=["model-dimension", "model-float-dimension", "verify-dimension",
        "config-list", "recovery-list", "recovery-field",
        "basis-multiplier-level", "basis-weights-pin",
        "basis-boolean-direction", "basis-string-direction",
        "model-boolean-coeff", "model-boolean-exponent",
        "model-long-coeff-pair", "verify-long-exponent-pair", "io-path-list",
        "recovery-removed-field"]
    + [f"recovery-{key}" for key in REMOVED_RECOVERY_KEYS])
def test_wrong_shape_json_input_exits_with_input_error(tmp_path, capsys,
                                                       command, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    model_path = tmp_path / "model.json"
    ExponentialModel([1.0], [(1j,)]).save(model_path)
    argv = {
        "model": ["recover", "--model", bad, "--known-n", 1,
                  "--out", tmp_path / "run"],
        "config": ["recover", "--config", bad, "--model", model_path,
                   "--known-n", 1, "--out", tmp_path / "run"],
        "verify": ["verify", model_path, bad],
    }[command]
    code, _, err = run(argv, capsys)
    assert code == EXIT_INPUT
    payload = json.loads(err)
    assert payload["error_class"] == "InputError"
    if message is not None:
        assert payload["message"] == message
    assert not (tmp_path / "run").exists()


def scipy_modules_after(code):
    """Run ``code`` in a fresh interpreter on this checkout and return the
    scipy modules it left loaded, as the printed sorted list.  A name
    blocked by a ``None`` entry in ``sys.modules`` is not a loaded module."""
    src = str(Path(expsum.__file__).resolve().parents[1])
    code = ("import sys; " + code + "; print(sorted(m for m, mod in "
            "sys.modules.items() if m.split('.')[0] == 'scipy' and mod))")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_importing_the_cli_loads_no_scipy():
    assert scipy_modules_after("import expsum, expsum.cli") == "[]"


def test_recovery_loads_no_scipy():
    # the base Hankel matrix of this model has condition 1.7e8
    code = (
        "from expsum import *; "
        "m = ExponentialModel([1, 1, 2], "
        "[(0.3j,), (0.3j + 3e-4 * (1 + 1j),), (-1.1j,)]); "
        "r = recover_known_n(SyntheticOracle(m), identity_basis(1), 3); "
        "assert r.detected_n == 3"
    )
    assert scipy_modules_after(code) == "[]"


def verify_pair(tmp_path):
    """A model file, the same terms in reverse order, and a copy with one
    coefficient off by 1%."""
    coeffs = np.array([1.0, 2.0, -1.5])
    exponents = np.array([(0.1 + 0.3j, 0.2j), (-0.1 + 1.1j, -0.5j),
                          (0.05 - 0.7j, 0.9j)])
    paths = [tmp_path / name for name in ("a.json", "b.json", "c.json")]
    ExponentialModel(coeffs, exponents).save(paths[0])
    ExponentialModel(coeffs[::-1], exponents[::-1]).save(paths[1])
    ExponentialModel([1.01, *coeffs[1:]], exponents).save(paths[2])
    return [str(p) for p in paths]


def test_verify_loads_no_scipy(tmp_path):
    a, b, _ = verify_pair(tmp_path)
    code = f"from expsum.cli import main; assert main(['verify', {a!r}, {b!r}]) == 0"
    assert scipy_modules_after(code) == "[]"


def test_verify_runs_with_scipy_blocked(tmp_path):
    a, b, c = verify_pair(tmp_path)
    code = ("sys.modules['scipy'] = None; from expsum.cli import main; "
            f"codes = [main(['verify', {a!r}, {b!r}]), "
            f"main(['verify', {a!r}, {c!r}])]; "
            f"assert codes == [{EXIT_OK}, {EXIT_MISMATCH}], codes")
    assert scipy_modules_after(code) == "[]"


def test_report_json_is_report_dict_plus_residual_rows(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    run(
        ["generate", "--dimension", 3, "--terms", 4, "--seed", 4,
         "--out", model_path],
        capsys,
    )
    out_dir = tmp_path / "run"
    code, _, _ = run(
        ["recover", "--model", model_path, "--known-n", 4, "--out", out_dir],
        capsys,
    )
    assert code == EXIT_OK
    text = (out_dir / "report.json").read_text()
    assert text.count("\n") == 1
    doc = json.loads(text)
    rows = doc.pop("residuals")
    model = ExponentialModel.load(model_path)
    oracle = SyntheticOracle(model)
    report = recover_known_n(oracle, identity_basis(3), 4)
    assert doc == json.loads(json.dumps(report.to_dict()))
    assert len(rows) == len(oracle.ledger.entries) == 16
    for row, (point, value) in zip(rows, oracle.ledger.entries):
        assert row["point"] == list(point)
        assert complex(*row["value"]) == value
        expected = evaluate(report.model, np.asarray(point))
        assert abs(complex(*row["model_value"]) - expected) <= 1e-12 * abs(
            expected
        )
    assert max(r["rel_err"] for r in rows) == doc["max_residual_rel"]


def test_verify_detects_perturbed_coefficient(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    run(
        ["generate", "--dimension", 1, "--terms", 2, "--seed", 9,
         "--out", model_path],
        capsys,
    )
    doc = json.loads(model_path.read_text())
    doc["terms"][0]["coeff"][0] *= 1.01
    other = tmp_path / "perturbed.json"
    other.write_text(json.dumps(doc))
    code, out, _ = run(
        ["verify", model_path, other, "--tol", 1e-3], capsys
    )
    assert code == EXIT_MISMATCH
    assert json.loads(out)["match"] is False
    # identical files at the same tolerance pass
    code, _, _ = run(["verify", model_path, model_path, "--tol", 1e-3], capsys)
    assert code == EXIT_OK


def test_verify_term_count_mismatch(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["generate", "--dimension", 1, "--terms", 2, "--seed", 1, "--out", a], capsys)
    run(["generate", "--dimension", 1, "--terms", 3, "--seed", 1, "--out", b], capsys)
    code, out, _ = run(["verify", a, b, "--tol", 1e-6], capsys)
    assert code == EXIT_MISMATCH
    assert json.loads(out)["reason"] == "term-count mismatch"


def scipy_verify_models(model_a, model_b, tol):
    """verify_models with scipy's linear_sum_assignment as the matcher."""
    a, b = canonicalize(model_a), canonicalize(model_b)
    result = {"dimension": a.dimension, "terms_a": a.n_terms,
              "terms_b": b.n_terms, "tol": tol}
    if a.n_terms != b.n_terms:
        return {**result, "match": False, "reason": "term-count mismatch"}
    ea, eb = a.exponent_matrix(), b.exponent_matrix()
    cost = np.linalg.norm(ea[:, None, :] - eb[None, :, :], axis=2)
    rows, cols = linear_sum_assignment(cost)
    ca, cb = a.coefficients(), b.coefficients()
    exp_err = coeff_err = 0.0
    for r, c in zip(rows, cols):
        scale = max(float(np.linalg.norm(ea[r])), 1e-12)
        exp_err = max(exp_err, float(cost[r, c]) / scale)
        coeff_err = max(coeff_err,
                        abs(ca[r] - cb[c]) / max(abs(ca[r]), 1e-12))
    return {**result, "max_exponent_rel_err": exp_err,
            "max_coefficient_rel_err": coeff_err,
            "match": bool(exp_err <= tol and coeff_err <= tol)}


def verify_parity_pairs():
    """Planted models against noisy recoveries of them, against exact
    adaptive recoveries of planted collisions, and against copies with
    every exponent moved by up to 0.3, which scrambles the nearest-term
    order."""
    rng = np.random.default_rng(5)
    for seed in range(24):
        d, n = 1 + seed % 3, 1 + seed % 6
        basis = identity_basis(d)
        truth = random_model(d, n, rng, basis)
        noisy = NoisyOracle(SyntheticOracle(truth), 1e-6, seed=seed)
        yield truth, recover_known_n(noisy, basis, n).model
        exponents = truth.exponent_matrix()
        moved = exponents + rng.uniform(-0.3, 0.3, exponents.shape)
        yield truth, ExponentialModel(truth.coefficients(), moved)
    for seed in range(6):
        basis = identity_basis(2)
        truth = collision_instance(2, rng, basis, pile_sizes=(2, 1))
        yield truth, recover_unknown_n(SyntheticOracle(truth), basis).model


def test_verify_models_matches_the_scipy_reference():
    rng = np.random.default_rng(6)
    for truth, other in verify_parity_pairs():
        order = rng.permutation(other.n_terms)
        permuted = ExponentialModel(other.coefficients()[order],
                                    other.exponent_matrix()[order])
        for tol in (1e-6, 1e-1):
            want = scipy_verify_models(truth, other, tol)
            assert verify_models(truth, permuted, tol) == want
            assert verify_models(permuted, truth, tol) == \
                scipy_verify_models(other, truth, tol)


def test_generate_refuses_too_many_terms_before_allocating(tmp_path):
    # 100000 terms would need an n x n node-gap matrix of about 149 GiB
    proc = run_module(["generate", "--dimension", 2, "--terms", 100000,
                       "--out", tmp_path / "m.json"])
    assert proc.returncode == EXIT_INPUT
    payload = json.loads(proc.stderr)
    assert payload["error_class"] == "InputError"
    assert str(MAX_RANDOM_TERMS) in payload["message"]
    assert not (tmp_path / "m.json").exists()


# Runs each argv through ``main`` in a child limited to 3 GiB of address
# space, so a huge allocation fails at once instead of exhausting the
# machine; prints [exit code, stderr text] per argv.
MEMORY_LIMITED_MAIN = """
import contextlib, io, json, resource, sys
limit = 3 * 1024**3
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
if hard != resource.RLIM_INFINITY:
    limit = min(limit, hard)
resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
from expsum.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        results.append([main(argv), err.getvalue()])
print(json.dumps(results))
"""


def test_huge_term_count_exits_2_with_one_json_object(tmp_path):
    # a count just above MAX_TERMS, or far above it, is refused before any
    # point array is built; a dimension whose identity basis needs 74.5 GiB
    # fails its first allocation, before it touches any memory
    config = write_config(tmp_path / "c.json", [(1.0, 0.0), (0.0, 1.0)],
                          "unknown_n")
    model = tmp_path / "m.json"
    ExponentialModel([1.0], [(0.1j, 0.3j)]).save(model)
    out = str(tmp_path / "out")
    above = str(MAX_TERMS + 1)
    cases = [
        (["plan", "--config", str(config), "--known-n", above, "--out", out],
         "InputError"),
        (["plan", "--config", str(config), "--known-n", "1000000000",
          "--out", out], "InputError"),
        (["plan", "--config", str(config), "--n-hint", above, "--out", out],
         "InputError"),
        (["recover", "--model", str(model), "--known-n", above, "--out", out],
         "InputError"),
        (["generate", "--dimension", "100000", "--terms", "1",
          "--out", str(tmp_path / "g.json")], "MemoryError"),
    ]
    src = str(Path(expsum.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", MEMORY_LIMITED_MAIN,
         json.dumps([argv for argv, _ in cases])],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    for (code, err), (_, error_class) in zip(json.loads(proc.stdout), cases):
        assert code == EXIT_INPUT
        payload = json.loads(err)
        assert payload["error_class"] == error_class
        if error_class == "InputError":
            assert f"[1, {MAX_TERMS}]" in payload["message"]
    assert not Path(out).exists()


def test_recover_requires_exactly_one_source(tmp_path, capsys):
    code, _, err = run(
        ["recover", "--out", tmp_path / "run"], capsys
    )
    assert code == EXIT_INPUT
    assert json.loads(err)["error_class"] == "InputError"


def test_recover_overflowing_model_exits_with_input_error(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    ExponentialModel([1.0, 2.0], [(800.0,), (0.1j,)]).save(model_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code, _, err = run(
            ["recover", "--model", model_path, "--known-n", 2,
             "--out", tmp_path / "run"],
            capsys,
        )
    assert code == EXIT_INPUT
    payload = json.loads(err)
    assert payload["error_class"] == "InputError"
    assert "overflowed or is not finite" in payload["message"]


@pytest.mark.parametrize("known_n", [["--known-n", 2], []],
                         ids=["known-n", "unknown-n"])
def test_recover_lapack_failure_exits_3_with_one_json_object(
        tmp_path, capsys, monkeypatch, known_n):
    model_path = tmp_path / "model.json"
    ExponentialModel([1.0, 2.0], [(0.3j,), (0.1j,)]).save(model_path)

    svd = np.linalg.svd

    def lapack_fails(a, *args, **kwargs):
        # the 1 x 1 basis still validates; every Hankel SVD fails
        if np.shape(a)[-1] == 1:
            return svd(a, *args, **kwargs)
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", lapack_fails)
    code, _, err = run(
        ["recover", "--model", model_path, *known_n,
         "--out", tmp_path / "run"],
        capsys,
    )
    assert code == EXIT_NUMERICAL
    payload = json.loads(err)
    assert payload["error_class"] == "SingularMatrixError"
    assert "did not converge" in payload["message"]


def test_recover_overflowing_model_stderr_is_one_json_object(tmp_path):
    # numpy's overflow warnings would otherwise precede the error object
    model_path = tmp_path / "model.json"
    ExponentialModel([1.0, 2.0], [(800.0,), (0.1j,)]).save(model_path)
    src = str(Path(expsum.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "expsum.cli", "recover", "--model",
         str(model_path), "--known-n", "2", "--out", str(tmp_path / "run")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == EXIT_INPUT
    assert json.loads(proc.stderr)["error_class"] == "InputError"


@pytest.mark.parametrize("source, known_n", [
    ("model", ["--known-n", "3"]), ("model", []), ("samples", ["--known-n", "2"]),
], ids=["model-known-n", "model-unknown-n", "samples-known-n"])
def test_recover_subnormal_data_stderr_is_one_json_object(tmp_path, source,
                                                          known_n):
    if source == "model":
        path = tmp_path / "model.json"
        ExponentialModel(
            [1e-310, 2e-310, -1.5e-310],
            [(0.1 + 0.3j, 0.2j), (-0.1 + 1.1j, -0.5j), (0.05 - 0.7j, 0.9j)],
        ).save(path)
    else:
        path = tmp_path / "samples.txt"
        # two terms, 1e-310 * (1 + 0.5**s), on the points s = 0..5
        rows = [f"{s} {1e-310 * (1 + 0.5**s)!r} 0" for s in range(6)]
        path.write_text("dim=1\n" + "\n".join(rows) + "\n")
    src = str(Path(expsum.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "expsum.cli", "recover", f"--{source}",
         str(path), *known_n, "--out", str(tmp_path / "run")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode in (EXIT_INPUT, EXIT_NUMERICAL)
    assert isinstance(json.loads(proc.stderr), dict)


def run_module(argv):
    """``python -m expsum.cli argv`` in a subprocess, on this checkout."""
    src = str(Path(expsum.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "expsum.cli", *map(str, argv)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )


@pytest.mark.parametrize("case", [
    "generate-negative-dimension", "verify-overflowing-exponents",
    "verify-overflowing-coefficients", "verify-negative-tol", "verify-nan-tol",
    "generate-negative-seed", "recover-negative-seed", "config-negative-seed",
])
def test_parsed_input_that_defeats_numpy_exits_2_with_one_json_object(
        tmp_path, case):
    def one_term(name, coefficient, exponent):
        ExponentialModel([coefficient], [(exponent,)]).save(
            tmp_path / name)
        return tmp_path / name

    out = tmp_path / "out"
    argv = {
        "generate-negative-dimension": lambda: [
            "generate", "--dimension", -1, "--terms", 2, "--out", out],
        # exponent differences above about 1e154 overflow the matching cost
        "verify-overflowing-exponents": lambda: [
            "verify", one_term("p.json", 1.0, 1e200),
            one_term("q.json", 1.0, -1e200)],
        "verify-overflowing-coefficients": lambda: [
            "verify", one_term("p.json", 1e308, 0.1j),
            one_term("q.json", -1e308, 0.1j)],
        "verify-negative-tol": lambda: [
            "verify", one_term("p.json", 1.0, 0.1j), tmp_path / "p.json",
            "--tol", -1],
        "verify-nan-tol": lambda: [
            "verify", one_term("p.json", 1.0, 0.1j), tmp_path / "p.json",
            "--tol", "nan"],
        "generate-negative-seed": lambda: [
            "generate", "--dimension", 2, "--terms", 2, "--seed", -1,
            "--out", out],
        "recover-negative-seed": lambda: [
            "recover", "--model", one_term("p.json", 1.0, 0.1j),
            "--seed", -1, "--out", out],
        "config-negative-seed": lambda: [
            "recover", "--model", one_term("p.json", 1.0, 0.1j), "--config",
            write_config(tmp_path / "c.json", [(1.0,)], "unknown_n",
                         recovery={"seed": -1}),
            "--out", out],
    }[case]()
    proc = run_module(argv)
    assert proc.returncode == EXIT_INPUT
    error_class = ("InvalidBasisError" if case == "generate-negative-dimension"
                   else "InputError")
    assert json.loads(proc.stderr)["error_class"] == error_class


@pytest.mark.parametrize("mode, module, constant, value", [
    ("known_n", expsum.linalg, "SINGULAR_RTOL", 1.0),
    ("unknown_n", expsum.multivar, "LEVEL_CONDITION_LIMIT", 0.0),
], ids=["known-n", "unknown-n"])
def test_singular_shift_matrix_exits_3_with_one_json_object(
        tmp_path, capsys, monkeypatch, mode, module, constant, value):
    # a tolerance that no shift matrix meets: the known-n check and the
    # unknown-n level retries both end in SingularMatrixError
    monkeypatch.setattr(module, constant, value)
    model_path = tmp_path / "model.json"
    ExponentialModel(
        [1.0, 2.0, -1.5],
        [(0.1 + 0.3j, 0.2j), (-0.1 + 1.1j, -0.5j), (0.05 - 0.7j, 0.9j)],
    ).save(model_path)
    config = write_config(tmp_path / "config.json", [(1.0, 0.0), (0.0, 1.0)],
                          mode, n=3)
    code, _, err = run(["recover", "--config", config, "--model", model_path,
                        "--out", tmp_path / "run"], capsys)
    assert code == EXIT_NUMERICAL
    assert json.loads(err)["error_class"] == "SingularMatrixError"
    assert not (tmp_path / "run").exists()


def test_public_names_are_the_user_facing_api():
    public = {name for name, value in vars(expsum).items()
              if not (name.startswith("_") or isinstance(value, ModuleType))}
    assert public == {
        # drivers, their configuration and report
        "recover_known_n", "recover_unknown_n", "RecoveryConfig",
        "RecoveryReport", "LevelState", "RankDecision", "budget_bound",
        # models and bases
        "ExponentialModel", "DirectionBasis", "identity_basis",
        "canonicalize", "evaluate", "nyquist_margins",
        # sample sources
        "Oracle", "SyntheticOracle", "NoisyOracle", "TabulatedOracle",
        "SampleLedger", "plan_points",
        # errors
        "ExpsumError", "InputError", "DimensionMismatchError",
        "InvalidBasisError", "MissingSampleError", "GenerationError",
        "SingularMatrixError", "RankDeficiencyError", "PencilDegenerateError",
        "InvalidNodeError", "SparsityUndetectedError",
        "CollisionDetectedError", "CancellationSuspectedError",
        "DegenerateModelError", "BudgetExceededError",
    }


def test_demo_command_passes(capsys):
    code, out, _ = run(["demo"], capsys)
    assert code == EXIT_OK
    # the whole transcript, byte for byte, including "demo PASSED"
    frozen = Path(__file__).parent / "data" / "demo_transcript.txt"
    assert out == frozen.read_text(encoding="utf-8")


def test_recover_io_paths_from_config(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    run(
        ["generate", "--dimension", 2, "--terms", 3, "--seed", 8,
         "--out", model_path],
        capsys,
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "basis": {
                    "dimension": 2,
                    "directions": [[1.0, 0.0], [0.0, 1.0]],
                },
                "mode": "known_n",
                "n": 3,
                "io": {
                    "model": str(model_path),
                    "out": str(tmp_path / "run_io"),
                },
            }
        )
    )
    code, out, _ = run(["recover", "--config", cfg], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["samples_used"] == 9
    assert (tmp_path / "run_io" / "recovered_model.json").exists()


def test_run_config_roundtrip(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        [[0.5, 0.0], [0.0, 0.25]],
        mode="unknown_n",
        recovery={"max_terms": 9, "seed": 3},
    )
    parsed = RunConfig.load(cfg)
    saved = tmp_path / "resaved.json"
    parsed.save(saved)
    assert RunConfig.load(saved).to_dict() == parsed.to_dict()
    assert parsed.recovery.max_terms == 9


def test_cli_library_roundtrip_many_seeds(tmp_path, capsys):
    # recover + verify round trip across seeded random instances
    for seed in range(100):
        dim = 1 + seed % 3
        n = 1 + seed % 6
        model_path = tmp_path / f"model_{seed}.json"
        code, _, _ = run(
            ["generate", "--dimension", dim, "--terms", n, "--seed", seed,
             "--out", model_path],
            capsys,
        )
        assert code == EXIT_OK
        directions = np.eye(dim).tolist()
        cfg = write_config(
            tmp_path / f"cfg_{seed}.json", directions, mode="known_n", n=n
        )
        out_dir = tmp_path / f"run_{seed}"
        code, _, _ = run(
            ["recover", "--config", cfg, "--model", model_path,
             "--out", out_dir],
            capsys,
        )
        assert code == EXIT_OK
        code, _, _ = run(
            ["verify", model_path, out_dir / "recovered_model.json",
             "--tol", 1e-6],
            capsys,
        )
        assert code == EXIT_OK, f"round trip failed for seed {seed}"

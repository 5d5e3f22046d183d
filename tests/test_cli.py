"""Command-line surface: subcommands, file formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import expsum
from expsum import (
    ExponentialModel,
    SyntheticOracle,
    Term,
    evaluate,
    identity_basis,
    recover_known_n,
)
from expsum.cli import (
    EXIT_INPUT,
    EXIT_MISMATCH,
    EXIT_NUMERICAL,
    EXIT_OK,
    RunConfig,
    main,
)
from expsum.oracle import read_points_file, write_samples_file


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
    ExponentialModel(1, (Term(1.0, (1j,)),)).save(model_path)
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


@pytest.mark.parametrize("command, text", [
    ("model", '{"dimension": "x", "terms": []}'),
    ("model", '{"dimension": 1.9, "terms": '
              '[{"coeff": [1, 0], "exponent": [[0, 1]]}]}'),
    ("verify", '{"dimension": "x", "terms": []}'),
    ("config", '[1, [2]]'),
    ("config", '{"recovery": []}'),
    ("config", '{"recovery": {"max_terms": "x"}}'),
    ("config", '{"basis": {"directions": [[1.0]], "multipliers": {"a": [1]}}}'),
    ("config", '{"io": {"out": [1, 2]}}'),
    ("config", '{"recovery": {"node_method": "generalized_eig"}}'),
], ids=["model-dimension", "model-float-dimension", "verify-dimension",
        "config-list", "recovery-list", "recovery-field",
        "basis-multiplier-level", "io-path-list", "recovery-removed-field"])
def test_wrong_shape_json_input_exits_with_input_error(tmp_path, capsys,
                                                       command, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    model_path = tmp_path / "model.json"
    ExponentialModel(1, (Term(1.0, (1j,)),)).save(model_path)
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
    assert not (tmp_path / "run").exists()


def test_importing_the_cli_loads_no_scipy():
    src = str(Path(expsum.__file__).resolve().parents[1])
    code = ("import sys, expsum, expsum.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_recovery_loads_no_scipy():
    # the base Hankel matrix of this model has condition 1.7e8
    src = str(Path(expsum.__file__).resolve().parents[1])
    code = (
        "import sys; from expsum import *; "
        "m = ExponentialModel(1, (Term(1, (0.3j,)), "
        "Term(1, (0.3j + 3e-4 * (1 + 1j),)), Term(2, (-1.1j,)))); "
        "r = recover_known_n(SyntheticOracle(m), identity_basis(1), 3); "
        "assert r.detected_n == 3; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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


def test_recover_requires_exactly_one_source(tmp_path, capsys):
    code, _, err = run(
        ["recover", "--out", tmp_path / "run"], capsys
    )
    assert code == EXIT_INPUT
    assert json.loads(err)["error_class"] == "InputError"


def test_recover_rejects_a_level_condition_limit_above_the_cap(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        [[1.0, 0.0], [0.0, 1.0]],
        mode="unknown_n",
        recovery={"level_condition_limit": 1e13},
    )
    code, _, err = run(
        ["recover", "--config", cfg, "--model", tmp_path / "absent.json",
         "--out", tmp_path / "run"],
        capsys,
    )
    assert code == EXIT_INPUT
    assert "level_condition_limit" in json.loads(err)["message"]


def test_recover_overflowing_model_exits_with_input_error(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    ExponentialModel(
        1, (Term(1.0, (800.0,)), Term(2.0, (0.1j,)))
    ).save(model_path)
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


def test_recover_overflowing_model_stderr_is_one_json_object(tmp_path):
    # numpy's overflow warnings would otherwise precede the error object
    model_path = tmp_path / "model.json"
    ExponentialModel(
        1, (Term(1.0, (800.0,)), Term(2.0, (0.1j,)))
    ).save(model_path)
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
        ExponentialModel(2, (
            Term(1e-310, (0.1 + 0.3j, 0.2j)),
            Term(2e-310, (-0.1 + 1.1j, -0.5j)),
            Term(-1.5e-310, (0.05 - 0.7j, 0.9j)),
        )).save(path)
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


def test_demo_command_passes(capsys):
    code, out, _ = run(["demo"], capsys)
    assert code == EXIT_OK
    assert "demo PASSED" in out


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

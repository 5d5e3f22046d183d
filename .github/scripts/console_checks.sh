#!/usr/bin/env bash
# Checks of the installed `expsum` console script, shared by the CI jobs
# that install the package with and without its test extra.
#
#     bash .github/scripts/console_checks.sh WORKDIR
#
# Runs every check inside WORKDIR (created if missing) with the `expsum` and
# `python` found on PATH, and stops at the first failure.
set -euo pipefail

work=${1:?usage: console_checks.sh WORKDIR}
mkdir -p "$work"
cd "$work"

# expect_error CODE CLASS COMMAND...: COMMAND exits CODE and writes one JSON
# error object of CLASS to stderr.
expect_error() {
  local want=$1 error_class=$2 code=0
  shift 2
  "$@" 2> err.json || code=$?
  cat err.json
  test "$code" -eq "$want"
  python -c "import json, pathlib, sys; assert json.loads(pathlib.Path('err.json').read_text())['error_class'] == sys.argv[1]" "$error_class"
}

# generate, recover and verify with the known-n and the adaptive unknown-n
# driver
round_trip() {
  expsum generate --dimension 2 --terms 3 --seed 1 --out m.json
  expsum recover --model m.json --known-n 3 --out run
  expsum verify m.json run/recovered_model.json
  expsum recover --model m.json --out run_u
  expsum verify m.json run_u/recovered_model.json
}

# A model whose two terms cancel on the base line: without the cancellation
# rescue the base line shows no term and recover exits 3; with rescue_k_max
# = 2 the parallel lines reveal both terms.  The base samples are exactly
# zero, so the residual bound checks that they are measured against the
# residual floor.
cancellation_rescue() {
  echo '{"dimension": 2, "terms": [{"coeff": [1.0, 0.0], "exponent": [[0.0, 0.1], [0.0, 0.2]]}, {"coeff": [-1.0, 0.0], "exponent": [[0.0, 0.1], [0.0, 0.5]]}]}' > cancel.json
  expect_error 3 CancellationSuspectedError \
    expsum recover --model cancel.json --out run_cancel
  echo '{"recovery": {"rescue_k_max": 2}}' > rescue.json
  expsum recover --config rescue.json --model cancel.json --out run_rescue
  python -c "import json, pathlib; r = json.loads(pathlib.Path('run_rescue/report.json').read_text()); assert (r['detected_n'], r['samples_used']) == (2, 13) and r['max_residual_rel'] <= 1e-7, r"
  expsum verify cancel.json run_rescue/recovered_model.json
}

# A model with a constant term, whose exponent is zero: verify measures the
# recovered exponent's roundoff against a floor set by the largest exponent
# norm, so both exact recoveries match.
constant_term() {
  echo '{"dimension": 2, "terms": [{"coeff": [1, 0], "exponent": [[0, 0], [0, 0]]}, {"coeff": [2, -1], "exponent": [[-0.1, 1.1], [0, -0.5]]}]}' > constant.json
  expsum recover --model constant.json --known-n 2 --out run_constant
  expsum verify constant.json run_constant/recovered_model.json
  expsum recover --model constant.json --out run_constant_u
  expsum verify constant.json run_constant_u/recovered_model.json
}

# A model whose coefficients sum to zero, so f(0) = 0: the coefficient-sum
# error is measured against the residual floor of the samples, not against 0.
zero_sum() {
  echo '{"dimension": 2, "terms": [{"coeff": [1, 0], "exponent": [[0, 0.1], [0, 0.2]]}, {"coeff": [-1, 0], "exponent": [[-0.1, 1.1], [0, -0.5]]}]}' > zero_sum.json
  for known_n in "--known-n 2" ""; do
    # shellcheck disable=SC2086
    expsum recover --model zero_sum.json $known_n --out run_zero_sum
    python -c "import json, pathlib; r = json.loads(pathlib.Path('run_zero_sum/report.json').read_text()); assert r['residuals'][0]['value'] == [0.0, 0.0] and r['conservation_rel_err'] <= 1e-7, r['conservation_rel_err']"
  done
}

# A term count above _schedule.MAX_TERMS (128) is refused before any point
# array is built; the address-space limit, which ends with this subshell,
# makes a regression fail fast instead of filling the machine's memory.
term_bound() (
  echo '{"basis": {"dimension": 2, "directions": [[1.0, 0.0], [0.0, 1.0]]}}' > c.json
  ulimit -v 3000000
  expect_error 2 InputError \
    env OPENBLAS_NUM_THREADS=1 expsum plan --config c.json --n-hint 129 --out p.txt
)

# The sampling geometry is fixed: a basis that names a per-level pin
# (multipliers) is refused with exit 2, not run with the key dropped.
pinned_basis() {
  echo '{"basis": {"directions": [[1.0, 0.0], [0.0, 1.0]], "multipliers": {"1": [0.0, 1.0]}}}' > pinned.json
  expsum generate --dimension 2 --terms 2 --seed 1 --out m2.json
  expect_error 2 InputError \
    expsum recover --config pinned.json --model m2.json --out run_pinned
  test ! -e run_pinned
}

# Warnings are errors on the first four checks, so a numpy warning on any of
# their commands' paths fails them.
echo "== generate-recover-verify round trip"
PYTHONWARNINGS=error round_trip
echo "== cancellation rescue round trip"
PYTHONWARNINGS=error cancellation_rescue
echo "== a constant term round trip"
PYTHONWARNINGS=error constant_term
echo "== a zero-sum model conserves its coefficient sum"
PYTHONWARNINGS=error zero_sum
echo "== a term count above the bound exits 2"
term_bound
echo "== a basis naming multipliers exits 2"
pinned_basis
echo "== all console-script checks passed"

#!/usr/bin/env bash
# Full verification gate: tier-1 tests plus a fast benchmark smoke pass.
#
#   scripts/check.sh           # tier-1 pytest + bench smoke (CI default)
#   scripts/check.sh --full    # additionally run the full-scale benches
#
# BENCH_SMOKE=1 makes every bench run against the tiny (48x64) trained
# system shared with the test suite, so the whole script finishes in
# well under a minute once the weight caches are warm.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== static analysis (repro-lint, strict) =="
# First stage by design: the AST linter fails in seconds on a
# certification-contract violation (global-state RNG, float64 on the
# inference path, stray environment reads or writes, undocumented
# knobs, a fail-open monitor threshold) before any test runs.
python -m repro.analysis --strict

echo
echo "== tier-1 tests =="
python -m pytest tests -q -x

echo
echo "== perfbench self-tests =="
# The benchmark harness's own arithmetic (percentiles, per-layer
# self time) and the removal of its trace wrappers.
python -m pytest perfbench/tests -q

echo
# The non-bit-exact monitor modes, each re-run as the process default
# over the suites that touch it (certification harness included):
# toggle -> suites.  REPRO_MONITOR_SHARED=1 reroutes every joint
# monitoring path through the shared-context union planner;
# repro.core.monitor honours it per call.
MODE_RERUNS=(
    "REPRO_MONITOR_SHARED tests/core tests/segmentation tests/integration"
)
for rerun in "${MODE_RERUNS[@]}"; do
    read -r toggle suites <<< "$rerun"
    echo "== tier-1 rerun under ${toggle}=1 =="
    # shellcheck disable=SC2086  # $suites is a word list on purpose
    env "${toggle}=1" python -m pytest $suites -q -x
    echo
done

echo "== serving self-check (repro.serve doctor) =="
# The doctor exercises the serving stack end to end on the tiny
# trained system: a live broker serves zone checks and an episode
# step, sheds an out-of-frame box as a typed invalid request, drains
# on stop, and sheds an overload burst with typed rejections and a
# balanced ledger.  It exits 1 on any failed check, so a broken
# serving path dies here before the bench pass.
python -m repro.serve.doctor --system tiny

echo
echo "== benchmark smoke (BENCH_SMOKE=1) =="
# bench_*.py does not match pytest's default test-file glob; explicit
# paths collect regardless.  Smoke summaries land in benchmarks/.smoke/
# for the regression gate below; start from a clean slate so the gate
# can never pass on stale output from a previous run.
rm -rf benchmarks/.smoke
BENCH_SMOKE=1 python -m pytest benchmarks/bench_*.py -q -x --benchmark-disable

echo
echo "== bench regression gate =="
# Compares the fresh smoke numbers against committed baselines
# (benchmarks/smoke_baselines.json); >25% regression on a gated
# speedup ratio, or a flipped bit-for-bit contract, fails the build.
python scripts/bench_gate.py

echo
echo "== example smoke runs =="
# Examples rot silently unless CI executes them; REPRO_SMOKE=1 points
# them at the tiny trained system shared with the test suite.
REPRO_SMOKE=1 python examples/quickstart.py > /dev/null
echo "quickstart.py ok"
REPRO_SMOKE=1 python examples/medi_delivery_mission.py > /dev/null
echo "medi_delivery_mission.py ok"

if [[ "${1:-}" == "--full" ]]; then
    echo
    echo "== full-scale benchmarks =="
    python -m pytest benchmarks/bench_*.py -q -x
fi

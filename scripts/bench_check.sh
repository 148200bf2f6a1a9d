#!/bin/sh
# Compare a bench run's BENCH_*.json against the checked-in baselines.
#
#   scripts/bench_check.sh RESULTS_DIR [BASELINE_DIR] [TOLERANCE_PCT]
#
# The bench harness emits only deterministic quantities into these files
# (logical work counters, page/row counts — never wall time), and the
# workloads are seeded and run under the logical clock, so on the same
# scale the numbers should reproduce exactly.  The tolerance (default 5%)
# absorbs intentional small shifts (e.g. a log-format change moving
# log.bytes); larger drifts fail the check and should be triaged: either
# a real regression, or a deliberate change that warrants regenerating
# the baselines with
#
#   dune exec bench/main.exe -- --quick --json RESULTS_DIR \
#     fig5 fig6 hotpath parscan ablations compress obsov ingest mtbench
#   cp RESULTS_DIR/BENCH_fig5.json RESULTS_DIR/BENCH_fig6.json \
#      RESULTS_DIR/BENCH_hotpath.json RESULTS_DIR/BENCH_parscan.json \
#      RESULTS_DIR/BENCH_ablations.json RESULTS_DIR/BENCH_compress.json \
#      RESULTS_DIR/BENCH_obsov.json RESULTS_DIR/BENCH_ingest.json \
#      RESULTS_DIR/BENCH_mtbench.json \
#      bench/baselines/
#
# (The mtbench baseline is kept free of the wall-clock percentile
#  summaries — lock_wait_us / group_commit_batch — the live JSON also
#  carries; the walker below only checks keys present in the baseline.)
#
# Exit status: 0 = within tolerance, 1 = drift/missing file, 2 = usage.

set -eu

results_dir=${1:?usage: bench_check.sh RESULTS_DIR [BASELINE_DIR] [TOLERANCE_PCT]}
baseline_dir=${2:-bench/baselines}
tolerance=${3:-5}

status=0
for baseline in "$baseline_dir"/BENCH_*.json; do
  name=$(basename "$baseline")
  result="$results_dir/$name"
  if [ ! -f "$result" ]; then
    echo "MISSING  $name: bench run did not produce it" >&2
    status=1
    continue
  fi
  if python3 - "$baseline" "$result" "$tolerance" <<'PY'
import json, sys

baseline_path, result_path, tol = sys.argv[1], sys.argv[2], float(sys.argv[3])
with open(baseline_path) as f:
    baseline = json.load(f)
with open(result_path) as f:
    result = json.load(f)

failures = []

def walk(path, base, got):
    if isinstance(base, dict):
        if not isinstance(got, dict):
            failures.append(f"{path}: shape changed")
            return
        for k, v in base.items():
            if k not in got:
                failures.append(f"{path}.{k}: missing from result")
            else:
                walk(f"{path}.{k}", v, got[k])
    elif isinstance(base, list):
        if not isinstance(got, list) or len(base) != len(got):
            failures.append(f"{path}: length {len(base)} -> "
                            f"{len(got) if isinstance(got, list) else '?'}")
            return
        for i, (b, g) in enumerate(zip(base, got)):
            walk(f"{path}[{i}]", b, g)
    elif isinstance(base, bool) or base is None or isinstance(base, str):
        if base != got:
            failures.append(f"{path}: {base!r} -> {got!r}")
    else:  # number: tolerance applies
        allowed = max(abs(base) * tol / 100.0, 2.0)
        if abs(got - base) > allowed:
            failures.append(f"{path}: {base} -> {got} "
                            f"(> {tol}% / abs 2 tolerance)")

walk("$", baseline, result)
for f in failures[:40]:
    print(f"  {f}", file=sys.stderr)
sys.exit(1 if failures else 0)
PY
  then
    echo "OK       $name (tolerance ${tolerance}%)"
  else
    echo "DRIFT    $name exceeded tolerance ${tolerance}%" >&2
    status=1
  fi
done

exit $status

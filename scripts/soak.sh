#!/bin/sh
# Nightly torture soak: run the adversarial crash/workload harness on
# fresh random seeds until a time budget runs out, stopping early on the
# first failure.
#
#   scripts/soak.sh [MINUTES] [OPS] [CRASHES]
#
# Defaults: 30 minutes, 10_000 ops and 60 crash points per seed (the
# harness's capped profile).  Every other seed runs in --bulk mode,
# mixing 16-48-upsert transactions in so crashes land on half-flushed
# ingest buffers as well as on the 1-4-write mix, and every third seed
# runs three sessions (--sessions 3: seeded fibers, every crash kind
# pulled at any yield), so the modes cross.  Seeds are drawn from
# the clock once at startup and then incremented, so the whole soak is
# reproducible from the first line of its output.  Every seed's report is appended to
# soak-report.txt (uploaded as a CI artifact); a failure also leaves the
# harness's minimized reproduction command there.
#
# Exit status: 0 = every seed passed, 1 = a seed failed (reproduce with
# the printed `imdb torture --seed N ... --replay` line, which names
# --bulk and --sessions when the seed used them).

set -u

cd "$(dirname "$0")/.." || exit 2

minutes=${1:-30}
ops=${2:-10000}
crashes=${3:-60}
report=${SOAK_REPORT:-soak-report.txt}

deadline=$(( $(date +%s) + minutes * 60 ))
seed=${SOAK_SEED:-$(date +%s)}

echo "soak: ${minutes}m budget, ops=$ops crashes=$crashes, first seed=$seed" | tee "$report"

dune build bin/imdb.exe 2>&1 | tee -a "$report"

ran=0
while [ "$(date +%s)" -lt "$deadline" ]; do
  bulk=""
  [ $((seed % 2)) -eq 0 ] && bulk="--bulk"
  sessions=""
  [ $((seed % 3)) -eq 0 ] && sessions="--sessions 3"
  if ! dune exec --no-build bin/imdb.exe -- torture \
        --seed "$seed" --ops "$ops" --crashes "$crashes" $bulk $sessions >>"$report" 2>&1; then
    echo "soak: FAILED at seed $seed after $ran clean seeds (see $report)" | tee -a "$report"
    tail -40 "$report"
    exit 1
  fi
  ran=$((ran + 1))
  seed=$((seed + 1))
done

echo "soak: PASSED $ran seeds in ${minutes}m" | tee -a "$report"

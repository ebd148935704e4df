#!/usr/bin/env bash
# Runs the full randomized fault-injection matrix (PR 7): the seeded
# schedule campaign in tests/store/fault_campaign_test.cc at CI scale, plus
# the deterministic fault suites, tee'ing everything into one log suitable
# for upload as a build artifact.
#
# Usage: scripts/fault_campaign.sh [build-dir] [log-file]
# Env:
#   FAULT_SCHEDULES  schedules per workload (default 100 → 300 schedules
#                    across the three workloads)
#   FAULT_SEED       replay exactly one failing schedule seed and exit
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build}"
LOG="${2:-$ROOT/fault_campaign.log}"

if [ ! -x "$BUILD/store_fault_campaign_test" ]; then
  echo "fault_campaign.sh: $BUILD/store_fault_campaign_test missing — build the test suite first" >&2
  exit 1
fi

: > "$LOG"

if [ -n "${FAULT_SEED:-}" ]; then
  # Replay mode: one seed, all workloads, full output.
  echo "== replaying FAULT_SEED=$FAULT_SEED ==" | tee -a "$LOG"
  FAULT_SEED="$FAULT_SEED" "$BUILD/store_fault_campaign_test" 2>&1 | tee -a "$LOG"
  exit "${PIPESTATUS[0]}"
fi

SCHEDULES="${FAULT_SCHEDULES:-100}"
echo "== randomized campaign: $SCHEDULES schedules/workload ==" | tee -a "$LOG"
FAULT_SCHEDULES="$SCHEDULES" "$BUILD/store_fault_campaign_test" 2>&1 | tee -a "$LOG"
rc="${PIPESTATUS[0]}"

# The deterministic fault suites ride along so the artifact is a complete
# fault-model record, not just the randomized half.
for t in store_superblock_fault_test store_alloc_failure_test store_sync_fault_status_test; do
  if [ -x "$BUILD/$t" ]; then
    echo "== $t ==" | tee -a "$LOG"
    "$BUILD/$t" 2>&1 | tee -a "$LOG"
    [ "${PIPESTATUS[0]}" -eq 0 ] || rc=1
  fi
done

echo "== fault campaign exit: $rc (log: $LOG) ==" | tee -a "$LOG"
exit "$rc"

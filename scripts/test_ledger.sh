#!/usr/bin/env bash
# Test ledger: which ctest IDs the working tree removes and adds against
# REV. REV is exported (git archive) and built under build-ledger/, the
# working tree's own build is build/, and the two `ctest -N` lists are
# diffed. Needs stable IDs, which TestIds.StableAcrossRuns enforces.
#
#   scripts/test_ledger.sh HEAD~1    # prints "- ID" and "+ ID" lines
set -euo pipefail
cd "$(dirname "$0")/.."

REV="${1:?usage: scripts/test_ledger.sh REV}"
JOBS="${JOBS:-$(nproc)}"
LEDGER=build-ledger
rm -rf "$LEDGER/src"
mkdir -p "$LEDGER/src"
git archive "$REV" | tar -x -C "$LEDGER/src"

ids() {  # BUILD-DIR: the ctest IDs of a built tree, sorted
  ctest --test-dir "$1" -N | sed -n 's/^ *Test *#[0-9]*: //p' | sort
}
cmake -S "$LEDGER/src" -B "$LEDGER/build" > /dev/null
cmake --build "$LEDGER/build" -j"$JOBS" > /dev/null
cmake -S . -B build > /dev/null
cmake --build build -j"$JOBS" > /dev/null
{ diff <(ids "$LEDGER/build") <(ids build) || true; } |
  sed -n 's/^< /- /p; s/^> /+ /p'

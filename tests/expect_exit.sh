#!/bin/sh
# Usage: expect_exit.sh STATUS COMMAND [ARGS...]
#
# Runs COMMAND with stdin from /dev/null under a 10 s timeout and passes
# only when it exits with exactly STATUS: a crash (134 for an abort), a
# hang (124 from the timeout) or any other status fails the test.
want="$1"
shift
timeout 10 "$@" </dev/null >/dev/null
got=$?
if [ "$got" -ne "$want" ]; then
  echo "expected exit status $want, got $got: $*" >&2
  exit 1
fi

#!/bin/sh
# Usage: stable_test_names.sh GTEST-BINARY...
#
# Lists each binary's tests twice and fails when the two lists differ, or
# when a listed name or parameter carries an address (0x...) or a raw
# byte dump: ctest copies gtest's "# GetParam() = ..." text into the test
# name, so either one makes the ctest ID change from build to build.
status=0
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT
for bin in "$@"; do
  if ! "$bin" --gtest_list_tests > "$dir/a" ||
     ! "$bin" --gtest_list_tests > "$dir/b"; then
    echo "$bin: --gtest_list_tests failed" >&2
    status=1
    continue
  fi
  if ! diff "$dir/a" "$dir/b" > "$dir/diff"; then
    echo "$bin: two runs list different tests:" >&2
    cat "$dir/diff" >&2
    status=1
  fi
  if grep -E '0x[0-9a-f]{6,}|byte object' "$dir/a" > "$dir/bad"; then
    echo "$bin: test names that change from build to build:" >&2
    cat "$dir/bad" >&2
    status=1
  fi
done
exit $status

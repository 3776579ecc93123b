#!/usr/bin/env bash
# Runs tests selected by name and fails unless every name ran and passed.
#
#   named-tests.sh <cargo test command...> -- <full test path>...
#
# `cargo test <filter>` exits 0 when the filter matches nothing, so a test
# that is renamed, moved or deleted silently drops out of a by-name CI step.
# Each name is passed with `--exact` (a full path such as
# `explore::tests::some_test`; integration tests are at the crate root) and
# the `N passed` totals must add up to the number of names.
set -euo pipefail

command=()
while [ "$#" -gt 0 ] && [ "$1" != "--" ]; do
  command+=("$1")
  shift
done
if [ "$#" -lt 2 ]; then
  echo "usage: $0 <cargo test command...> -- <full test path>..." >&2
  exit 2
fi
shift
names=("$@")

log=$(mktemp)
trap 'rm -f "$log"' EXIT
"${command[@]}" -- --exact "${names[@]}" 2>&1 | tee "$log"

passed=$(grep -oE '[0-9]+ passed' "$log" | awk '{ n += $1 } END { print n + 0 }')
if [ "$passed" -ne "${#names[@]}" ]; then
  echo "named-tests: ${#names[@]} tests named, $passed ran and passed: ${names[*]}" >&2
  exit 1
fi

#!/usr/bin/env bash
# Lines added, removed and net of the working tree against a git revision,
# for program code and for tests.
#
#   scripts/net_lines.sh [BASE]      (BASE defaults to HEAD)
#
# Rows: src/ alone, all program code (src/ tools/ bench/ examples/
# perfbench/) and tests/.  Tracked changes come from `git diff --numstat
# BASE`; untracked files that are not ignored count as added in full.
# Binary files are skipped.
set -euo pipefail
cd "$(dirname "$0")/.."

base=${1:-HEAD}
if ! git rev-parse --verify --quiet "$base^{commit}" >/dev/null; then
  echo "net_lines.sh: unknown revision '$base'" >&2
  exit 2
fi

# Prints "added removed" summed over the given paths.
count() {
  {
    git diff --numstat "$base" -- "$@"
    git ls-files --others --exclude-standard -z -- "$@" |
      xargs -0 -r wc -l | awk '$2 != "total" { print $1 "\t0\t" $2 }'
  } | awk '$1 != "-" { a += $1; r += $2 } END { printf "%d %d\n", a, r }'
}

row() {
  local label=$1 added removed
  shift
  read -r added removed < <(count "$@")
  printf '%-9s %8d %8d %+8d\n' "$label" "$added" "$removed" \
    $((added - removed))
}

printf '%-9s %8s %8s %8s\n' "vs $base" added removed net
row src src
row program src tools bench examples perfbench
row tests tests

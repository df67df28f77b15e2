#!/usr/bin/env sh
# loc.sh — code-line counts: non-blank lines that are not `//` comments,
# for each src/ subdirectory, for src/ in total, and for tests/, tools/
# and bench/.
# Informational (not a CI gate); simplification changes quote its
# before/after numbers.
#
# Usage: tools/loc.sh [repo-root]      (default: this script's repository)
set -eu

root=${1:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}

count() {
  find "$@" -type f \( -name '*.cpp' -o -name '*.hpp' \) -print0 |
    xargs -0 cat |
    awk '!/^[[:space:]]*$/ && !/^[[:space:]]*\/\//' | wc -l
}

cd "$root"
for dir in src/*/; do
  printf '%-24s %6d\n' "${dir%/}" "$(count "$dir")"
done
printf '%-24s %6d\n' src "$(count src)"
for dir in tests tools bench; do
  printf '%-24s %6d\n' "$dir" "$(count "$dir")"
done

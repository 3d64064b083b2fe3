#!/bin/sh
# Size and option counts for the simplicity PRs (ROADMAP aim 2), so that
# CHANGES.md quotes a tool's output instead of a hand count.
#
# Lines: per file and per crate under crates/*/src, the Rust lines that
# are not tests (the file is cut at its first `#[cfg(test)]`), not blank
# and not comment-only.
# Options: `pub fn set_*` definitions and `: bool` parameters/fields in
# the same non-test, non-comment lines.
# Tests: per file and in total, the non-blank, non-comment lines of the
# integration tests, tests/*.rs and tests/common/*.rs.
#
# Usage: scripts/simplicity_counts.sh            (from anywhere in the repo)
set -eu
cd "$(dirname "$0")/.."

# Print a file's non-blank, non-comment lines.
lines() {
    awk '/^[[:space:]]*$/ { next }
         /^[[:space:]]*\/\// { next }
         { print }' "$1"
}

# Print a file's counted lines: those before its first `#[cfg(test)]`.
code() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { print }' "$1" | lines /dev/stdin
}

echo "# non-test, non-blank, non-comment Rust lines"
total=0
for crate in crates/*/; do
    crate=${crate%/}
    [ -d "$crate/src" ] || continue
    crate_total=0
    for f in $(find "$crate/src" -name '*.rs' | LC_ALL=C sort); do
        n=$(code "$f" | wc -l)
        printf '%7d  %s\n' "$n" "$f"
        crate_total=$((crate_total + n))
    done
    printf '%7d  %s (crate)\n' "$crate_total" "$crate"
    total=$((total + crate_total))
done
printf '%7d  crates/ (total)\n' "$total"

echo "# options"
setters=0
bools=0
for f in $(find crates -path '*/src/*' -name '*.rs' | LC_ALL=C sort); do
    setters=$((setters + $(code "$f" | grep -c 'pub fn set_' || true)))
    bools=$((bools + $(code "$f" | grep -o '[A-Za-z_][A-Za-z0-9_]*: bool' | wc -l)))
done
printf '%7d  pub fn set_*\n' "$setters"
printf '%7d  : bool params/fields\n' "$bools"

echo "# tests/: non-blank, non-comment Rust lines"
total=0
for f in tests/*.rs tests/common/*.rs; do
    n=$(lines "$f" | wc -l)
    printf '%7d  %s\n' "$n" "$f"
    total=$((total + n))
done
printf '%7d  tests/ (total)\n' "$total"

#!/bin/sh
# Paired runs of the repo benchmark (BENCHMARK.json): a parent checkout
# against this one.
#
#   scripts/bench_pairs.sh PARENT_DIR N
#
# Builds the benchmark once in each checkout (in its own benchmark/target,
# where `cargo run --manifest-path benchmark/Cargo.toml` builds it too),
# then runs N pairs of `run --seed 1988`, alternating which side goes
# first, and ends with `compare parent.jsonl change.jsonl`. A pass takes
# about 70 s. The result files stay in the temporary directory printed on
# stderr.
set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 PARENT_DIR N" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$(dirname "$0")/.." && pwd)
pairs=$2
out=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")

bench() {
    echo "$1/benchmark/target/release/sellis88-benchmark"
}

for side in "$parent" "$change"; do
    cargo build --release --offline --quiet \
        --manifest-path "$side/benchmark/Cargo.toml" \
        --target-dir "$side/benchmark/target"
done

i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        if [ "$side" = parent ]; then dir=$parent; else dir=$change; fi
        echo "pair $i/$pairs: $side" >&2
        # A pass with a failed check still appends its line; compare
        # reports the failed share.
        "$(bench "$dir")" run --seed 1988 --out "$out/$side.jsonl" >/dev/null ||
            echo "pair $i/$pairs: $side reported failed checks" >&2
    done
    i=$((i + 1))
done

echo "results: $out" >&2
"$(bench "$change")" compare "$out/parent.jsonl" "$out/change.jsonl"

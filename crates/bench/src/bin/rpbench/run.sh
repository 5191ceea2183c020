#!/usr/bin/env bash
# Builds rpbench twice from source -- the plain build for end-to-end
# numbers and the `obs` build for `--trace 1` -- then runs the one the
# `--trace` argument selects with every argument passed through.
#
#   bash crates/bench/src/bin/rpbench/run.sh --workload hmm-native --seed 1 \
#       --seconds 15 --trace 0
#
# Builds go to $CARGO_TARGET_DIR/{plain,traced} (default: target/rpbench
# under the repository root). Both builds run on every call; after the
# first call they are no-ops.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"
target="${CARGO_TARGET_DIR:-$here/../../../../../target/rpbench}"

cargo build --release --quiet --manifest-path "$manifest" --target-dir "$target/plain"
cargo build --release --quiet --manifest-path "$manifest" --target-dir "$target/traced" --features obs

build=plain
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    if [[ "${args[i]}" == "--trace" && "${args[i + 1]:-0}" == "1" ]]; then
        build=traced
    fi
done

exec "$target/$build/release/rpbench" "$@"

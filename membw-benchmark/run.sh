#!/usr/bin/env bash
# Build `repro` and the benchmark from source, then run the benchmark
# with the given arguments. Run it from the repository root:
#
#   bash membw-benchmark/run.sh --workload fig3-timing --seed 1 --seconds 20 --trace 0
#
# Both builds go to one target directory, $CARGO_TARGET_DIR (default:
# target/ at the repository root), so the benchmark finds `repro` next
# to itself. Cargo's messages go to stderr so the benchmark's result
# stays the last line of stdout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/Cargo.toml" || ! -d "$root/crates/bench" ]]; then
    echo "membw-benchmark: no membw workspace around $here" >&2
    exit 2
fi
cd "$root"
target="${CARGO_TARGET_DIR:-target}"
mkdir -p "$target"
target="$(cd "$target" && pwd)"
cargo build --release --offline --quiet --target-dir "$target" -p membw-bench --bin repro >&2
cargo build --release --offline --quiet --target-dir "$target" \
    --manifest-path membw-benchmark/Cargo.toml >&2
exec "$target/release/membw-benchmark" "$@"

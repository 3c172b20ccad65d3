#!/usr/bin/env bash
# Serving benchmark entry point; run from the repository root:
#
#   bash servebench/run.sh --workload joint-read --seed 1 --seconds 36 --trace 0
#
# Builds the `serve` binary from the repository workspace (a plain root
# `cargo build --release` does not build it) and the `servebench`
# program, then runs it against that binary. Build output goes to
# $CARGO_TARGET_DIR (default .bench_build); only the program's final JSON
# line and its report lines reach stdout.
set -euo pipefail
root="$(pwd)"
here="$root/servebench"
if [[ ! -f "$root/Cargo.toml" || ! -d "$root/crates/serve" ]]; then
    echo "servebench: run from the repository root (no workspace found in $root)" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --quiet --manifest-path "$root/Cargo.toml" -p serve --bin serve >&2
cargo build --release --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/servebench" --serve-bin "$target/release/serve" --root "$root" "$@"

#!/usr/bin/env bash
# The benchmark's one command. With no arguments it runs every
# workload (`--all`); the driver appends
#   --workload NAME --seed N --seconds S --trace 0|1
# Builds the `emubench` package next to this file (release, offline:
# its only dependencies are the repo's own crates) and runs it from
# the current directory, which must be the root of the checkout.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
if [ "$#" -eq 0 ]; then
    set -- --all
fi
exec cargo run --quiet --release --offline --manifest-path "$here/Cargo.toml" -- "$@"

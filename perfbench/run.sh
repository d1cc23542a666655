#!/usr/bin/env bash
# Builds perfbench from the repository's sources and runs it with the
# given arguments, from the repository root:
#   bash perfbench/run.sh --workload closure-d3 --seed 1 --seconds 20 --trace 0
# Build outputs (binary, Go build cache) and run scratch go to .bench_build/.
# Without the repository's sources the build fails and the script exits
# non-zero before printing any result.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build/perfbench"
mkdir -p "$out"
# Keep every file the Go toolchain writes (build cache, module cache,
# telemetry counters under the config directory) inside the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -buildvcs=false -o "$out/perfbench" .) >&2
# Name the source tree in the output: the git commit, or a digest of the
# sources when the checkout carries no git metadata.
if ! commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null); then
	commit=src-$(cd "$root" && find internal go.mod -type f | LC_ALL=C sort | xargs cat | sha256sum | cut -c1-12) ||
		commit=unknown
fi
export PERFBENCH_COMMIT="$commit"
cd "$root"
exec "$out/perfbench" --root "$root" "$@"

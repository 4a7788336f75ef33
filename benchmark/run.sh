#!/usr/bin/env bash
# Builds the round benchmark from source and runs it with the given
# arguments. A run may read and write only inside its checkout, so
# everything the go command would put elsewhere is pointed at .bench_build/
# in the checkout root: the binary, the build cache (default ~/.cache), its
# scratch files (default /tmp), the module cache (default ~/go) and its
# counter files (default ~/.config). The last three settings keep it from
# looking for a workspace file above the checkout, a proxy or another
# toolchain.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
# Result files are stamped with the commit when the checkout has one.
if [ -z "${ROUNDBENCH_COMMIT:-}" ] && [ -d "$root/.git" ]; then
  ROUNDBENCH_COMMIT="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || true)"
fi
export ROUNDBENCH_COMMIT
go -C "$here" build -buildvcs=false -o "$build/roundbench" .
exec "$build/roundbench" -out "$here/out" "$@"

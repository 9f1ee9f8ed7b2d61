#!/bin/sh
# check-fma.sh — fused multiply-add gate for CI and local use.
#
# On arm64, riscv64, ppc64le and s390x the Go compiler may fuse x*y + z
# into one FMA instruction (it never does on amd64), and a fused result can
# differ in its last bit from the separately rounded one — so one model
# could answer with different confidence bits on different hardware. This
# script builds every package of the module for arm64 and riscv64 with the
# assembly listing on, counts the distinct source lines that emit
# FMADDD/FMSUBD/FNMADDD/FNMSUBD, and fails when either count exceeds the
# committed bound. The bound only goes down: lower it when a change removes
# fused lines (an explicit float64(x*y) conversion forbids fusion), until
# it reaches 0.
#
# Each build gets a fresh, throwaway GOCACHE: a cached package prints no
# assembly, and a build that prints nothing would count 0 and pass.
#
# Usage: scripts/check-fma.sh    (about a minute: std is compiled twice)
set -eu
cd "$(dirname "$0")/.."

bound=126

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fail=0
for arch in arm64 riscv64; do
	listing="$tmp/$arch.s"
	if ! GOCACHE="$tmp/cache-$arch" GOOS=linux GOARCH="$arch" go build -gcflags=-S ./... >"$listing" 2>&1; then
		grep -v '^[[:space:]]' "$listing" | grep -v 'STEXT' | tail -20 >&2
		echo "check-fma: build for $arch failed" >&2
		exit 1
	fi
	if ! grep -q 'STEXT' "$listing"; then
		echo "check-fma: the $arch build listed no functions; nothing was compiled" >&2
		exit 1
	fi
	grep -E '[[:space:]](FMADDD|FMSUBD|FNMADDD|FNMSUBD)[[:space:]]' "$listing" |
		grep -oE '\([^()]*\.go:[0-9]+\)' | sed "s|($PWD/|(|" | sort -u >"$tmp/$arch.lines"
	n=$(wc -l <"$tmp/$arch.lines")
	echo "check-fma: $arch: $n source lines emit an FMA instruction (bound $bound)"
	if [ "$n" -gt "$bound" ]; then
		echo "check-fma: $arch exceeds the bound; fused lines:" >&2
		cat "$tmp/$arch.lines" >&2
		fail=1
	fi
done
if [ "$fail" -ne 0 ]; then
	echo "FMA check FAILED" >&2
	exit 1
fi

#!/bin/sh
# check-pkgdoc.sh — fail if any package under internal/ or cmd/, nested
# ones (internal/obs/analyze, internal/sim/rng, ...) included, lacks a
# package doc comment: "// Package <name> ..." for libraries, the godoc
# "// Command <name> ..." convention for main packages under cmd/. Run from
# the repo root; CI runs it on every push. POSIX sh, nothing beyond find
# and grep.
set -eu

fail=0
for dir in $(find internal cmd -type d -name testdata -prune -o -type d -print | sort); do
    dir="$dir/"
    # A directory with no Go files is not a package.
    ls "$dir"*.go >/dev/null 2>&1 || continue
    pkg=$(basename "$dir")
    case "$dir" in
    cmd/*) want="// Command $pkg " ;;
    *)     want="// Package $pkg " ;;
    esac
    if ! grep -l "^$want" "$dir"*.go >/dev/null 2>&1; then
        echo "missing package doc comment: $dir (want '$want...')" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "every package must carry a godoc comment; see docs/ARCHITECTURE.md" >&2
    exit 1
fi
echo "pkgdoc: all packages documented"

#!/usr/bin/env bash
# doccheck.sh — documentation lint, wired into `make doccheck` and CI.
#
# Enforced invariants:
#   1. every internal package has a `// Package <name> ...` comment;
#   2. every command under cmd/ has a `// Command <name> ...` comment;
#   3. every exported top-level symbol in internal/scenario (the
#      spec/findings API other tools consume), internal/runner (the
#      multi-seed worker pool behind it), internal/obs (the
#      instrumentation API), internal/ops (the live-endpoint API),
#      internal/fabricsim (the engine API), and the root facade basrpt.go
#      (the public API) carries a doc comment.
#
# Stdlib tooling only: grep + awk over non-test Go sources.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# 1. Package comments for every internal package.
for dir in internal/*/; do
    pkg=$(basename "$dir")
    files=$(ls "$dir"*.go 2>/dev/null | grep -v '_test\.go$' || true)
    if [ -z "$files" ]; then
        continue
    fi
    # shellcheck disable=SC2086
    if ! grep -qsE "^// Package $pkg( |$)" $files; then
        echo "doccheck: internal/$pkg: no '// Package $pkg ...' comment in any non-test file" >&2
        fail=1
    fi
done

# 2. Command comments for every cmd.
for dir in cmd/*/; do
    name=$(basename "$dir")
    if ! grep -qsE "^// Command $name( |$)" "$dir"*.go; then
        echo "doccheck: cmd/$name: no '// Command $name ...' comment" >&2
        fail=1
    fi
done

# 3. Exported top-level symbols in the consumed-API packages are
# documented: any top-level `func F`, method on any receiver, `type T`,
# or `const`/`var` (single exported name or grouped block) must be
# preceded by a comment.
for f in internal/scenario/*.go internal/runner/*.go internal/obs/*.go internal/ops/*.go internal/fabricsim/*.go basrpt.go; do
    case "$f" in *_test.go) continue ;; esac
    awk -v file="$f" '
        /^(func|type) [A-Z]/ || /^func \([^)]+\) [A-Z]/ || /^(const|var) ([A-Z]|\()/ {
            if (prev !~ /^\/\//) {
                printf "doccheck: %s:%d: exported symbol lacks a doc comment: %s\n", file, NR, $0
                bad = 1
            }
        }
        { prev = $0 }
        END { exit bad }
    ' "$f" || fail=1
done

if [ "$fail" -ne 0 ]; then
    echo "doccheck: FAIL" >&2
    exit 1
fi
echo "doccheck: OK (package comments, command comments, scenario/runner/obs/ops/fabricsim/facade exported symbols)"

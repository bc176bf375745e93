#!/usr/bin/env bash
# Coverage gate: the packages that carry the enforcement semantics, the
# relational kernel, the guarded ETL steps, the SQL executor whose header
# is the one origin resolver enforcement, lint, diff and containment trust,
# the provenance tracer thresholds count support with, the linter and
# policy model that share the dead-rule analysis, the engine that wires
# them together, the audit trail, and the serving layer must stay above
# FLOOR percent statement coverage.
# Writes coverage.out for the whole module so `go tool cover -html` works.
set -euo pipefail

FLOOR="${COVER_FLOOR:-80}"
GATED_PKGS=(internal/relation internal/enforce internal/etl internal/sql internal/provenance internal/lint internal/policy internal/core internal/audit internal/serve)

go test -coverprofile=coverage.out ./... >/dev/null

fail=0
for pkg in "${GATED_PKGS[@]}"; do
    line=$(go test -cover "./$pkg" | grep -E '^ok' || true)
    pct=$(echo "$line" | grep -oE '[0-9]+\.[0-9]+% of statements' | grep -oE '^[0-9]+\.[0-9]+')
    if [ -z "$pct" ]; then
        echo "cover: could not determine coverage for $pkg" >&2
        fail=1
        continue
    fi
    ok=$(awk -v p="$pct" -v f="$FLOOR" 'BEGIN { print (p >= f) ? 1 : 0 }')
    if [ "$ok" = "1" ]; then
        echo "cover: $pkg ${pct}% >= ${FLOOR}% (ok)"
    else
        echo "cover: FAIL: $pkg ${pct}% is below the ${FLOOR}% floor" >&2
        fail=1
    fi
done
exit $fail

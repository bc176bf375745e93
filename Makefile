# Developer entry points. CI (.github/workflows/ci.yml) runs these targets
# across parallel jobs; `make ci` replicates the gating set locally.

GO ?= go
FUZZTIME ?= 30s

.PHONY: build vet test race lint cover bench-smoke bench scale-ceiling fuzz-smoke chaos ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Static analysis — the one command list (CI's lint job runs this target):
# go vet, gofmt, plalint over every shipped PLA document and the full
# healthcare deployment (error severity gates the build; the scenario's
# intentionally blocked report stays a warning), and pladiff: a silent
# identity diff, and detection of the audit example's known hospital
# allow-* expansion (must exit 1 with PD001 — proves the expansion
# detector works, and pins that the bundle stays expansive). Two checks
# are tests, so `make test`/`race` gate them: the repo's own audit-write
# discipline (PV002, internal/analysis/plavet TestRepoClean) and
# translation validation (PD000) of every render program of the bare
# scenario and the audit example (internal/diff TestValidateScenarioClean).
lint: vet
	@out=$$(gofmt -l . | grep -v /testdata/ || true); \
	if [ -n "$$out" ]; then echo "lint: gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) run ./cmd/plalint docs/sample.pla
	for f in examples/*/policy.pla; do $(GO) run ./cmd/plalint $$f || exit 1; done
	$(GO) run ./cmd/plalint -severity error -healthcare
	$(GO) run ./cmd/pladiff - -
	out=$$($(GO) run ./cmd/pladiff -severity error - examples/audit/policy.pla; test $$? -eq 1) || exit 1; \
	echo "$$out" | grep -q 'PD001' || { echo "lint: expected PD001 expansion not detected"; exit 1; }

# Coverage with floors: internal/relation, internal/enforce, internal/etl,
# internal/sql, internal/provenance, internal/lint, internal/policy,
# internal/core, internal/audit and internal/serve must stay at or above
# 80% statement coverage (see scripts/cover.sh).
cover:
	bash scripts/cover.sh

# One-iteration pass over every root benchmark (paper experiments E1–E11,
# k-anonymization, elicitation), internal/relation's (GroupBy over a
# frozen table against a plain one; ApplyEdit carrying the resident form by
# an append and by an update) and internal/etl's (entity resolution with a
# cold and a warm canon index): catches bitrot in the bench harnesses
# without paying for a measurement run.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x . ./internal/relation ./internal/etl

# The benchmark (BENCHMARK.json): five fixed-work workloads, each in a
# fresh process; writes bench/out/result.json. Gate a change with
# `go run ./bench/cmd/plabibench -compare base.json head.json` (exit 1 on
# a regression or a higher failed share) — see bench/README.md.
bench:
	$(GO) run ./bench/cmd/plabibench

# Memory-ceiling check: stream 1M rows through a SegmentWriter and scan
# them back (pruned select, full scan, aggregation) with the runtime's
# soft memory limit pinned to half the table's in-memory footprint; the
# sampled peak heap must stay under that budget. PLABI_SCALE_10M=1 runs
# the 10M-row variant.
scale-ceiling:
	PLABI_SCALE=1 $(GO) test -run '^TestScaleMemoryCeiling$$' -count=1 -v .

# Chaos suite: the healthcare scenario under deterministic fault
# schedules (fixed seed matrix, override with CHAOS_SEEDS=1,2,3) with the
# race detector on, beside renders racing insert, update and delete
# deltas (each must equal the serial render of one committed snapshot),
# and lint racing deltas (it runs the recorded pipelines over zero rows
# beside their live state). On failure the fault schedule and the audit sink contents land in
# ./chaos-artifacts for offline replay.
chaos:
	CHAOS_ARTIFACT_DIR=./chaos-artifacts $(GO) test -race -run 'TestChaos|TestRendersDuringDeltas|TestLintDuringDeltas' ./internal/core -count=1 -v

# Short fuzz campaigns over the SQL parser, WHERE evaluation (a predicate
# bound to a schema against the unbound expression), the PLA DSL parser,
# the columnar segment decoder, DATE values (a day number against its text
# and its neighbours), packed group lineage (against the gathered refs,
# and every operator against its materialized twin), the entity-resolution
# matcher (against its reference) and delta edit scripts (incremental
# refresh against a full rebuild); the checked-in corpora under
# */testdata/fuzz replay first.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParseSelect -fuzztime $(FUZZTIME) ./internal/sql
	$(GO) test -run '^$$' -fuzz FuzzWhereEval -fuzztime $(FUZZTIME) ./internal/sql
	$(GO) test -run '^$$' -fuzz FuzzParseFile -fuzztime $(FUZZTIME) ./internal/policy
	$(GO) test -run '^$$' -fuzz FuzzSegmentDecode -fuzztime $(FUZZTIME) ./internal/relation
	$(GO) test -run '^$$' -fuzz FuzzDateValue -fuzztime $(FUZZTIME) ./internal/relation
	$(GO) test -run '^$$' -fuzz FuzzGroupLineage -fuzztime $(FUZZTIME) ./internal/relation
	$(GO) test -run '^$$' -fuzz FuzzMatcher -fuzztime $(FUZZTIME) ./internal/etl
	$(GO) test -run '^$$' -fuzz FuzzChangeApply -fuzztime $(FUZZTIME) ./internal/etl

ci: lint build race chaos bench-smoke scale-ceiling cover

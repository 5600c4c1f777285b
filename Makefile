GO ?= go

.PHONY: all build test vet lint race race-sessions stress-sessions bench-smoke check bench bench-diff fuzz fmt fmt-check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs sinewlint, the project's own stdlib-only analyzer: Close()
# propagation through iterator trees, mutex discipline, exhaustive
# datum-tag switches, plan-cache key completeness, and unchecked errors
# on the storage/serialization paths. See DESIGN.md "Invariants & static
# checks".
lint:
	$(GO) run ./cmd/sinewlint ./...

race:
	$(GO) test -race ./...

# race-sessions drives the concurrent-session surface added with sinewd
# (DESIGN.md §10): the mixed writer/reader stress harness, the
# snapshot-isolation differential test (every snapshot read must equal
# the serial replay at its pinned epoch, across reference and batch
# plans), the torn-dirty-flag test (core's TestSnapshotTornDirty:
# readers rewriting Q10 while a column's dirty bit flips under them), the
# materializer beside SQL writers (no acknowledged UPDATE or DELETE lost to
# a pass) and beside cached and never-cached readers (no count dip while
# values move; the plan cache's pin-then-recheck on hit and miss), extracted
# values that alias records and frozen segments held across UPDATEs and a
# materializer pass (and the copies those two store), values that alias a
# frozen page's payload arenas held across UPDATEs that un-freeze it,
# materializer passes and the re-freezes that pack new arenas, UPDATE and DELETE
# built again when the epoch moved before they took the table lock (a pass
# landing between rewrite and write), writes that leave cached plans in
# place unless they catalog a key or mint an attribute (a cached SELECT
# beside repeated UPDATEs still hits), projection readers beside UPDATEs
# that un-freeze the pages they read, and the HTTP end-to-end test.
# GOMAXPROCS=1 forces cooperative interleavings, 2 and 8 vary true
# parallelism.
SESSION_TESTS = TestSnapshot|TestMaterializeKeepsConcurrentWrites|TestConcurrentQueriesDuringMaterialization|TestPlanCacheConcurrentMaterialize|TestPlanCacheStaleBuildRebuilt|TestExecSelectOnceRebuilds|TestExecWriteOnceRebuilds|TestWriteRebuiltAfterPass|TestShapeCacheConcurrentLiterals|TestExtractedValuesSurviveWriters|TestPackedValuesSurviveWriters|TestStoredValuesOwnTheirBytes|TestWriteKeepsCachedPlans|TestCollectBesideUnfreeze
race-sessions:
	GOMAXPROCS=1 $(GO) test -race -count=1 -run '$(SESSION_TESTS)' ./internal/rdbms/ ./internal/core/
	GOMAXPROCS=2 $(GO) test -race -count=1 -run '$(SESSION_TESTS)' ./internal/rdbms/ ./internal/core/
	GOMAXPROCS=8 $(GO) test -race -count=1 -run '$(SESSION_TESTS)' ./internal/rdbms/ ./internal/core/
	GOMAXPROCS=8 $(GO) test -race -count=1 ./internal/service/
	GOMAXPROCS=8 $(GO) test -race -count=1 -run 'TestSinewStatsSnapshot' ./internal/core/

# stress-sessions soaks the same harness for ~30s (CI runs it as a
# non-blocking job; locally it is a good pre-merge smoke for scheduler-
# dependent interleavings the quick legs may miss).
stress-sessions:
	GOMAXPROCS=8 $(GO) test -race -count=10 -timeout 10m -run 'TestSnapshotStress|TestSnapshotIsolation' ./internal/rdbms/

# bench-smoke vets and smoke-tests benchmark/, a Go module of its own that
# `go build ./... && go test ./...` never sees: it compiles against the
# product's packages (types.Datum, storage.Row, core.Result, the serial
# kernels), so a change to one of those surfaces breaks it silently
# otherwise.
bench-smoke:
	$(GO) vet -C benchmark .
	$(GO) test -C benchmark .

# check is the gate CI runs: formatting and static analysis plus the full
# test suite under the race detector (concurrent sessions — readers beside
# writers, the materializer and sinewd — are the concurrency surface; a
# statement runs on one goroutine), with extra GOMAXPROCS legs for the
# concurrent-session/snapshot surface, and the benchmark module's smoke
# test.
check: fmt-check vet lint race race-sessions bench-smoke

# fuzz exercises the serializer's read side, its one-pass write side (JSON
# bytes straight into the record builder, held to the tree path's answer),
# the datum representation, the key hash (KeyEqual values hash alike), the
# statement-shape scan (a shape with its values bound parses to what the
# text parses to) and the segment codec (JSON lines encoded and striped,
# every attribute's column — sectioned or sparse — held to the per-record
# header lookup) — the same targets CI runs as a non-blocking job; the
# serializer's checked-in corpora live in internal/serial/testdata/fuzz/,
# the other targets' seeds are in their test files.
fuzz:
	$(GO) test -fuzz=FuzzRecordReaders -fuzztime=30s ./internal/serial/
	$(GO) test -fuzz=FuzzStreamLoadMatchesTree -fuzztime=30s ./internal/serial/
	$(GO) test -fuzz=FuzzDatumRoundTrip -fuzztime=30s ./internal/rdbms/types/
	$(GO) test -fuzz=FuzzKeyHashMatchesEqual -fuzztime=30s ./internal/rdbms/types/
	$(GO) test -fuzz=FuzzShapeMatchesParse -fuzztime=30s ./internal/rdbms/sqlparse/
	$(GO) test -fuzz=FuzzSegmentMatchesRecords -fuzztime=30s ./internal/serial/

# bench runs the micro-benchmarks and regenerates BENCH_BASELINE.json, the
# one checked-in machine-readable Table 3 (load time per system) + Figure 6
# + Table 5 + plan-cache report (ns/op and allocs/op per query). Run it
# when a change moves allocs/op on purpose, and commit the result. It pins
# one processor.
bench:
	GOMAXPROCS=1 $(GO) test -bench . -benchmem -run '^$$' ./internal/bench/
	GOMAXPROCS=1 $(GO) run ./cmd/sinewbench -json BENCH_BASELINE.json -small 4000

# bench-diff measures the tree as it is (into the git-ignored
# .bench_build/) and fails when any Figure 6 query, or either leg
# (virtual/physical) of a Table 2 or Table 5 row, allocates over 10% more
# per operation than BENCH_BASELINE.json, when a Table 2 plan string
# differs from it, or when the NoBench fixture's live heap grows by over
# 10%. allocs/op, plans and the heap are the parts of the report that do
# not depend on the host; ns/op is printed and not gated — timing claims go
# through pairs of benchmark/run.sh.
bench-diff:
	mkdir -p .bench_build
	GOMAXPROCS=1 $(GO) run ./cmd/sinewbench -json .bench_build/bench.json -small 4000
	$(GO) run ./cmd/benchdiff -baseline BENCH_BASELINE.json -new .bench_build/bench.json -tolerance 10

fmt:
	gofmt -w $$($(GO) list -f '{{.Dir}}' ./...)

# fmt-check fails, listing the files, when gofmt would change any file of
# the directories fmt formats.
fmt-check:
	@out="$$(gofmt -l $$($(GO) list -f '{{.Dir}}' ./...))"; test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

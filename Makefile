GO ?= go
FUZZTIME ?= 15s

.PHONY: build test race hammer seed-sweep bench benchmark-check lint quickrlint fuzz fmt fmt-check vet loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race job covers the packages with real concurrency: the parallel
# executor, the shared worker pool and admission gate, the query
# service, the samplers the executor drives, the per-partition metric
# slots, the table storage (appends, seals and snapshot readers), and
# the statistics store that extends itself from the table's new lanes
# (with the catalog that hands it out); then the fused pipeline, the
# per-partition aggregate runners, the broadcast probes (every probe
# task reads one shared build table, dense or hashed), the routed exchange (its gather
# tasks and the aggregate's stripe tasks read one routing, and its
# group tables take the routing hashes), the compare kernels, the
# distinct sampler (its admit loop against the row reference, its key
# and hold-store buffers per partition), the universe sampler (its
# coordinate kernel against HashValues and a paired universe join
# against the row reference) and its nesting across p, a task's panic
# failing its job on the shared pool, the run ledger's slab pools, and
# the Part builder, its zero-copy windows and the sort's lane
# comparators (against the row sort), and the storage and statistics
# tests (a first touch fans its fold out on the pool, an extension
# folds inline, both while appenders run), three times over.
# Under -race every released payload slab is poisoned
# (internal/exec/ledger_race.go), so the root package's goldens, sample
# cache, hammer and window-function tests and the frozen result hashes
# then hold answers computed on recycled memory to the committed ones.
# The CI race job runs this target and then hammer.
race:
	$(GO) test -race ./internal/exec/... ./internal/sampler/... ./internal/pool/... ./internal/service/... ./internal/metrics/... ./internal/table/... ./internal/stats/... ./internal/catalog/...
	$(GO) test -race -count=3 -run 'TestPipeline|TestStreamingPeak|TestParallelParts|TestColumnar|TestChain|TestAgg|TestExchange|TestAggOverExchange|TestDistinct|TestAdmitBatch|TestJoin|TestDense|TestStarJoin|TestProbe|TestKeyTable|TestPanic|TestCmp|TestUniverse|TestLedger|TestSamplerAdmissionNests|TestSort|TestPart|TestBytesAll' ./internal/exec/ ./internal/sampler/ ./internal/pool/
	$(GO) test -race -count=3 -run 'TestTable|TestCollect|TestExtend' ./internal/table/ ./internal/stats/
	$(GO) test -race -run 'TestGolden|TestSampleCache|TestConcurrentHammerBitIdentical|TestWindow' .
	$(GO) test -race -run TestFrozenResultHashes ./internal/experiments/

# Concurrency hammer: 32+ mixed exact/approx queries on one engine under
# the race detector, plus cancellation and chaos interleavings.
hammer:
	$(GO) test -race -count=1 -timeout 10m -run 'TestConcurrent|TestCancel|TestDeadline' .

# Statistical acceptance sweep: ≥200 sampler seeds per query, CI95
# coverage against the reference evaluator and Proposition 4 missed-
# group bounds. Slow — skipped under -short, run nightly in CI.
seed-sweep:
	$(GO) test -count=1 -timeout 30m -run TestSeedSweepCoverage -v ./internal/experiments/

bench:
	$(GO) test -bench=. -benchmem -run '^$$'

# The repository benchmark is a nested module (benchmark/go.mod), so
# `go build ./...` and `go test ./...` never compile it — yet it calls
# the engine's public API and the layers' exported functions, and some
# of those are kept only for it. Vet it, run its tests, and run every
# workload end to end at the smoke scale (--smoke shrinks the inputs,
# not the timed section, hence --seconds). The CI benchmark-build job
# runs this target.
benchmark-check:
	$(GO) vet -C benchmark .
	$(GO) test -C benchmark .
	bash benchmark/run.sh --smoke --seconds 1

vet:
	$(GO) vet ./...

# The ROADMAP's size measure: non-test Go lines and files outside
# benchmark/ and */testdata/*. "Smaller" is this number going down.
LOC_FILES = find . -name '*.go' -not -path './benchmark/*' -not -name '*_test.go' -not -path '*/testdata/*'
loc:
	@echo "non-test Go outside benchmark/ and testdata/: $$($(LOC_FILES) | xargs cat | wc -l) lines in $$($(LOC_FILES) | wc -l) files"

# Project-specific analyzers (see internal/lint and DESIGN.md §8/§13):
# the syntactic walker noprintf, the dataflow analyzers lockdiscipline
# and ctxflow, and //lint:ignore hygiene. Zero findings required. The
# optimizer's rewrite-soundness sweep is TestSoundnessSweep in
# `go test ./...`; nightly CI raises it to 5000 plans.
quickrlint:
	$(GO) run ./cmd/quickrlint ./...

# lint = vet + gofmt + quickrlint, plus staticcheck/govulncheck when
# they are installed (the hermetic dev container has no network, so
# they are optional here; CI installs and runs them unconditionally).
lint: vet fmt-check quickrlint
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs it)"; \
	fi

# Short coverage-guided fuzz of the SQL lexer and parser, of the
# scalar functions and of the binder's kind rules; fuzz-found
# regressions live in the packages' testdata/fuzz and run under plain
# `go test` too. The CI fuzz job runs this target.
fuzz:
	$(GO) test ./internal/sql -run '^$$' -fuzz FuzzLex -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sql -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lplan -run '^$$' -fuzz FuzzCallFunc -fuzztime $(FUZZTIME)
	$(GO) test . -run '^$$' -fuzz FuzzBindKinds -fuzztime $(FUZZTIME)

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Tier-1 gate (see ROADMAP.md): everything `make ci` runs must stay
# green on every change.

GO ?= go

.PHONY: ci vet build test race bench-smoke bench fuzz-smoke perfbench

ci: vet build test race bench-smoke fuzz-smoke perfbench

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The benchmark harness is a nested module (perfbench/go.mod), so the
# root ./... patterns above skip it: vet and test it on its own so an
# internal API change that breaks the benchmark build fails the gate.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# One iteration of the convert and stats benchmarks as a smoke test:
# catches benchmark bit-rot without paying for a full measurement run.
# RouterWindow covers the serving tier's scatter-gather path,
# UteloadSmoke is one full load-generator run against a router fleet,
# SchedHotLoop pins the simulator's per-event cost, and SweepCell runs
# one scenario-sweep cell through the whole pipeline.
bench-smoke:
	$(GO) test -run xxx -bench 'ConvertPerEvent|ConvertParallel|StatsWindow|StatsParallel|StatsColumnar|IntervalEncodeV4|IntervalScanV4|ServeWindow|ServePreview|PreviewZoom|RouterWindow|UteloadSmoke|SchedHotLoop|SweepCell|^BenchmarkIngest$$' -benchtime 1x .

# A short fuzz of every target, one at a time (the fuzz engine allows a
# single -fuzz pattern per invocation): catches regressions the checked-in
# seed corpus alone would miss. Longer runs: raise FUZZTIME.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -run xxx -fuzz '^FuzzOpen$$' -fuzztime $(FUZZTIME) ./internal/interval
	$(GO) test -run xxx -fuzz '^FuzzNextRecord$$' -fuzztime $(FUZZTIME) ./internal/interval
	$(GO) test -run xxx -fuzz '^FuzzScanWindow$$' -fuzztime $(FUZZTIME) ./internal/interval
	$(GO) test -run xxx -fuzz '^FuzzSalvage$$' -fuzztime $(FUZZTIME) ./internal/interval
	$(GO) test -run xxx -fuzz '^FuzzPyramid$$' -fuzztime $(FUZZTIME) ./internal/interval
	$(GO) test -run xxx -fuzz '^FuzzParseWindow$$' -fuzztime $(FUZZTIME) ./internal/clock
	$(GO) test -run xxx -fuzz '^FuzzCompile$$' -fuzztime $(FUZZTIME) ./internal/stats
	$(GO) test -run xxx -fuzz '^FuzzIngestBatch$$' -fuzztime $(FUZZTIME) ./internal/ingest

# Full measurement run over the pipeline and analysis benchmarks (slow;
# numbers are recorded in BENCH_pipeline.json, BENCH_stats.json,
# BENCH_ingest.json and BENCH_sim.json).
bench:
	$(GO) test -run xxx -bench 'ConvertPerEvent|ConvertParallel|MergeLoserTreeVsLinear|MergeReadAhead|IntervalWriterThroughput|IntervalScan|IntervalEncodeV4|StatsWindow|StatsParallel|StatsColumnar|RouterWindow|RouterScaling|SchedHotLoop|SweepCell|^BenchmarkIngest$$' .

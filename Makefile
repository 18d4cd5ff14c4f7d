GO ?= go

.PHONY: build test vet lint race bench bench-sense bench-harden verify

# build and vet also cover the campaign benchmark, a nested module
# (campaignbench/) the root ./... patterns skip, so an API change that breaks
# it fails here rather than when the benchmark runs. -o /dev/null keeps the
# build from leaving a binary in the tree.
build:
	$(GO) build ./...
	cd campaignbench && $(GO) build -o /dev/null ./...

vet:
	$(GO) vet ./...
	cd campaignbench && $(GO) vet ./...

# Repo-specific static checks: gofmt, exhaustive outcome switches, and the
# deterministic-path wall-clock/global-RNG rules (see internal/lint).
lint:
	sh scripts/lint.sh

test:
	$(GO) test ./...

# Race-detector pass over the concurrent farm/journal/transport/control-plane layer.
race:
	$(GO) test -race ./internal/campaign/... ./internal/crashnet/... ./internal/ctlplane/...

# One-iteration snapshot + execution-engine + static-sense benchmarks;
# rewrites BENCH_snapshot.json, BENCH_exec.json, and BENCH_sense.json.
bench:
	$(GO) test . -run '^$$' -bench Snapshot -benchtime 1x
	$(GO) test . -run '^$$' -bench EngineSpeedup -benchtime 1x
	$(GO) test . -run '^$$' -bench StaticSense -benchtime 1x

# One-iteration whole-target static-sense + incremental-cache benchmark on
# both platforms; rewrites BENCH_sense.json (per-target inert fractions,
# sense-annotated campaign time, cold/warm section-cache speedup).
bench-sense:
	$(GO) test . -run '^$$' -bench StaticSense -benchtime 1x

# One-iteration matched hardened-vs-unhardened study on both platforms;
# rewrites BENCH_harden.json (detection coverage + code/cycle overheads).
bench-harden:
	$(GO) test . -run '^$$' -bench BenchmarkHarden -benchtime 1x

# Tier-1 gate + reduced-size benchmark smoke runs (see scripts/verify.sh).
verify:
	sh scripts/verify.sh

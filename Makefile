GO ?= go

.PHONY: build test vet lint race verify

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

# Race-detector pass over the concurrent farm/journal/transport layer;
# internal/campaign takes about 15 minutes under -race on 2 vCPUs, past go
# test's 10-minute default.
race:
	$(GO) test -race -timeout 30m ./internal/campaign/... ./internal/crashnet/...

# Tier-1 gate + pipeline and paper-benchmark smoke runs (see scripts/verify.sh).
verify:
	sh scripts/verify.sh

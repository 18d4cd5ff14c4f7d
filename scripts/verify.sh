#!/bin/sh
# verify.sh — the repo's tier-1 gate plus pipeline and benchmark smoke runs.
#
#   sh scripts/verify.sh         (or: make verify)
#
# Runs build, vet (of the root module and the nested campaignbench/ module),
# lint, the full test suite, a bounded fuzz of guest RAM against a dense
# model and of each translator against the reference interpreter, the
# race-detector pass over the concurrent
# layer, a campaign -> journal -> report pipeline smoke in a temporary
# directory, and one iteration of every paper benchmark in bench_test.go
# (Table/Figure/Ablation/Propagation) as a smoke test. Nothing it runs
# writes into the tree, so it leaves the working tree clean. Speed is
# measured by campaignbench (campaignbench/README.md), not here.
set -eu

cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== campaignbench: go build + go vet (nested module, skipped by ./...)"
(cd campaignbench && go build -o /dev/null ./... && go vet ./...)

echo "== lint (gofmt + exhaustive outcome switches + deterministic-path rules)"
sh scripts/lint.sh

echo "== go test ./..."
go test ./...

echo "== fuzz: sparse guest RAM against a dense model (bounded)"
# -fuzzminimizetime bounds the minimization of each new input, which
# otherwise takes up to a minute of the budget.
go test ./internal/mem -run '^$' -fuzz '^FuzzDenseModel$' -fuzztime 10s -fuzzminimizetime 1s

echo "== fuzz: translator decoded-code cache against the reference interpreter, per ISA (bounded)"
# The lockstep harness runs each input armed (stepping through the slots)
# and unarmed (blocks).
go test ./internal/cisc -run '^$' -fuzz '^FuzzPredecodeEquivalence$' -fuzztime 5s -fuzzminimizetime 1s
go test ./internal/risc -run '^$' -fuzz '^FuzzPredecodeEquivalence$' -fuzztime 5s -fuzzminimizetime 1s

echo "== go test -race (campaign + crashnet: the concurrent farm/journal/transport layer)"
# internal/campaign alone takes about 15 minutes under -race on 2 vCPUs
# (933 s measured), past go test's 10-minute default timeout. About
# 150 s of it is TestFirstTouchExact, which replays 800 data rows from
# boot as its reference.
go test -race -timeout 30m ./internal/campaign/... ./internal/crashnet/...

echo "== pipeline smoke (kfi-campaign -journal, then kfi-report on the journal directory)"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/kfi-campaign -platform both -campaign stack -n 10 -quiet -figures=false -journal "$tmp" >/dev/null
go run ./cmd/kfi-report "$tmp" >"$tmp/report.txt"
for row in p4/Stack g4/Stack; do
	grep -q "^$row " "$tmp/report.txt" || { echo "verify: kfi-report printed no $row row" >&2; exit 1; }
done

echo "== paper benchmark smoke (-short -bench=. -benchtime=1x: every Table/Figure/Ablation/Propagation benchmark once)"
go test . -short -run '^$' -bench . -benchtime 1x

echo "verify: OK"

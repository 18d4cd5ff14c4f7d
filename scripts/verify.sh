#!/bin/sh
# verify.sh — the repo's tier-1 gate plus the snapshot-subsystem smoke run.
#
#   sh scripts/verify.sh         (or: make verify)
#
# Runs build, vet (of the root module and the nested campaignbench/ module),
# and the full test suite, then one reduced-size (-short) iteration of each
# BENCH benchmark as a smoke test. -short runs never write the BENCH_*.json
# files, so the script leaves the working tree clean; regenerate those with
# the make bench targets.
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

echo "== go test -race (campaign + crashnet + ctlplane: the concurrent farm/journal/transport/control-plane layer)"
go test -race ./internal/campaign/... ./internal/crashnet/... ./internal/ctlplane/...

echo "== snapshot benchmark smoke (-short -bench=Snapshot -benchtime=1x)"
go test . -short -run '^$' -bench Snapshot -benchtime 1x

echo "== execution-engine benchmark smoke (-short -bench=EngineSpeedup -benchtime=1x)"
go test . -short -run '^$' -bench EngineSpeedup -benchtime 1x

echo "== engine-equivalence smoke (tables + journals byte-identical across engines)"
go test ./internal/campaign/ -run 'TestEngineEquivalence' -count 1

echo "== static-sense benchmark smoke (-short -bench=StaticSense -benchtime=1x)"
go test . -short -run '^$' -bench StaticSense -benchtime 1x

echo "== hardened mini-campaign smoke (-short -bench=BenchmarkHarden -benchtime=1x)"
go test . -short -run '^$' -bench BenchmarkHarden -benchtime 1x

echo "verify: OK"

#!/bin/sh
# verify.sh — the repo's tier-1 gate plus the snapshot-subsystem smoke run.
#
#   sh scripts/verify.sh         (or: make verify)
#
# Runs build, vet (of the root module and the nested campaignbench/ module),
# the full test suite, and a campaign -> journal -> report pipeline smoke in
# a temporary directory, then one reduced-size (-short) iteration of each
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
# internal/campaign alone takes about 15 minutes under -race on 2 vCPUs
# (933 s measured), past go test's 10-minute default timeout. About
# 150 s of it is TestFirstTouchExact, which replays 800 data rows from
# boot as its reference.
go test -race -timeout 30m ./internal/campaign/... ./internal/crashnet/... ./internal/ctlplane/...

echo "== pipeline smoke (kfi-campaign -journal, then kfi-report on the journal directory)"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/kfi-campaign -platform both -campaign stack -n 10 -quiet -figures=false -journal "$tmp" >/dev/null
go run ./cmd/kfi-report "$tmp" >"$tmp/report.txt"
for row in p4/Stack g4/Stack; do
	grep -q "^$row " "$tmp/report.txt" || { echo "verify: kfi-report printed no $row row" >&2; exit 1; }
done

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

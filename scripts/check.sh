#!/bin/sh
# Tier-1 check: gofmt -s, vet, euconlint, build, a run of every example
# (exit 0 required), race-enabled tests, vet and -short tests of bench/ (so
# a deletion that breaks a name the benchmark uses fails here), a benchmark
# smoke, and the golden digests once more without -race. The race-enabled
# tests carry the steady-state zero-allocation gates
# (TestSteadyStateAllocationFree and internal/sim's
# TestSteadyStateEventLoopAllocFree) and the smoke runs
# that used to be shell steps: the chaos campaigns (25 seeded fault storms
# on SIMPLE, 6 localized storms at 128 processors, 2 partition scenarios
# against a real 8-agent TCP fleet — internal/chaos TestCampaignSmokeClean)
# and the euconfarm smokes (64 node agents over loopback TCP through
# injected crashes, clean and again under transport loss, clock drift and
# a partition/heal cycle — cmd/euconfarm TestSmoke, TestLossySmoke).
# Usage: ./scripts/check.sh   (or: make check)
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt -s"
unformatted=$(gofmt -s -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt -s needed on:"
	echo "$unformatted"
	exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> euconlint ./... ./cmd/... (make lint)"
go run ./cmd/euconlint ./... ./cmd/...

echo "==> go build ./..."
go build ./...

echo "==> examples: each go run ./examples/<name> must exit 0"
for dir in examples/*/; do
	name=$(basename "$dir")
	if ! go run "./examples/$name" > /dev/null; then
		echo "FAIL: go run ./examples/$name"
		exit 1
	fi
done

echo "==> go test -race ./..."
go test -race ./...

echo "==> bench/ (its own module): vet and -short tests against this tree"
(cd bench && go vet ./... && go test -short ./...)

echo "==> benchmark smoke (the 5 go test benchmarks, 1 iteration, -short)"
go test -short -run '^$' -bench . -benchtime 1x ./...

# The goldens pin trajectories bit for bit, so they cannot judge a change
# that moves an iterate on purpose (the active-set start point at t*·c moved
# every one). Such a change re-pins them once; the KKT certificate on every
# solve (TestRecordedStepsCertify, TestReplayedSolvesCertify) and
# TestPaperClaims are what accept the new trajectories.
echo "==> golden digests vs scripts/golden/ (fig4/fig5 sweeps, proc2-crash-recover, kitchen-sink, LARGE-128, LARGE-1024; -race skips the LARGE two)"
go test ./cmd/euconsim -run TestGoldenDigests

echo "==> OK"

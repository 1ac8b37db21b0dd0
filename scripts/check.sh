#!/bin/sh
# Tier-1 check: gofmt -s, vet, euconlint, build, race-enabled tests (which
# carry the steady-state zero-allocation gates: TestSteadyStateAllocationFree
# and internal/sim's TestSteadyStateEventLoopAllocFree),
# benchmark smoke, the explicit-compile determinism check, the
# sweep/fault/LARGE-workload golden digests (cmd/euconsim's TestGoldenDigests,
# the same test go test ./... runs, against scripts/golden/), and the
# chaos smoke campaigns (25 seeded fault storms on SIMPLE, 6 localized
# fault storms at 128 processors, and 2 partition scenarios against a real
# 8-agent TCP fleet, every robustness invariant enforced), and the
# distributed-runtime smokes (euconfarm: 64 node agents over loopback TCP
# riding through injected crashes without a controller restart, clean and
# again under transport loss, clock drift, and a partition/heal cycle).
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

echo "==> go test -race ./..."
go test -race ./...

echo "==> benchmark smoke (1 iteration, -short)"
go test -short -run '^$' -bench . -benchtime 1x ./...

echo "==> explicit-MPC compile determinism (two compiles, identical digests)"
exp_rep_a=$(go run ./cmd/euconsim -explicit-report)
exp_rep_b=$(go run ./cmd/euconsim -explicit-report)
digests_a=$(echo "$exp_rep_a" | sed 's/.*"digest":"\([^"]*\)".*/\1/')
digests_b=$(echo "$exp_rep_b" | sed 's/.*"digest":"\([^"]*\)".*/\1/')
if [ -z "$digests_a" ] || [ "$digests_a" != "$digests_b" ]; then
	echo "FAIL: explicit region-table build digests differ across compiles:"
	echo "$exp_rep_a"
	echo "$exp_rep_b"
	exit 1
fi
echo "$exp_rep_a"

echo "==> golden digests vs scripts/golden/ (fig4/fig5 sweeps, proc2-crash-recover, LARGE-128, LARGE-1024)"
go test ./cmd/euconsim -run TestGoldenDigests

echo "==> chaos smoke (make chaos-smoke: 25 seeded fault storms + 6 localized storms at 128 procs)"
go run ./cmd/euconfuzz -seed 1 -n 25
go run ./cmd/euconfuzz -campaign large128 -seed 1 -n 6 -periods 100

echo "==> partition campaign smoke (real 8-agent TCP fleet under partitions and transport loss)"
go run ./cmd/euconfuzz -campaign partition -seed 1 -n 2 -periods 100

echo "==> distributed-runtime smoke (euconfarm: 64 agents over loopback TCP, crashes injected)"
go run ./cmd/euconfarm -smoke

echo "==> lossy-network smoke (FarmLossy: 64 agents, 5% drop + 20ms delays + dup/reorder, drifting clocks, one partition/heal cycle)"
go run ./cmd/euconfarm -smoke -codec binary2 -interval 10ms -skew 0.01 \
	-transport-faults drop=0.05,delayprob=0.3,delay=20ms,dup=0.01,reorder=0.01,seed=7 -partitions 1

echo "==> OK"

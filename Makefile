GO ?= go

.PHONY: check fmt vet lint lint-fixtures build test bench-smoke chaos-smoke chaos fuzz-queue fuzz-lane fuzz-qp fuzz-mpc

## check: the tier-1 gate — format, vet, build, race-enabled tests, and a
## one-iteration benchmark smoke pass. CI and pre-commit both run this.
check:
	./scripts/check.sh

fmt:
	@out=$$(gofmt -s -l .); if [ -n "$$out" ]; then \
		echo "gofmt -s needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

## lint: euconlint (cmd/euconlint), the repo's own static-analysis suite —
## determinism, interprocedural noalloc proofs, floatsafety, pooldiscipline,
## aliasing, enum exhaustiveness, and concurrency-discipline invariants.
## Exits nonzero on any finding.
lint:
	$(GO) run ./cmd/euconlint ./... ./cmd/...

## lint-fixtures: the analyzer suite's own golden-diagnostic tests (each
## fixture package must produce exactly its want-commented findings, every
## analyzer must carry positive and annotated-negative fixtures, and the
## diagnostic order must be deterministic).
lint-fixtures:
	$(GO) test ./internal/analysis -run 'TestFixtures|TestExitsNonzeroSemantics|TestDirectiveName|TestAnalyzersHaveDocs|TestAnalyzerFixtureCoverage|TestDiagnosticOrderDeterministic' -count=1

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

## bench-smoke: every benchmark for a single iteration under -short, so a
## broken benchmark fails fast without paying full measurement time.
bench-smoke:
	$(GO) test -short -run '^$$' -bench . -benchtime 1x ./...

## chaos-smoke: the CI chaos gate — 25 seeded fault-storm scenarios against
## the canonical SIMPLE campaign, 6 crash/feedback-drop scenarios against
## localized DEUCON on LARGE-128, and 2 partition scenarios against a real
## 8-agent TCP fleet. Fails on any violation; `make test` runs the same test.
chaos-smoke:
	$(GO) test -count=1 -run TestCampaignSmokeClean ./internal/chaos

## chaos: a deeper campaign for local soak testing (hundreds of scenarios,
## wider clause compositions).
chaos:
	$(GO) run ./cmd/euconfuzz -seed 1 -n 500 -max-clauses 6

## fuzz-queue: fuzz the simulator's calendar event queue against a sorted
## reference for 30 s (random push/pop/re-key sequences); the seed corpus
## already runs with the ordinary tests.
fuzz-queue:
	$(GO) test -run '^$$' -fuzz FuzzEventQueueOrder -fuzztime 30s ./internal/sim

## fuzz-lane: fuzz the three lane codecs' decoders for 30 s: every body
## must decode to a message that re-encodes, or fail closed; then fuzz the
## buffered receive for 30 s: a frame stream cut into Reads at any
## boundaries must read back as per-frame decoding does, or fail with the
## uncut stream's error. The seed corpora already run with the ordinary
## tests.
fuzz-lane:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime 30s ./internal/lane
	$(GO) test -run '^$$' -fuzz '^FuzzReceiveSegmented$$' -fuzztime 30s ./internal/lane

## fuzz-qp: fuzz the active-set solver's kept QR factor for 30 s: random
## row sets and add/drop scripts must give the independence decisions of a
## from-scratch QR and a factor equal to FactorQR's, bit for bit; then its
## sparse row form for 30 s: row products over the nonzeros must equal the
## dense sums, bit for bit; then whole solves for 30 s: small random
## least-squares problems must get, bit for bit, the answer of a reference
## loop that recomputes everything densely every iteration. The seed
## corpora already run with the ordinary tests.
fuzz-qp:
	$(GO) test -run '^$$' -fuzz '^FuzzIndependenceFactor$$' -fuzztime 30s ./internal/qp
	$(GO) test -run '^$$' -fuzz '^FuzzRowForm$$' -fuzztime 30s ./internal/qp
	$(GO) test -run '^$$' -fuzz '^FuzzSolveMatchesReference$$' -fuzztime 30s ./internal/qp

## fuzz-mpc: fuzz the controller's analytic start point for 30 s on
## SIMPLE, MEDIUM and LARGE-8: Δr = 0 when feasible, else a feasible t*·c
## toward the R_min corner with a formerly violated row tight, and the
## relaxed variant exactly when the corner is infeasible; then whole
## warm-chained control steps for 30 s on the same workloads: no step on
## finite inputs may hold, and every step must certify to 1e-8. The seed
## corpora already run with the ordinary tests.
fuzz-mpc:
	$(GO) test -run '^$$' -fuzz '^FuzzStartPoint$$' -fuzztime 30s ./internal/mpc
	$(GO) test -run '^$$' -fuzz '^FuzzStepTo$$' -fuzztime 30s ./internal/mpc

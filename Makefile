GO ?= go

.PHONY: check fmt vet lint lint-fixtures build test bench-smoke chaos-smoke chaos

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
## localized DEUCON on LARGE-128 (each run at 1 and 8 workers and required
## bit-identical), and 2 partition scenarios against a real 8-agent TCP
## fleet. Fails on any violation; `make test` runs the same test.
chaos-smoke:
	$(GO) test -count=1 -run TestCampaignSmokeClean ./internal/chaos

## chaos: a deeper campaign for local soak testing (hundreds of scenarios,
## wider clause compositions).
chaos:
	$(GO) run ./cmd/euconfuzz -seed 1 -n 500 -max-clauses 6

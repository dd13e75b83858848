GO ?= go

.PHONY: verify build vet test stack-check staticcheck cover race bench bench-paper bench-oracle bench-detsupp bench-fleet bench-stack soak-smoke soak-regress ci

verify: ## build + vet + full test suite (tier-1 gate)
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...
	$(MAKE) stack-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...
	$(MAKE) stack-check

# benchmarks/stack is its own module (replace mpichv => ../..), so the
# root module's build and tests never compile it: this is what catches
# an internal/ change that breaks the surface the benchmark pins.
stack-check: ## vet + test the wall-clock benchmark harness against this tree (~10 s)
	bash benchmarks/stack/run.sh -check

staticcheck: ## staticcheck when the binary is on PATH (no network installs)
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping"; \
	fi

cover: ## coverage summary; internal/trace (recorder+auditor) must hold >=80%
	$(GO) test -coverprofile=coverage.out ./...
	@$(GO) tool cover -func=coverage.out | tail -1
	@pct=$$($(GO) test -cover ./internal/trace/ | \
		sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
	echo "internal/trace statement coverage: $$pct% (floor 80%)"; \
	awk -v p="$$pct" 'BEGIN { exit (p + 0 >= 80.0) ? 0 : 1 }' || \
		{ echo "FAIL: internal/trace coverage under 80%"; exit 1; }

race: ## race detector over the full tree (mirrors the CI race job)
	$(GO) test -race -count=1 ./...

bench: ## Go microbenchmarks with allocation counts (wire codec, vtime actors)
	$(GO) test -run '^$$' -bench . -benchmem ./internal/wire/ ./internal/vtime/

bench-paper: ## quick pass over every paper experiment
	$(GO) run ./cmd/vbench -exp all -quick

# bench-oracle is the refactoring gate: the simulator is deterministic,
# so a behaviour-preserving change regenerates the committed virtual-time
# artifacts byte for byte.
# Run it before any target that rewrites a committed BENCH_*.json in
# place (bench-detsupp and bench-fleet write their -quick sweeps).
bench-oracle: ## regenerate BENCH_{perf,ckpt,detsupp,trace,fleet}.json in scratch and diff against the committed files (~3 s)
	bash tools/bench-oracle.sh

# bench-detsupp gates the suppression layer: the sweep must emit its
# JSON artifact, and TestDetSuppShape fails unless adaptive mode logs
# strictly fewer (>=2x fewer) gated determinants per message than the
# pessimistic baseline on the deterministic ring, with a measured drop
# in WAITLOGGED time.
bench-detsupp: ## determinant-suppression sweep + its acceptance gate
	$(GO) run ./cmd/vbench -exp detsupp -quick -json && test -f BENCH_detsupp.json
	$(GO) test ./internal/bench/ -run TestDetSuppShape -v

# bench-fleet gates the sharded fleet: the sweep must emit its JSON
# artifact, and 4 EL shards must log determinants at >=2x the 1-shard
# rate on the quick workload with every audit green.
bench-fleet: ## sharded-fleet scaling sweep + its acceptance gate
	$(GO) run ./cmd/vbench -exp fleet -quick -json && test -f BENCH_fleet.json
	$(GO) test ./internal/bench/ -run TestFleetShape -v

# bench-stack runs the wall-clock benchmark's self-check: the end-to-end
# set of workloads twice on this machine, failing if any metric of the
# two sets differs by more than its BENCHMARK.json bound. It takes
# minutes and measures the box it runs on, so it stays out of CI.
bench-stack: ## self-check of the real-socket benchmark (benchmarks/stack)
	bash benchmarks/stack/run.sh -selfcheck

# soak-smoke exits non-zero unless every audit is green, the per-role
# kill quota was met (each of cn/el/cs/sc killed at least once per
# phase — including at least one EL replica and the scheduler), and
# teardown leaked zero goroutines.
soak-smoke: ## ~60s rolling-seed soak: replicated service plane + chaos proxies + per-role seeded kills
	$(GO) run ./cmd/soak -seed 42 -cns 3 -els 3 -css 2 -detmode adaptive \
		-roles cn,el,cs,sc -phases 2 -proxysvc \
		-laps 300 -hold 20 -kills 4 -stalls 1 \
		-minafter 2s -over 5s -stallfor 1s \
		-drop 0.02 -dup 0.01 -delay 0.1 -maxdelay 2ms -disk 9 \
		-timeout 2m -out BENCH_soak.json

# soak-regress runs the same soak but gates it on the committed
# baseline instead of overwriting it: a goodput drop of more than 20%
# against BENCH_soak.json fails the target.
soak-regress: ## soak-smoke gated on committed goodput (>20% drop fails)
	$(GO) run ./cmd/soak -seed 42 -cns 3 -els 3 -css 2 -detmode adaptive \
		-roles cn,el,cs,sc -phases 2 -proxysvc \
		-laps 300 -hold 20 -kills 4 -stalls 1 \
		-minafter 2s -over 5s -stallfor 1s \
		-drop 0.02 -dup 0.01 -delay 0.1 -maxdelay 2ms -disk 9 \
		-timeout 2m -out "" -regress BENCH_soak.json -regress-tol 0.2

ci: ## the full gate: build + vet + staticcheck + tests + coverage floor + race core
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) staticcheck
	$(MAKE) cover
	$(MAKE) stack-check
	$(GO) test -race -count=1 ./internal/eventlog/ ./internal/ckpt/ \
		./internal/cluster/ ./internal/transport/

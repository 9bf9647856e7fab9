GO ?= go

# Packages with benchmarks: the figure suite at the root, the event engine
# microbenchmarks, and the observability hot-path (hooks-disabled overhead).
BENCH_PKGS = ./ ./internal/sim/ ./internal/obs/

.PHONY: ci build bench-build vet test race fmt-check fmt fuzz-smoke fuzz bench bench-smoke bench-diff trace-smoke ckpt-smoke cluster-smoke cluster-demo chaos-smoke par-smoke dash-smoke

# ci is the gate: vet, build (the root module and the nested nvbench
# benchmark harness), the full suite under the race detector
# (including the nvmserved integration tests and the randomized ADR
# crash-consistency property test), a short fuzz smoke per target, a
# single-iteration bench smoke, a trace-export smoke, a checkpoint/restore
# smoke, a parallel-engine byte-identity smoke, a 3-node cluster smoke, a
# seeded chaos soak, a fleet-dashboard smoke, and a gofmt check.
ci: vet build bench-build race fuzz-smoke bench-smoke trace-smoke ckpt-smoke par-smoke cluster-smoke chaos-smoke dash-smoke fmt-check

# dash-smoke boots a 2-node in-process loopback fleet, runs one job, fetches
# GET /v1/dashboard/data from every member, and validates the payload twice:
# nvmload checks liveness, fleet-wide stage aggregates, and verdict-tally
# stability across members and refetches; tracecheck re-validates the written
# JSON independently (bucket arithmetic, membership, regime tallies).
dash-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/nvmload -dash -dash-out $$tmp/dash.json && \
	$(GO) run ./cmd/tracecheck -dash $$tmp/dash.json

# par-smoke runs the full figure subset on both engines under the race
# detector and byte-diffs the outputs: TestParallelByteIdentical renders
# every canonical figure shape serially and with sharded cycle rounds
# (-par 2 and 4) and compares canonical result bytes plus job hashes; the
# sim-level property tests replay randomized cross-shard programs the same
# way, including with the worker pool budget exhausted. Both raise GOMAXPROCS internally so the
# shard workers really run concurrently even on small CI hosts.
par-smoke:
	$(GO) test -race -count=1 ./internal/server/ -run 'TestParallelByteIdentical|TestSimParallelExcludedFromHash'
	$(GO) test -race -count=1 ./internal/sim/ -run 'TestSharded'

# chaos-smoke runs the seeded in-process chaos soak: a 3-node fleet under
# drops, delays, duplication, slow-drip, a corruption-injecting peer, and a
# healed full partition — asserting byte-identity against a solo reference,
# bounded dispatch attempts, quarantine of the corrupter, anti-entropy
# replica convergence, an exactly-replayable fault schedule, and no
# goroutine leaks. Same seed = same faults, so failures reproduce.
chaos-smoke:
	$(GO) run ./cmd/nvmload -chaos -points 12 -steps 8000 -chaos-seed 1

# ckpt-smoke drives checkpoint/restore end to end through the vans CLI:
# a checkpointing run, a restore that must reproduce the original output
# byte for byte, and a corrupted snapshot that must be rejected (non-zero
# exit) rather than resumed.
ckpt-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o $$tmp/vans ./cmd/vans && \
	$$tmp/vans -pattern chase -region 256K -ckpt-every 1000 \
		-checkpoint $$tmp/snap.ckpt -json > $$tmp/a.json 2>/dev/null && \
	$$tmp/vans -pattern chase -region 256K -ckpt-every 1000 \
		-restore $$tmp/snap.ckpt -json > $$tmp/b.json 2>/dev/null && \
	cmp $$tmp/a.json $$tmp/b.json && \
	head -c 200 $$tmp/snap.ckpt > $$tmp/torn.ckpt && \
	if $$tmp/vans -pattern chase -region 256K -ckpt-every 1000 \
		-restore $$tmp/torn.ckpt -json >/dev/null 2>&1; then \
		echo "ckpt-smoke: torn snapshot was accepted"; exit 1; fi && \
	echo "ckpt-smoke: restore identity and corruption rejection OK"

# cluster-smoke boots a 3-node loopback fleet through nvmload -demo and
# verifies the whole cluster story end to end: consistent-hash sharding,
# peer cache fill, hedged dispatch around a handicapped straggler, and a
# SIGKILLed node mid-sweep — every phase checked byte-identical against a
# single-node reference. Small sweep sizes keep the gate fast.
cluster-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o $$tmp/nvmserved ./cmd/nvmserved && \
	$(GO) build -o $$tmp/nvmload ./cmd/nvmload && \
	$$tmp/nvmload -demo -serve-bin $$tmp/nvmserved \
		-points 12 -throughput-points 24 -kill-points 24

# cluster-demo is the full-size showpiece run of the same orchestration.
cluster-demo:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o $$tmp/nvmserved ./cmd/nvmserved && \
	$(GO) build -o $$tmp/nvmload ./cmd/nvmload && \
	$$tmp/nvmload -demo -serve-bin $$tmp/nvmserved

# trace-smoke exports a tiny Chrome trace through `vans -trace` and validates
# it with tracecheck — the end-to-end guard on the trace_event exporter.
trace-smoke:
	$(GO) run ./cmd/vans -pattern seq -bytes 16K -op store-nt \
		-trace /tmp/vans-trace-smoke.json >/dev/null 2>&1
	$(GO) run ./cmd/tracecheck /tmp/vans-trace-smoke.json
	@rm -f /tmp/vans-trace-smoke.json

# bench refreshes BENCH_quick.json, the checked-in performance snapshot:
# every benchmark three times with allocation stats, averaged per name.
# The snapshot is staged and checked before replacing the committed one, so
# a run that produced no measurements (filtered out, build skew, crash mid
# -pipe) fails the target instead of silently emptying the baseline.
bench:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
	$(GO) test -run '^$$' -bench . -benchmem -count 3 $(BENCH_PKGS) \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > $$tmp && \
	if ! grep -q ns_op $$tmp; then \
		echo "bench: no benchmark results captured; BENCH_quick.json left untouched"; exit 1; fi && \
	mv $$tmp BENCH_quick.json

# bench-smoke runs each benchmark once — catches benchmarks that broke
# without paying for a measurement-grade run.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x $(BENCH_PKGS)

# bench-diff measures the current tree (same protocol as `make bench`) and
# compares it against the checked-in BENCH_quick.json baseline, failing on any
# benchmark whose ns/op or allocs/op regressed beyond the tolerance.
# Override with e.g. `make bench-diff BENCH_TOLERANCE=25` on noisy hosts.
BENCH_TOLERANCE ?= 15
bench-diff:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
	$(GO) test -run '^$$' -bench . -benchmem -count 3 $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchjson > $$tmp && \
	$(GO) run ./cmd/benchjson -diff -tolerance $(BENCH_TOLERANCE) BENCH_quick.json $$tmp

# fuzz-smoke runs each fuzz target briefly off the checked-in seed corpus —
# enough to catch parser/validator regressions without stalling the gate.
fuzz-smoke:
	$(GO) test ./internal/units/ -run '^$$' -fuzz=FuzzParseSize -fuzztime=5s
	$(GO) test ./internal/server/ -run '^$$' -fuzz=FuzzJobSpec -fuzztime=5s
	$(GO) test ./internal/ckpt/ -run '^$$' -fuzz=FuzzCheckpointDecode -fuzztime=5s
	$(GO) test ./internal/chaos/ -run '^$$' -fuzz=FuzzChaosSpec -fuzztime=5s

# fuzz digs longer; run it when touching the parsers or the job model.
fuzz:
	$(GO) test ./internal/units/ -run '^$$' -fuzz=FuzzParseSize -fuzztime=2m
	$(GO) test ./internal/server/ -run '^$$' -fuzz=FuzzJobSpec -fuzztime=2m
	$(GO) test ./internal/ckpt/ -run '^$$' -fuzz=FuzzCheckpointDecode -fuzztime=2m
	$(GO) test ./internal/chaos/ -run '^$$' -fuzz=FuzzChaosSpec -fuzztime=2m

build:
	$(GO) build ./...

# bench-build vets the nvbench harness, a nested module that the root
# `go build ./...` never reaches, so an internal API change cannot break the
# benchmark unnoticed. The module replaces repro with this checkout and needs
# nothing outside it, hence the workspace, flags and proxy are switched off.
bench-build:
	GOWORK=off GOFLAGS= GOPROXY=off $(GO) -C nvbench vet ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

fmt:
	gofmt -w .

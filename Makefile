# Tier-1 verification (see ROADMAP.md): the full build + test sweep, plus a
# race-detector pass over the concurrency-heavy packages (transport mesh,
# collectives, live runtime, controller, public API). `make ci` is what a
# commit must keep green.

GO ?= go

# Packages whose tests exercise real goroutine concurrency and therefore run
# under the race detector as part of tier-1.
RACE_PKGS := ./internal/transport/ ./internal/collective/ ./internal/live/ ./internal/controller/ ./internal/policy/ ./internal/core/ ./internal/engine/ ./internal/tensor/ ./internal/bufpool/ ./internal/analyze/ ./internal/health/ .

.PHONY: ci vet build test race allocgate chaos trace-smoke postmortem-smoke chargeguard bench benchgate fuzz clean

ci: vet build test race allocgate chaos trace-smoke postmortem-smoke chargeguard benchgate-quick

# Charge-drift guard: the simulator's traffic accounting is folded into the
# engine's SimEnv (GroupRing/WorldRing/Exchanges), so a strategy that calls
# cluster.ChargeRing/ChargeExchange directly has bypassed the environment and
# its comm columns can silently diverge from the event timeline. Only
# internal/engine (the fold) and internal/cluster (the definitions and their
# tests) may mention the charge calls.
chargeguard:
	@bad=$$(grep -rnE '\.Charge(Ring|Exchange)\(' internal cmd examples \
		| grep -v '^internal/engine/' | grep -v '^internal/cluster/' || true); \
	if [ -n "$$bad" ]; then \
		echo "direct traffic charging outside internal/engine + internal/cluster:"; \
		echo "$$bad"; exit 1; \
	fi; echo "chargeguard: ok"

# staticcheck is optional tooling: run it when the binary is on PATH, skip
# quietly otherwise so ci stays green on minimal containers. The arm64 pass
# keeps the generic (non-assembly) tensor kernels compiling; the native pass
# also runs asmdecl over the amd64 assembly.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "staticcheck not installed; skipping"; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Zero-allocation gate: the steady-state data plane (pool Get/Put, Mem
# Send/RecvInto round trip, full segmented AllReduceSum, kernel dispatch)
# and the proxy model's Gradient/Predict must not touch the heap. The
# assertions skip themselves under -race (whose instrumentation allocates),
# so ci runs them in a dedicated non-race pass.
allocgate:
	$(GO) test ./internal/bufpool/ -run TestSteadyStateGetPutAllocFree -count 1
	$(GO) test ./internal/transport/ -run TestRecvIntoSteadyStateAllocFree -count 1
	$(GO) test ./internal/collective/ -run TestAllReduceSteadyStateAllocFree -count 1
	$(GO) test ./internal/tensor/ -run TestAddScaledDispatchAllocFree -count 1
	$(GO) test ./internal/model/ -run TestMLPGradientAllocFree -count 1

# Seeded chaos soak: worker fail-stop + controller crash (warm and cold) +
# timed network partition + elastic join/drain staircase composed in one run,
# swept across seeds under the race detector. ci runs the default sweep;
# raise CHAOS_SEEDS for a longer soak. Any failure reproduces from the
# logged seed.
CHAOS_SEEDS ?= 4
chaos:
	PREDUCE_CHAOS_SEEDS=$(CHAOS_SEEDS) $(GO) test -race ./internal/live/ -run TestChaosSoak -count 1
	$(GO) test -race ./internal/policy/ -count 1

# End-to-end observability smoke: a seeded simulator trace export, a seeded
# three-rank live run serving /metrics+pprof (scraped mid-run), and a Chrome
# trace-event schema check over every exported trace.
trace-smoke:
	sh scripts/trace_smoke.sh

# End-to-end health-plane smoke: a seeded three-rank live run with an
# injected straggler and the watchdog armed; /healthz must flip to 503 with
# blame-spike firing, exactly one postmortem bundle must land in the
# recorder directory, and preduce-postmortem must validate and render it
# (including the blame report recomputed from the bundled trace ring).
postmortem-smoke:
	sh scripts/postmortem_smoke.sh

# Data-plane benchmark sweep; machine-readable results land in
# BENCH_dataplane.json (test2json stream, one JSON object per line). The
# proxy-model kernels (MLP Gradient/Predict at the two perfbench shapes, and
# MulVec/MulVecT/MeanOuter at the four perfbench layer shapes, SIMD and
# generic) are printed as well but stay out of that file, so benchgate does
# not use them. The
# traced all-reduce benchmark is recorded alongside the untraced one, and
# the trace-overhead gate bounds the traced/untraced regression at <3%.
BENCHTIME ?= 1s
bench:
	$(GO) test -p 1 ./internal/collective/ ./internal/transport/ ./internal/tensor/ \
		-run '^$$' -bench 'BenchmarkAllReduceSum$$|BenchmarkAllReduceSumTraced$$|BenchmarkRingSegmented|BenchmarkEncodeFrame|BenchmarkSendRecvInto|BenchmarkAddScaled' \
		-benchmem -benchtime $(BENCHTIME) -json > BENCH_dataplane.json
	@grep -oE '"Output":"(Benchmark[^"]*|[^"]*ns/op[^"]*)"' BENCH_dataplane.json | \
		sed -e 's/^"Output":"//' -e 's/"$$//' -e 's/\\t/\t/g' -e 's/\\n//' | \
		awk '/^Benchmark/ { name=$$0; next } /ns\/op/ { print name $$0 }'
	PREDUCE_TRACEGATE=1 $(GO) test ./internal/collective/ -run TestTraceOverheadGate -count 1 -v
	$(GO) test ./internal/model/ -run '^$$' -bench 'BenchmarkMLPGradient|BenchmarkMLPPredict' -benchmem -benchtime $(BENCHTIME)
	$(GO) test ./internal/tensor/ -run '^$$' -bench 'BenchmarkMulVec|BenchmarkMeanOuter' -benchmem -benchtime $(BENCHTIME)
	$(GO) test ./internal/policy/ -run '^$$' -bench BenchmarkPolicyDecide -benchmem -benchtime $(BENCHTIME)
	PREDUCE_POLICYGATE=1 $(GO) test ./internal/policy/ -run TestPolicyDecideGate -count 1 -v
	@echo "wrote BENCH_dataplane.json"

# Benchmark regression gate: rerun the data-plane sweep and compare against
# the committed BENCH_dataplane.json baseline. Fails on a throughput
# regression beyond the tolerance or on ANY allocs/op increase. ci runs the
# quick variant (100ms benchtime, widened tolerance — chiefly an alloc and
# gross-slowdown gate); run `make benchgate` for the enforcing 1s/15% pass.
benchgate:
	sh scripts/benchgate.sh

.PHONY: benchgate-quick
benchgate-quick:
	BENCH_QUICK=1 sh scripts/benchgate.sh

# Short fuzz pass over the wire codec (longer runs: raise FUZZTIME).
FUZZTIME ?= 15s
fuzz:
	$(GO) test ./internal/transport/ -run '^$$' -fuzz FuzzFrameCodec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transport/ -run '^$$' -fuzz FuzzFrameRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/policy/ -run '^$$' -fuzz FuzzPolicyStateCodec -fuzztime $(FUZZTIME)

# BENCH_dataplane.json is the committed benchgate baseline, so clean
# leaves it alone; refresh it with `make bench`.
clean:
	$(GO) clean ./...

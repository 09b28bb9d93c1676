GO ?= go

.PHONY: check build fmt vet lint fuzz test race allocs bench apicheck apigen loadsmoke clustersmoke

# check is the CI gate: formatting, static analysis (go vet plus the
# fdavet invariant analyzers), the public-API surface diff, the full
# test suite under the race detector, the zero-allocation regressions
# (which must run without -race, where they self-skip), and a
# benchmark smoke.
check: fmt vet lint apicheck race allocs bench

# lint runs the fdavet suite (DESIGN.md §12): detmap, wallclock,
# floatsum, obswrite and noalloc enforce the determinism, zero-alloc
# and telemetry-non-interference invariants on every package. Exits
# non-zero on any finding, including unused //fda:allow annotations.
lint:
	$(GO) run ./cmd/fdavet ./...

# fuzz gives each native fuzz target a short adversarial run on top of
# its always-on seed corpus (the seeds run as plain tests under
# `go test`). Targets: the checkpoint v2 container decoder, the
# compress wire-frame decoders and the Prometheus exposition validator
# — every parser that consumes bytes from disk or socket.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/checkpoint -fuzz FuzzUnmarshal -fuzztime $(FUZZTIME)
	$(GO) test ./internal/compress -fuzz FuzzWireDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/compress -fuzz FuzzWireRoundtrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obs -fuzz FuzzValidatePrometheusText -fuzztime $(FUZZTIME)

# The public surface of the fda package is pinned in docs/fda-api.txt
# (a go doc -all dump). apicheck fails when a change alters it without
# regenerating the golden file (make apigen), so API breaks are always
# an explicit, reviewed diff — never a silent side effect.
apicheck:
	@$(GO) doc -all ./fda > .fda-api.tmp || { rm -f .fda-api.tmp; exit 1; }
	@if ! diff -u docs/fda-api.txt .fda-api.tmp; then \
		rm -f .fda-api.tmp; \
		echo "public fda API changed; review the diff above and run 'make apigen'"; \
		exit 1; \
	fi
	@rm -f .fda-api.tmp

apigen:
	@mkdir -p docs
	@$(GO) doc -all ./fda > docs/fda-api.txt
	@echo "wrote docs/fda-api.txt"

# The AllocsPerRun assertions guard the steady-state zero-allocation
# contract (DESIGN.md §7) and the telemetry layer's zero-alloc hot path
# in both enabled and disabled states (DESIGN.md §11); race
# instrumentation allocates, so they skip themselves under -race and
# need this separate uninstrumented run.
allocs:
	$(GO) test ./internal/core/ ./internal/obs/ -run ZeroAllocs -v | grep -v '^=== RUN'

build:
	$(GO) build ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The explicit timeout keeps the race-instrumented figure sweeps from
# tripping go test's 10m default on small (1–2 core) machines.
race:
	$(GO) test -race -timeout 45m ./...

# bench is a run-once smoke of every benchmark selection (-benchtime
# 1x): it proves the figure/sweep, step/kernel/fabric/telemetry and
# workload benchmarks still compile and run, and records nothing.
# Performance evidence comes from the benchmark in perfbench/
# (bash perfbench/run.sh), comparing two revisions on one machine.
bench:
	$(GO) test -run '^$$' -bench '^Benchmark(Table2|Figure|Ablation|Sweep|RunWorkers)' \
		-benchtime 1x -benchmem -timeout 0 .
	$(GO) test -run '^$$' -bench '^Benchmark(LocalStep|Kernel|Fabric|Obs)' \
		-benchtime 1x -benchmem -timeout 0 .
	$(GO) test -run '^$$' -bench '^BenchmarkWorkload' \
		-benchtime 1x -benchmem -timeout 0 ./internal/workload

# loadsmoke is the load-path CI gate (DESIGN.md §13): boot a real
# fdaserve with the admission cap armed, drive two seconds of Poisson
# traffic through fdaload's default mix, and validate the report —
# nonzero completed work, zero unexpected errors — and then the
# replica's GET /metrics exposition (-check exits non-zero otherwise).
loadsmoke:
	@rm -rf .loadsmoke && mkdir -p .loadsmoke
	@$(GO) build -o .loadsmoke/ ./cmd/fdaserve ./cmd/fdaload
	@./.loadsmoke/fdaserve -store .loadsmoke/store -addr 127.0.0.1:18091 \
		-max-queue 256 >.loadsmoke/server.log 2>&1 & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do \
		curl -sf http://127.0.0.1:18091/v1/healthz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	./.loadsmoke/fdaload -addr http://127.0.0.1:18091 -rate 40 -duration 2s \
		-mix train=1,status=4,store=1 -steps 10 -k 1 -eval-every 10 \
		-out .loadsmoke/report.json -check
	@rm -rf .loadsmoke

# clustersmoke is the scale-out CI gate (DESIGN.md §14): three fdaserve
# replicas on one shared store behind fdagate, two seconds of Poisson
# traffic through the gateway, the fdaload report gated on zero
# unexpected errors with at most 25% shed load, and the gateway's
# GET /metrics exposition validated after the traffic.
clustersmoke:
	@rm -rf .clustersmoke && mkdir -p .clustersmoke
	@$(GO) build -o .clustersmoke/ ./cmd/fdaserve ./cmd/fdagate ./cmd/fdaload
	@pids=""; \
	trap 'kill $$pids 2>/dev/null' EXIT; \
	for i in 1 2 3; do \
		./.clustersmoke/fdaserve -store .clustersmoke/store -addr 127.0.0.1:1809$$i \
			-name r$$i -max-queue 64 >.clustersmoke/serve$$i.log 2>&1 & \
		pids="$$pids $$!"; \
	done; \
	./.clustersmoke/fdagate -addr 127.0.0.1:18090 \
		-replicas http://127.0.0.1:18091,http://127.0.0.1:18092,http://127.0.0.1:18093 \
		-poll 500ms >.clustersmoke/gate.log 2>&1 & \
	pids="$$pids $$!"; \
	for t in $$(seq 1 50); do \
		curl -sf http://127.0.0.1:18090/v1/healthz 2>/dev/null | grep -q '"status":"ok"' && break; sleep 0.2; \
	done; \
	./.clustersmoke/fdaload -addr http://127.0.0.1:18090 -rate 15 -duration 2s \
		-mix train=1,status=4,store=1 -steps 10 -k 1 -eval-every 10 \
		-out .clustersmoke/report.json -check -max-rejected 0.25
	@rm -rf .clustersmoke

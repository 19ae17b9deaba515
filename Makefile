GO ?= go

.PHONY: verify fmt build vet test race chaos fuzzsmoke benchtest benchdiff bench benchsmoke figures

# The CI gate: formatting, build, vet, the full test suite under the
# race detector (every gate test of the layout, packed-encoding,
# cluster, streaming, tracing and tileserver layers runs in it), the
# small-scale chaos run, the decoder fuzz smoke, the benchmark module's
# vet and tests, and the benchmark regression gate.
verify: fmt build vet race chaos fuzzsmoke benchtest benchdiff

# gofmt cleanliness: fails listing the offending files, fixes nothing.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 ./...

# Chaos gate: the fault-tolerance figure at small scale. dmbench exits
# nonzero if any query under injected read failures / bit flips panics
# or returns an answer that differs from the clean oracle store.
chaos:
	$(GO) run ./cmd/dmbench -fig faults -size 65 -size2 65

# Fuzz smoke: a few seconds of live fuzzing over each untrusted-input
# decoder — the trace wire, the packed record codec, the tile wire and
# the progressive stream. None may panic, all must reject corruption
# with their layer's sentinel, and every accepted input must re-encode
# to itself. Longer explorations just raise -fuzztime.
fuzzsmoke:
	$(GO) test -fuzz 'FuzzTraceWireDecode' -fuzztime 5s -run '^FuzzTraceWireDecode$$' ./internal/obs/
	$(GO) test -fuzz 'FuzzPackedRecordDecode' -fuzztime 5s -run '^FuzzPackedRecordDecode$$' ./internal/dm/
	$(GO) test -fuzz 'FuzzTilePatchDecode' -fuzztime 5s -run '^FuzzTilePatchDecode$$' ./internal/dm/
	$(GO) test -fuzz 'FuzzStreamDecode' -fuzztime 5s -run '^FuzzStreamDecode$$' ./internal/stream/

# The repository benchmark is its own module (perfbench/go.mod), so the
# root ./... never compiles it: vet it and run its tests, including the
# smoke run of every workload, against this checkout.
benchtest:
	cd perfbench && $(GO) vet ./... && $(GO) test -count=1 ./...

# Benchmark regression gate: regenerate the tracing figure at the gate
# scale (129-point grids keep it under CI budgets) into results/gate and
# diff it against the checked-in baselines under results/baselines.
# dmbenchdiff exits nonzero when a disk-access or byte metric drifts
# beyond tolerance; timing metrics are ignored (they measure the
# machine). The full-scale baselines for the other figures live in the
# same directory and are compared whenever their BENCH_*.json is
# regenerated into the gate directory at the baseline's scale.
benchdiff:
	$(GO) run ./cmd/dmbench -fig obstrace -size 129 -size2 129 -resultdir results/gate
	$(GO) run ./cmd/dmbenchdiff -baseline results/baselines -current results/gate

# The paper's metric: custom DA/... counters, not ns/op. Runs the unit
# suite first (a benchmark of broken code measures nothing); -run '^$$'
# keeps the tests out of the timed benchmark binary itself.
bench: test
	$(GO) test -bench=. -benchmem -run '^$$'

# One-iteration benchmark pass: proves every benchmark still runs
# without paying for statistically meaningful timings (the CI smoke).
benchsmoke:
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./...

# Full-scale figure reproduction (several minutes); output under results/.
figures:
	$(GO) run ./cmd/dmbench -fig all

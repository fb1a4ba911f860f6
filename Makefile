GO ?= go
FUZZTIME ?= 10s
FUZZ_TARGETS := \
	internal/bgp:FuzzMRTReader \
	internal/bgp:FuzzBinaryReader \
	internal/bgp:FuzzTextReader \
	internal/bgp:FuzzParsePath \
	internal/bgp:FuzzParseCommunity \
	internal/wal:FuzzWALReader \
	internal/server:FuzzParseKey \
	internal/server:FuzzStaleFrame \
	internal/feedwire:FuzzFrameReader \
	internal/events:FuzzTruthCodec \
	internal/anomaly:FuzzZScoreDegenerate \
	internal/anomaly:FuzzBitmapDetector

.PHONY: build test vet fmtcheck race bench fuzz crashtest clustertest chaostest feedtest scenariotest cachetest cmdtest benchtest verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fails listing every file gofmt would rewrite (benchmark/ included).
fmtcheck:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

# The race detector matters here: the engine's sharded close, Monitor, and
# Pipeline are concurrent, and the equivalence/concurrency tests only
# prove their locking under -race.
race:
	$(GO) test -race ./...

# The per-layer counts behind the ledger's ingest numbers, one command:
# ns, B and allocs per op for the engine (window close, public trace,
# registration), the two detectors, and the event tap.
bench:
	$(GO) test -run xxx -bench . -benchmem -benchtime 10x ./internal/core/
	$(GO) test -run xxx -bench 'Add|TapTrace' -benchmem ./internal/anomaly/ ./internal/events/

# Short fuzz pass over every entry point that consumes untrusted bytes:
# the BGP parsers (MRT, binary, and text codecs; path and community
# parsers), the WAL segment reader, the HTTP pair-key parser, and the
# router<->worker stale frame. Each
# pkg:Target entry gets FUZZTIME of coverage-guided input on top of its
# seed corpus. Go allows one -fuzz target per invocation, hence the loop.
fuzz:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; tgt=$${t##*:}; \
		echo "fuzz $$pkg $$tgt ($(FUZZTIME))"; \
		$(GO) test ./$$pkg -run '^$$' -fuzz "^$$tgt$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

# Crash-torture harness in short mode: seeded crash points across all
# three fsync policies, each proving the recovered daemon byte-identical
# to an uninterrupted run — single-node and one-worker-of-a-cluster both.
# The full sweeps run without -short.
crashtest:
	$(GO) test ./internal/wal -run 'TestCrashTorture|TestClusterCrashTorture' -short -count=1 -v

# Cluster acceptance under the race detector: the K∈{1,3} differential
# (router-merged keys/batch/stats/SSE byte-identical to one daemon), the
# router degradation paths (worker down mid-batch, wedged worker, SSE
# reconnect), and the kill-one-worker WAL recovery torture.
clustertest:
	$(GO) test -race -count=1 ./internal/cluster -run 'TestClusterDifferential|TestRouter|TestRing|TestBreaker' -v
	$(GO) test -race -count=1 ./internal/wal -run TestClusterCrashTorture -v

# Self-healing acceptance under the race detector: one cluster run absorbs
# a stream wire kill, a worker crash + restart, and an overload blast under
# continuous read load that must never fail while every partition keeps a
# live replica, then proves every surface byte-identical to a never-killed
# cluster — including after a both-replicas-down outage heals.
chaostest:
	$(GO) test -race -count=1 ./internal/cluster -run TestClusterChaos -v

# Networked-feed acceptance under the race detector: the wire
# differential (a daemon fed over TCP — including forced mid-window
# disconnects and a slow consumer tripping the drop policy — is
# byte-identical to in-process feeds) plus the frame codec's truncation
# and corruption suite.
feedtest:
	$(GO) test -race -count=1 ./internal/feedwire -run 'TestWireDifferential|TestFrameReader' -v

# Adversarial-scenario acceptance under the race detector: netsim pack
# determinism (byte-identical streams and ground-truth labels, with and
# without seeded duplicate delivery), the classifier edge-case tables (benign anycast
# MOAS vs hijack MOAS, self-healing leaks, blackholes), the ground-truth
# accuracy harness, and the event-surface differential (serial vs sharded
# vs 3-worker cluster byte-identical on /v1/events and SSE routing frames).
scenariotest:
	$(GO) test -race -count=1 ./internal/events -v
	$(GO) test -race -count=1 ./internal/netsim -run TestScenario -v
	$(GO) test -race -count=1 ./internal/experiments -run 'TestScenario|TestScoreEvents' -v
	$(GO) test -race -count=1 ./internal/cluster -run TestEventsDifferential -v

# Verdict-cache acceptance under the race detector: the cache's own tests
# (per-key invalidation, forward-only generation, flushes, the quiet-close
# allocation budget), the four-day differential that reads every key after
# every close and refresh against a fresh server, and readers racing a
# whole pipeline run.
cachetest:
	$(GO) test -race -count=1 ./internal/server -run 'Cache|Allocs|Batch' -v
	$(GO) test -race -count=1 ./internal/daemon -run TestVerdictCache -v

# The commands as processes, never from the test cache: rrrd and rrrfeedd
# (flag validation before anything is bound or created, the pinned flag
# set, a snapshot + WAL restart, wire-fed vs in-process-fed), rrrd-router and
# rrrbench, and one smoke invocation each of rrrbgp, rrrtrace, rrrsim, rrrmon
# and the three simulator examples.
cmdtest:
	$(GO) test -count=1 ./cmd/...

# The repo benchmark is a module of its own (benchmark/go.mod), so the root
# ./... patterns never enter it: vet and test it here so an internal rename
# that breaks it fails locally, not only in the external benchmark driver.
benchtest:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Tier-1 verification plus vet, gofmt, the race pass, the commands as
# processes, and the benchmark module. The server tests scrape GET /metrics
# (format, layer coverage, concurrent-scrape race-cleanliness).
verify: build vet fmtcheck test race cmdtest benchtest

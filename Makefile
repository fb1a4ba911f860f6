GO ?= go
FUZZTIME ?= 10s
FUZZ_TARGETS := \
	internal/bgp:FuzzMRTReader \
	internal/bgp:FuzzBinaryReader \
	internal/bgp:FuzzDecodeBinary \
	internal/bgp:FuzzTextReader \
	internal/bgp:FuzzParsePath \
	internal/bgp:FuzzParseCommunity \
	internal/bgp:FuzzRIBApply \
	internal/bgp:FuzzRIBDumpReader \
	internal/traceroute:FuzzParseText \
	internal/wal:FuzzWALReader \
	internal/server:FuzzParseKey \
	internal/server:FuzzStaleFrame \
	internal/server:FuzzDecodeStaleBatch \
	internal/server:FuzzRestoreSnapshot \
	internal/cluster:FuzzSSEReader \
	internal/feedwire:FuzzFrameReader \
	internal/anomaly:FuzzZScoreDegenerate \
	internal/anomaly:FuzzBitmapDetector \
	internal/anomaly:FuzzChooseWindowMin

.PHONY: build test vet fmtcheck race bench fuzz crashtest clustertest chaostest feedtest scenariotest cachetest closetest cmdtest benchtest verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fails listing every file gofmt would rewrite (benchmark/ included).
fmtcheck:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

# The race detector matters here: Monitor, Pipeline, the server and the
# cluster are concurrent, and the equivalence/concurrency tests only prove
# their locking under -race.
race:
	$(GO) test -race ./...

# The per-layer counts behind the ledger's ingest numbers, one command:
# ns, B and allocs per op for the engine (window close, public trace,
# registration, and per update the window fold of a watched and of an
# unwatched pair), the two detectors, the event tap, and the pipeline's
# own reader, hand-off queue and merge loop per record
# (BenchmarkPipelineHandoff: re-announcements into an untracked monitor);
# then the router path (BenchmarkRouterBatch: a routed 64-key batch on K=2
# and K=3 local clusters, with the worker sub-requests it cost).
bench:
	$(GO) test -run xxx -bench . -benchmem -benchtime 10x ./internal/core/
	$(GO) test -run xxx -bench 'Add|Tap' -benchmem ./internal/anomaly/ ./internal/events/
	$(GO) test -run xxx -bench PipelineHandoff -benchmem .
	$(GO) test -run xxx -bench RouterBatch -benchmem ./internal/cluster/

# Short fuzz pass over every entry point that consumes untrusted bytes:
# the BGP parsers (MRT, binary, and text codecs; path and community
# parsers), the WAL segment reader, the HTTP pair-key parser, the
# router<->worker stale frame, the POST /v1/stale key scanner against
# encoding/json, the snapshot file a restart restores (every trace
# re-registered), and the router's reader of a worker's SSE stream; plus
# the RIB, the bitmap detector and the window choice against their
# reference models. Each
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
# to an uninterrupted run — single-node and one-worker-of-a-cluster both;
# the cluster one compares the router-merged /v1/keys, full-corpus
# /v1/stale, /v1/stats and /v1/events with a never-crashed cluster's. The
# full sweeps run without -short. The restart differential then runs rrrd
# to EOF twice over one WAL and requires the same four surfaces
# byte-identical.
crashtest:
	$(GO) test ./internal/wal -run 'TestCrashTorture|TestClusterCrashTorture' -short -count=1 -v
	$(GO) test ./internal/daemon -run TestRestartDifferential -count=1 -v

# Cluster acceptance under the race detector: the K∈{1,3} differential at
# two scales (router-merged keys, full-corpus batch, stats, GET and POST
# /v1/events and the SSE stream up to the last window marker,
# byte-identical to one daemon; no frame dropped as late), the stream
# merger's own cases (window by marker, relayed worker drops), the router
# degradation paths (worker down mid-batch, wedged worker, SSE reconnect
# and its reset delay), and the kill-one-worker WAL recovery torture
# (merged keys/batch/stats/events against a never-crashed cluster).
clustertest:
	$(GO) test -race -count=1 ./internal/cluster -run 'TestClusterDifferential|TestMerger|TestRouter|TestRing|TestBreaker' -v
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
# disconnects and a stalled consumer pushing back on the server with
# no reconnect — emits the signals and serves the keys, full-corpus
# batch, stats and /v1/events of in-process feeds, byte for byte), the frame
# codec's truncation and corruption suite, the record codec's
# allocation budget (the race detector leaves its counts unchanged),
# the buffered server's flush before it waits on an idle stream, and
# Close releasing a Read blocked on an idle stream. Then the pipeline's
# own tests, three times over: the feed hand-off queue's record order,
# exactly-once reopen replay and 1 024-record bound under a slow tap
# (TestPipelineHandoffOrderAndBound), a record handed over before the
# next Read and a reader parked on a full queue leaving with a cancelled
# run (TestPipelineHandoffHandsOverAndLeaksNothing), run ingest held to a
# per-record serial loop (TestPipelineRunsMatchSerial), cancellation, feed
# errors and recovery.
feedtest:
	$(GO) test -race -count=1 ./internal/feedwire -run 'TestWireDifferential|TestFrameReader|TestRecordCodecAllocs|TestServerFlushesBeforeWaiting|TestConnectorCloseUnblocksRead' -v
	$(GO) test -race -count=3 . -run 'TestPipeline'

# Adversarial-scenario acceptance under the race detector: netsim pack
# determinism (byte-identical streams and ground-truth labels, with and
# without seeded duplicate delivery), the classifier edge-case tables (benign anycast
# MOAS vs hijack MOAS, self-healing leaks, blackholes), the ground-truth
# accuracy harness, and the event-surface differential (single daemon vs
# 3-worker cluster byte-identical on GET and POST /v1/events, the SSE
# routing frames and whole stream, keys, batch verdicts and stats).
scenariotest:
	$(GO) test -race -count=1 ./internal/events -v
	$(GO) test -race -count=1 ./internal/netsim -run TestScenario -v
	$(GO) test -race -count=1 ./internal/experiments -run 'TestScenario|TestScoreEvents|TestEventsPinned' -v
	$(GO) test -race -count=1 ./internal/cluster -run TestEventsDifferential -v

# Verdict-cache acceptance under the race detector: the cache's own tests
# (per-key invalidation, forward-only generation, flushes, the quiet-close
# allocation budget), the four-day differential that reads every key after
# every close and refresh against a fresh server, and readers racing a
# whole pipeline run; and /v1/stats read in a loop beside a writer that
# closes windows, every reading a state the writer passed through.
cachetest:
	$(GO) test -race -count=1 ./internal/server -run 'Cache|Allocs|Batch' -v
	$(GO) test -race -count=5 ./internal/server -run TestStatsDuringIngest -v
	$(GO) test -race -count=1 ./internal/daemon -run TestVerdictCache -v

# Window-close acceptance under the race detector: the pinned serial
# digests, clean and faulted, and a zero Config held to them; the pinned
# digest of monitors that sleep through quiet windows, the pinned digest of
# pairs sharing series across lineages, the fold cells' route cache, the series tables under re-registration churn,
# the quiet-close allocation budget; the window fold (window state for
# watched pairs only, a pair watched mid-window replaying the window's
# log, held to a plain map fold and to registrations made before the
# window: TestFoldMatchesMapModel), its bounds after a table-dump window
# (TestDumpWindowDoesNotPinFold) and its steady-storm allocation budget
# (TestUnwatchedStormAllocs); the public-trace intake (the subpath
# index held to the unfiltered loop, the pinned subpath key, the
# once-per-bucket window choice over out-of-order buffers, the per-trace
# allocation budget, and the hop table: a service answer flipped under a
# new generation, one service call per IP per generation, and the table
# held to the services asked by IP over a feed with IXP joins), the ingest
# budgets (RIB.Apply, BinaryReader.Read, Detector.TapUpdate, a window's
# first loop and cycle through Detector.TapTrace, and the whole ingest
# path), and
# the detectors and window choice (Settled, Clone and the flat fast path
# held to the reference bit for bit, ChooseWindowMin to the full scan); the
# active-signal records held to a model built from the signal stream
# through closes, revocation, re-registration, removal and a restore
# (TestActiveSignalsMatchModel); and the heap ratchets: per tracked pair
# (TestTrackHeapPerPair: the live heap tracking a simulated corpus keeps
# per pair) and per active signal (TestActiveSignalHeap: what a repeating
# signal's record holds), with the narrowed fields' bounds.
closetest:
	$(GO) test -race -count=1 ./internal/core -run 'TestShardedMatchesSerial|TestZeroConfigMatchesDefault|TestSleepingMonitorsMatchPinned|TestSharedSeriesLineage|TestCellRouteCache|TestReregisterDoesNotLeakCommMonitors|TestQuietCloseAllocs|TestSubpathIndexMatchesScan|TestSubpathKeyOf|TestRatioSeriesDecidesOncePerBucket|TestObserveTraceAllocs|TestHopTable|TestPackedObservationBounds|TestBorderIndexBound|TestActiveSignalsMatchModel|TestActiveSignalHeap|TestFoldMatchesMapModel|TestDumpWindowDoesNotPinFold|TestUnwatchedStormAllocs' -v
	$(GO) test -race -count=1 ./internal/corpus -run TestBorderCountBound -v
	$(GO) test -race -count=1 . -run TestTrackHeapPerPair -v
	$(GO) test -race -count=1 ./internal/bgp -run 'TestRIBApplyAllocs|TestBinaryReaderAllocs' -v
	$(GO) test -race -count=1 ./internal/events -run 'TestTapUpdateAllocs|TestTapTraceAllocs' -v
	$(GO) test -race -count=1 . -run TestIngestAllocs -v
	$(GO) test -race -count=1 ./internal/anomaly

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

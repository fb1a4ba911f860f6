// Command rrrd is the staleness query-serving daemon: it runs the full
// monitoring pipeline over live (simulated) BGP and traceroute feeds in
// the background while serving staleness queries, live signal streams, and
// refresh planning over HTTP.
//
//	rrrd -addr :8080                      # quick-scale feed, serve forever
//	rrrd -pace 100ms -v                   # real-time-ish pacing, log signals
//	rrrd -snapshot /tmp/rrr.snap          # snapshot on shutdown (and on demand)
//	rrrd -snapshot /tmp/rrr.snap -restore # restart from the snapshot
//	rrrd -wal-dir /tmp/rrr.wal            # crash-consistent: log every record
//	rrrd -wal-dir /tmp/rrr.wal -wal-fsync record   # strictest durability
//	rrrd -debug-addr :6060                # pprof + /metrics on a side listener
//	rrrd -scenario full                   # overlay adversarial episodes on the feeds
//
// Try it:
//
//	curl localhost:8080/v1/stats
//	curl localhost:8080/v1/keys?stale=1
//	curl localhost:8080/v1/stale/10.3.0.1-10.9.0.9
//	curl -N localhost:8080/v1/signals        # SSE stream (incl. event: routing)
//	curl localhost:8080/v1/events            # classified routing events so far
//	curl -d '{"classes":["hijack-origin"]}' localhost:8080/v1/events
//	curl -d '{"budget":20}' localhost:8080/v1/refresh/plan
//	curl localhost:8080/metrics              # Prometheus text exposition
//	curl localhost:8080/readyz               # 503 until WAL recovery completes
//
// Startup is serve-early (liveness at once, /readyz 503 until snapshot
// restore and WAL replay complete) and SIGINT/SIGTERM shuts down gracefully
// (drain, final window close, snapshot, WAL compaction, listener stop);
// internal/daemon holds the sequence and DESIGN.md "Daemon assembly" the
// reasons.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rrr"
	"rrr/internal/cluster"
	"rrr/internal/daemon"
	"rrr/internal/experiments"
	"rrr/internal/feedwire"
	"rrr/internal/netsim"
	"rrr/internal/obs"
	"rrr/internal/server"
	"rrr/internal/wal"
)

// options collects the daemon's flag-configured knobs. Flags that set a
// field of a config the daemon hands on bind to that field directly.
type options struct {
	addr         string
	scale        string
	days         int
	seed         int64
	restore      bool
	walFsync     string
	debugAddr    string
	verbose      bool
	feedPolicy   string
	workerID     int
	workers      int
	partitions   int
	scenario     string
	scenarioSeed int64

	d     daemon.Options           // -pace -snapshot -ring -max-inflight
	wal   wal.Options              // -wal-dir -wal-segment-bytes
	retry rrr.RetryPolicy          // -feed-retries -feed-backoff
	feed  feedwire.ConnectorConfig // -feed-addr -feed-buffer -feed-stall
}

// parseScenarioPack maps the -scenario flag to a netsim pack: empty or
// "off" disables, "full" enables everything, and a comma-separated kind
// list enables exactly those injections.
func parseScenarioPack(s string) (*netsim.ScenarioPack, error) {
	switch s {
	case "", "off":
		return nil, nil
	case "full":
		p := netsim.FullPack()
		return &p, nil
	}
	var p netsim.ScenarioPack
	kinds := map[string]*bool{
		"hijack-origin": &p.HijackOrigin, "hijack-moas": &p.HijackMOAS, "hijack-subprefix": &p.HijackSubprefix,
		"leaks": &p.RouteLeaks, "blackholes": &p.Blackholes, "artifacts": &p.Artifacts,
		"diurnal": &p.Diurnal, "anycast": &p.Anycast,
	}
	for _, kind := range strings.Split(s, ",") {
		on, ok := kinds[strings.TrimSpace(kind)]
		if !ok {
			return nil, fmt.Errorf("unknown -scenario kind %q", kind)
		}
		*on = true
	}
	return &p, nil
}

func main() {
	o := options{retry: daemon.DefaultRetry}
	flag.StringVar(&o.addr, "addr", ":8080", "HTTP listen address")
	flag.StringVar(&o.scale, "scale", "quick", "feed scale: quick or paper")
	flag.IntVar(&o.days, "days", 0, "virtual days of feed before EOF (0 keeps the scale default)")
	flag.Int64Var(&o.seed, "seed", 0, "simulation seed (0 keeps the scale default)")
	flag.DurationVar(&o.d.Pace, "pace", 0, "wall-clock delay per 15-min virtual window (0 = full speed)")
	flag.StringVar(&o.d.Server.SnapshotPath, "snapshot", "", "snapshot file path (written on shutdown and POST /v1/snapshot)")
	flag.BoolVar(&o.restore, "restore", false, "restore corpus and signals from -snapshot at startup")
	flag.StringVar(&o.wal.Dir, "wal-dir", "", "write-ahead log directory (empty disables the WAL)")
	flag.StringVar(&o.walFsync, "wal-fsync", "window", "WAL durability: record, window, or a sync interval like 2s")
	flag.Int64Var(&o.wal.SegmentBytes, "wal-segment-bytes", 8<<20, "WAL segment rotation size")
	flag.IntVar(&o.d.Server.RingSize, "ring", server.DefaultRingSize, "per-SSE-subscriber signal buffer")
	flag.IntVar(&o.d.Server.MaxInFlight, "max-inflight", server.DefaultMaxInFlight, "in-flight data-request bound; excess requests are shed with 503 + Retry-After")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "optional debug listen address serving /metrics and /debug/pprof/*")
	flag.IntVar(&o.retry.MaxRetries, "feed-retries", o.retry.MaxRetries, "reconnects per failure episode for -feed-addr before a feed is declared dead")
	flag.DurationVar(&o.retry.Backoff, "feed-backoff", o.retry.Backoff, "initial reconnect backoff after a -feed-addr failure (doubles per attempt, up to 5s)")
	flag.BoolVar(&o.verbose, "v", false, "log every signal")
	flag.StringVar(&o.feed.Addr, "feed-addr", "", "rrrfeedd address to ingest from over TCP (empty = in-process simulator feeds)")
	flag.IntVar(&o.feed.Buffer, "feed-buffer", feedwire.DefaultBuffer, "per-stream client record buffer for -feed-addr")
	flag.StringVar(&o.feedPolicy, "feed-policy", "block", "full-buffer policy for -feed-addr: block (TCP backpressure) or disconnect (drop + reconnect)")
	flag.DurationVar(&o.feed.StallTimeout, "feed-stall", 5*time.Second, "how long the disconnect policy tolerates a full buffer before dropping the connection")
	flag.IntVar(&o.workerID, "worker-id", -1, "cluster worker ID in [0, -workers); -1 runs single-node")
	flag.IntVar(&o.workers, "workers", 0, "cluster worker count (with -worker-id)")
	flag.IntVar(&o.partitions, "partitions", cluster.DefaultPartitions, "cluster hash-ring partition count (must match the router)")
	flag.StringVar(&o.scenario, "scenario", "", "adversarial scenario pack over the simulated feeds: off, full, or comma-separated kinds (hijack-origin,hijack-moas,hijack-subprefix,leaks,blackholes,artifacts,diurnal,anycast)")
	flag.Int64Var(&o.scenarioSeed, "scenario-seed", 0, "episode-schedule seed for -scenario (0 derives from the simulation seed)")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(o options) error {
	// Everything flags alone can get wrong is rejected here, before the
	// listener binds or the WAL directory is created.
	sc, err := experiments.ScaleByName(o.scale, o.days, o.seed)
	if err != nil {
		return err
	}
	pack, err := parseScenarioPack(o.scenario)
	if err != nil {
		return err
	}
	if pack != nil {
		if o.feed.Addr != "" {
			return errors.New("-scenario overlays the in-process simulator feeds; it cannot combine with -feed-addr (run the pack on the feed server side instead)")
		}
		sc.Scenario = pack
		sc.ScenarioSeed = o.scenarioSeed
		log.Printf("rrrd: scenario pack enabled (%s)", o.scenario)
	}
	if o.restore && o.d.Server.SnapshotPath == "" {
		return errors.New("-restore needs -snapshot")
	}
	if o.workerID >= 0 && o.workerID >= o.workers {
		return fmt.Errorf("-worker-id %d out of range for -workers %d", o.workerID, o.workers)
	}
	if o.wal.Fsync, o.wal.FsyncInterval, err = wal.ParseFsyncPolicy(o.walFsync); err != nil {
		return fmt.Errorf("-wal-fsync: %w", err)
	}

	dopts := o.d
	dopts.Server.Health = rrr.NewPipelineHealth()
	// Worker mode: agree on the partition placement with the router (and
	// every sibling worker) purely from flags — no coordination service.
	if o.workerID >= 0 {
		ring, err := cluster.NewRing(o.workers, o.partitions)
		if err != nil {
			return err
		}
		log.Printf("rrrd: worker %d/%d owns %d of %d partitions (+%d as standby, rf=%d)",
			o.workerID, o.workers, ring.OwnedPartitions(o.workerID), ring.Partitions(),
			ring.ReplicaPartitions(o.workerID)-ring.OwnedPartitions(o.workerID), ring.ReplicaFactor())
		dopts.Keep, dopts.Server.Worker = ring.Worker(o.workerID)
	}
	if o.wal.Dir != "" {
		w, err := wal.Open(o.wal)
		if err != nil {
			return err
		}
		defer w.Close()
		dopts.WAL = w
	}

	log.Printf("rrrd: building %s-scale environment (seed %d)", o.scale, sc.SimCfg.Seed)
	d, err := daemon.New(sc, dopts)
	if err != nil {
		return err
	}

	// Serve early: liveness comes up before recovery so orchestrators see
	// the process alive, while /readyz answers 503 until the monitor's
	// state is complete.
	lis, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: d.Srv.Handler()}
	httpDone := make(chan error, 1)
	go func() {
		log.Printf("rrrd: serving on %s (readiness gated on recovery)", lis.Addr())
		httpDone <- httpSrv.Serve(lis)
	}()

	if o.restore {
		info, err := d.Restore(dopts.Server.SnapshotPath)
		if err != nil {
			return err
		}
		log.Printf("rrrd: restored %d corpus entries, %d active signals from %s",
			info.Entries, info.Signals, dopts.Server.SnapshotPath)
	} else if tracked, discarded, foreign := d.Track(); dopts.Keep != nil {
		log.Printf("rrrd: tracking %d corpus pairs (%d traces discarded, %d owned elsewhere)", tracked, discarded, foreign)
	} else {
		log.Printf("rrrd: tracking %d corpus pairs (%d traces discarded)", tracked, discarded)
	}

	rep, compacted, err := d.Recover(nil)
	if err != nil {
		return fmt.Errorf("rrrd: %w", err)
	}
	if dopts.WAL != nil {
		log.Printf("rrrd: wal replayed %d records from %d segments (%d updates, %d traces, %d pre-snapshot skipped, %d windows closed, truncated tail: %v)",
			rep.Replay.Records, rep.Replay.Segments, rep.Stats.Updates, rep.Stats.Traces, rep.Stats.Skipped, rep.Stats.Windows, rep.Replay.TruncatedTail)
	}
	logCompaction(compacted, "restored")
	if rep.Resume.WindowStart != rrr.ResumeAll {
		log.Printf("rrrd: resuming ingest at window %d", rep.Resume.WindowStart)
	}

	// One writer: the pipeline goroutine. Its sink tees into the SSE hub
	// (never blocks) and, optionally, the log.
	var logSink func(rrr.Signal)
	if o.verbose {
		logSink = func(s rrr.Signal) { log.Printf("signal: %s", s) }
	}
	pipeCfg := d.Pipeline(logSink, o.retry)
	if o.feed.Addr != "" {
		// Networked feeds: every pipeline (re)open dials rrrfeedd fresh,
		// resuming window-aligned from the since the supervisor passes —
		// reconnect after a cut and resume after recovery are the same
		// code path.
		if o.feed.Policy, err = feedwire.ParsePolicy(o.feedPolicy); err != nil {
			return err
		}
		conn := feedwire.NewConnector(o.feed)
		defer conn.Close()
		log.Printf("rrrd: ingesting over the wire from %s (buffer %d, policy %s)", o.feed.Addr, o.feed.Buffer, o.feedPolicy)
		pipeCfg.Updates, pipeCfg.Traces = nil, nil
		pipeCfg.OpenUpdates = func(since int64) (rrr.UpdateSource, error) { return conn.OpenUpdates(since) }
		pipeCfg.OpenTraces = func(since int64) (rrr.TraceSource, error) { return conn.OpenTraces(since) }
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	pipeDone := make(chan struct{})
	go func() {
		defer close(pipeDone)
		// Degrade gracefully: transient feed failures retry with backoff,
		// and a feed that dies anyway stops silently while the other feed
		// and the query API keep running (per-feed health is in /v1/stats).
		// A finished feed keeps the daemon serving its final state.
		err := rrr.RunPipeline(ctx, d.Mon, pipeCfg)
		if err != nil && !errors.Is(err, context.Canceled) {
			log.Printf("rrrd: pipeline: %v", err)
		} else if ctx.Err() == nil {
			log.Printf("rrrd: feed exhausted after %d windows; still serving", d.Mon.WindowsClosed())
		}
	}()

	// Optional debug listener: pprof (which net/http/pprof registers on the
	// default mux) plus a second /metrics. Kept off the main mux so
	// profiling endpoints are never exposed on the query port.
	if o.debugAddr != "" {
		http.Handle("GET /metrics", obs.Default.Handler())
		go func() {
			log.Printf("rrrd: debug endpoints on %s (/metrics, /debug/pprof/)", o.debugAddr)
			if err := http.ListenAndServe(o.debugAddr, nil); err != nil {
				log.Printf("rrrd: debug listener: %v", err)
			}
		}()
	}

	// Run until a signal arrives or the HTTP listener fails; either way the
	// pipeline drains and closes its final window before anything else.
	select {
	case <-ctx.Done():
		log.Printf("rrrd: shutting down")
		<-pipeDone
	case err := <-httpDone:
		stop()
		<-pipeDone
		return err
	}
	if path := dopts.Server.SnapshotPath; path != "" {
		info, compacted, err := d.Snapshot(path)
		if err != nil {
			log.Printf("rrrd: snapshot: %v", err)
		} else {
			log.Printf("rrrd: snapshot: %d entries, %d signals, %d bytes -> %s",
				info.Entries, info.Signals, info.Bytes, path)
			logCompaction(compacted, "shutdown")
		}
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return httpSrv.Shutdown(shutCtx)
}

// logCompaction reports WAL segments dropped behind the named snapshot.
func logCompaction(c daemon.Compaction, which string) {
	if c.Err != nil {
		log.Printf("rrrd: wal compact: %v", c.Err)
	} else if c.Segments > 0 {
		log.Printf("rrrd: wal compacted %d segments behind the %s snapshot", c.Segments, which)
	}
}

// Package daemon assembles the program cmd/rrrd runs, once: the binary, the
// in-process cluster and the crash/wire harnesses all construct through it,
// so a worker under test is the worker that ships. The steps run in one
// order — New, Track or Restore, Recover, Pipeline, Snapshot — and DESIGN.md
// ("Daemon assembly") says why each rule holds.
package daemon

import (
	"fmt"
	"time"

	"rrr"
	"rrr/internal/events"
	"rrr/internal/experiments"
	"rrr/internal/server"
	"rrr/internal/wal"
)

// DefaultRetry is rrrd's feed retry policy at default flags: transient
// failures retry with backoff, and a feed that dies anyway stops while the
// other feed and the query API keep running.
var DefaultRetry = rrr.RetryPolicy{
	MaxRetries:         5,
	Backoff:            500 * time.Millisecond,
	ContinueOnDeadFeed: true,
}

// Options carries what differs between the daemon's callers.
type Options struct {
	// Pace is the wall-clock delay per virtual feed window (0 = full speed).
	Pace time.Duration
	// Keep, when set, selects the corpus pairs Track registers (a cluster
	// worker's ring slice).
	Keep func(rrr.Key) bool
	// Server configures the serving layer. New fills in Events and
	// WALStatus; Health, when set, is also the registry the pipeline
	// reports into.
	Server server.Config
	// WAL, when set, is replayed by Recover, teed to by the pipeline, and
	// compacted behind every snapshot. The caller opens and closes it.
	WAL *wal.WAL
}

// Daemon is one assembled rrrd.
type Daemon struct {
	Env *experiments.DaemonEnv
	Mon *rrr.Monitor
	Det *events.Detector
	Srv *server.Server

	o         Options
	watermark int64            // of the restored snapshot, for Recover's compaction
	resume    *rrr.ResumeState // where Pipeline continues; set by Recover
}

// New builds the daemon over a fresh deterministic environment at scale sc.
// The server answers /readyz with 503 until Recover has run.
func New(sc experiments.Scale, o Options) (*Daemon, error) {
	env := experiments.NewDaemonEnv(sc, o.Pace)
	cfg := rrr.DefaultConfig()
	cfg.WindowSec = sc.WindowSec
	mon, err := rrr.NewMonitor(rrr.Options{
		Config:     cfg,
		Mapper:     env.Mapper,
		Aliases:    env.Aliases,
		Geo:        env.Geo,
		Rel:        env.Rel,
		IXPMembers: env.IXPMembers,
	})
	if err != nil {
		return nil, err
	}
	// Prime before tracking so registrations see the RIB. The detector
	// learns its baselines from the same dump; every worker sees the full
	// feed, so detectors are identical whatever Keep selects.
	det := events.NewDetector(events.Config{})
	for _, u := range env.Dump {
		mon.ObserveBGP(u)
		det.Prime(u)
	}
	o.Server.Events = det
	if o.WAL != nil {
		o.Server.WALStatus = o.WAL.Status
	}
	// The detector's sink is the server's hub, so it is set once that exists.
	srv := server.New(mon, o.Server)
	det.SetSink(srv.PublishEvent)
	srv.SetReady(false)
	return &Daemon{Env: env, Mon: mon, Det: det, Srv: srv, o: o, watermark: rrr.ResumeAll}, nil
}

// Track registers the environment's corpus, returning how many pairs are
// tracked, how many traces the monitor discarded (AS loops, Appendix A),
// and how many Keep left to another worker.
func (d *Daemon) Track() (tracked, discarded, foreign int) {
	for _, tr := range d.Env.Corpus {
		switch {
		case d.o.Keep != nil && !d.o.Keep(tr.Key()):
			foreign++
		case d.Mon.Track(tr) != nil:
			discarded++
		default:
			tracked++
		}
	}
	return tracked, discarded, foreign
}

// Restore loads the snapshot at path in place of Track: corpus, active
// signals, window clock and cumulative counters, not detector state.
func (d *Daemon) Restore(path string) (server.SnapshotInfo, error) {
	info, err := server.RestoreSnapshot(path, d.Mon)
	if err == nil {
		d.watermark = info.Watermark
	}
	return info, err
}

// Replayed is the outcome of a startup recovery.
type Replayed struct {
	// Resume is where the pipeline continues: the monitor's open window
	// (rrr.ResumeAll if it never opened one) plus the records of that
	// window the replay already ingested.
	Resume *rrr.ResumeState
	// Replay and Stats describe the WAL replay; zero without a WAL.
	Replay wal.ReplayInfo
	Stats  rrr.RecoveryStats
}

// Recover replays w (when non-nil) into mon through hooks — the Sink, Tap
// and OnWindowClose of the pipeline that wrote the log — and returns the
// resume state read from mon's window clock, so a snapshot-restored monitor
// resumes at the snapshot's watermark even with no log to replay.
func Recover(mon *rrr.Monitor, w *wal.WAL, hooks rrr.PipelineConfig) (Replayed, error) {
	rec := rrr.NewPipelineRecovery(mon, hooks)
	var out Replayed
	if w != nil {
		info, err := w.Replay(func(r wal.Record) error {
			switch {
			case r.Update != nil:
				rec.ObserveUpdate(*r.Update)
			case r.Trace != nil:
				rec.ObserveTrace(r.Trace)
			}
			return nil
		})
		if err != nil {
			return out, fmt.Errorf("wal recovery: %w", err)
		}
		out.Replay = info
	}
	out.Resume, out.Stats = rec.Finish()
	return out, nil
}

// Compaction reports WAL segments dropped behind a snapshot watermark. A
// failure only leaves the log longer than it needs to be, so it is reported
// here rather than as the operation's error.
type Compaction struct {
	Segments int
	Err      error
}

func (d *Daemon) compact(watermark int64) (c Compaction) {
	if d.o.WAL != nil && watermark != rrr.ResumeAll {
		c.Segments, c.Err = d.o.WAL.Compact(watermark)
	}
	return c
}

// Recover completes startup, WAL or not: replayed windows reach the same
// hooks the pipeline feeds (signals to the SSE hub and sink, the event
// detector, window markers), segments a restored snapshot covers are
// compacted away, the pipeline's resume point is recorded, and only then
// does /readyz turn 200.
func (d *Daemon) Recover(sink func(rrr.Signal)) (Replayed, Compaction, error) {
	rep, err := Recover(d.Mon, d.o.WAL, d.hooks(sink))
	if err != nil {
		return rep, Compaction{}, err
	}
	c := d.compact(d.watermark)
	d.resume = rep.Resume
	d.Srv.SetReady(true)
	return rep, c, nil
}

// ResumeFeeds aligns sources that regenerate from their beginning (the
// simulated feeds) with a resume point: records before the open window are
// dropped, and the pipeline's positional replay matching skips the open
// window's already-ingested prefix as it is re-delivered.
func ResumeFeeds(u rrr.UpdateSource, t rrr.TraceSource, resume *rrr.ResumeState) (rrr.UpdateSource, rrr.TraceSource) {
	if resume == nil || resume.WindowStart == rrr.ResumeAll {
		return u, t
	}
	return rrr.SkipUpdatesBefore(u, resume.WindowStart), rrr.SkipTracesBefore(t, resume.WindowStart)
}

// hooks is what every ingested record and window close reaches, live or
// replayed: the SSE hub (and sink, when non-nil), the event detector, and
// the hub's window markers. Recover and Pipeline both start from it.
func (d *Daemon) hooks(sink func(rrr.Signal)) rrr.PipelineConfig {
	return rrr.PipelineConfig{
		Sink:          rrr.Tee(d.Srv.Publish, sink),
		Tap:           d.Det,
		OnWindowClose: d.Srv.PublishWindowClose,
	}
}

// Pipeline returns the RunPipeline configuration every rrrd runs, over the
// environment's simulated feeds resumed where Recover left off. A caller
// ingesting from elsewhere replaces Updates/Traces with its own sources or
// Open factories.
func (d *Daemon) Pipeline(sink func(rrr.Signal), retry rrr.RetryPolicy) rrr.PipelineConfig {
	cfg := d.hooks(sink)
	cfg.Retry = retry
	cfg.DedupAdjacent = true
	cfg.Health = d.o.Server.Health
	cfg.Resume = d.resume
	if d.o.WAL != nil {
		cfg.WAL = d.o.WAL
	}
	cfg.Updates, cfg.Traces = ResumeFeeds(d.Env.Updates, d.Env.Traces, d.resume)
	return cfg
}

// Snapshot writes the monitor's restart snapshot to path and then compacts
// the WAL behind its watermark — in that order, so the log never loses
// records no durable snapshot covers.
func (d *Daemon) Snapshot(path string) (server.SnapshotInfo, Compaction, error) {
	info, err := server.WriteSnapshot(path, d.Mon)
	if err != nil {
		return info, Compaction{}, err
	}
	return info, d.compact(info.Watermark), nil
}

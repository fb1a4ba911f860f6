package rrr

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"rrr/internal/bgp"
	"rrr/internal/obs"
)

// errPipelineCancelled is the internal sentinel the fill helpers return
// when ctx fires while they are blocked on an empty feed queue; the merge
// loop maps it back to ctx.Err() after draining.
var errPipelineCancelled = errors.New("rrr: pipeline cancelled")

// UpdateSource produces BGP updates in time order (io.EOF ends the feed).
// bgp.Merger, the MRT/binary/text readers, and simulator feeds implement it.
type UpdateSource = bgp.UpdateSource

// TraceSource produces public traceroutes in time order (io.EOF ends the
// feed).
type TraceSource interface {
	Read() (*Traceroute, error)
}

// TraceSliceSource serves traceroutes from memory.
type TraceSliceSource struct {
	traces []*Traceroute
	i      int
}

// NewTraceSliceSource wraps a slice.
func NewTraceSliceSource(ts []*Traceroute) *TraceSliceSource {
	return &TraceSliceSource{traces: ts}
}

// Read implements TraceSource.
func (s *TraceSliceSource) Read() (*Traceroute, error) {
	if s.i >= len(s.traces) {
		return nil, io.EOF
	}
	t := s.traces[s.i]
	s.i++
	return t, nil
}

// Tee fans one pipeline Sink out to several consumers: each signal is
// delivered to every non-nil sink in order, on the pipeline goroutine.
// Sinks that must not stall ingestion (an SSE fan-out, a logger) should
// hand off internally; see internal/server's Stream. Nil sinks are
// dropped; with none left Tee returns nil, which RunPipeline treats as
// "discard".
func Tee(sinks ...func(Signal)) func(Signal) {
	live := make([]func(Signal), 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(s Signal) {
		for _, sink := range live {
			sink(s)
		}
	}
}

// pipelineInFlight bounds each feed's decoded records between its Read and
// the merge loop, so decoding overlaps monitor work without letting a fast
// feed run away from a slow consumer. The reader blocks while handoffCap
// records are queued, and the merge loop holds at most one taken batch of
// as many (backpressure: a full queue blocks the reader goroutine).
const (
	pipelineInFlight = 1024
	handoffCap       = pipelineInFlight / 2
)

// ResumeAll is the since value passed to an Open factory when the pipeline
// has not yet ingested anything: deliver the feed from its beginning.
const ResumeAll = math.MinInt64

// IsTransientError reports whether err is worth a reopen: anything in its
// chain implementing Temporary() bool and returning true. net.Error values,
// feedwire's connection failures and faultfeed's injected breaks satisfy
// it; io.EOF and decode errors do not.
func IsTransientError(err error) bool {
	var t interface{ Temporary() bool }
	return errors.As(err, &t) && t.Temporary()
}

// maxBackoff caps the doubling reopen delay.
const maxBackoff = 5 * time.Second

// RetryPolicy bounds how hard the pipeline fights for a failing feed.
// The zero value never retries: the first feed error is terminal.
type RetryPolicy struct {
	// MaxRetries is the reopen budget per failure episode: a feed with an
	// Open factory that fails with a transient error (IsTransientError) is
	// reopened and resumed window-aligned, at most MaxRetries times in a
	// row. The budget resets once the reopened feed's replay of the open
	// window ends, matched or diverged. A feed without a factory cannot be
	// resumed, so any error ends it, as does a permanent error.
	MaxRetries int
	// Backoff is the first reopen's delay (default 100ms), doubling per
	// attempt up to 5s. Context cancellation always preempts a backoff
	// sleep.
	Backoff time.Duration
	// ContinueOnDeadFeed keeps the run alive when a feed is declared
	// dead: the other feed continues, windows keep closing, and the
	// dead feed's error is returned (wrapped) only when the run ends.
	// This is rrrd's graceful-degradation mode.
	ContinueOnDeadFeed bool
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Backoff <= 0 {
		p.Backoff = 100 * time.Millisecond
	}
	return p
}

// backoffFor returns the exponential delay for the attempt-th retry
// (1-based).
func (p RetryPolicy) backoffFor(attempt int) time.Duration {
	d := p.Backoff
	for i := 1; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	return min(d, maxBackoff)
}

// PipelineConfig configures a RunPipeline run. Updates/Traces are the
// initial sources; either may be nil. OpenUpdates/OpenTraces, when set,
// let the supervisor reopen a feed after a transient failure, resuming
// from the last completed window (the argument is the open window's start
// time, or ResumeAll before the first record): the reopened feed re-covers
// the open window and the pipeline skips the records it already ingested,
// so signals are neither duplicated nor dropped. When only a factory is
// given the initial source is opened lazily with ResumeAll. Both feeds
// must deliver their records in time order; the pipeline does not reorder.
type PipelineConfig struct {
	Updates     UpdateSource
	OpenUpdates func(since int64) (UpdateSource, error)

	Traces     TraceSource
	OpenTraces func(since int64) (TraceSource, error)

	Sink func(Signal)

	Retry RetryPolicy

	// DedupAdjacent drops a record byte-identical to its immediate
	// predecessor: transport-level at-least-once redelivery. Distinct
	// from protocol-level BGP duplicates, which arrive with their own
	// timestamps and must reach the burst detector.
	DedupAdjacent bool

	// Health, when set, receives per-feed supervisor state for the
	// serving layer; nil disables reporting.
	Health *PipelineHealth

	// WAL, when set, receives every ingested record (after replay
	// skipping, before the Monitor observes it) plus window-close
	// notifications. An append or window-sync failure is fatal to the
	// run — continuing would let the monitor advance past records the
	// log lost, breaking crash recovery's exactly-once guarantee.
	WAL RecordLog

	// Resume, when set, continues a run that a recovery replay (see
	// Recovery) reconstructed: the window clock starts at
	// Resume.WindowStart, the initial feed opens use it as their since
	// point, and Resume's open-window records seed the positional replay
	// lists so the reopened feeds' re-delivery of them is skipped.
	Resume *ResumeState

	// OnWindowClose, when set, is invoked once per closed window, after
	// the window's signals have reached Sink and the WAL has recorded the
	// close. Sinks that stream signals (the SSE hub) use it to emit
	// window markers so downstream consumers can tell "no signals yet"
	// from "window done, none emitted".
	OnWindowClose func(windowStart int64)

	// Tap, when set, observes every ingested record and window close, like
	// a second WAL tee, in the order RecordTap describes.
	Tap RecordTap
}

// RecordTap observes the ingested record stream. All methods are invoked
// on one goroutine in ingestion order, so implementations see the exact
// sequence the monitor does — identical in a single daemon, every cluster
// worker, and a WAL replay into an empty monitor (NewPipelineRecovery;
// after a snapshot restore the replay taps only the records from the
// watermark on). A record is tapped after the window clock has advanced
// (the closes it triggers come first) and before the monitor ingests it.
// Updates are ingested a run at a time (see RunPipeline), and the tap stage
// comes before the monitor stage of each run: every update of a run is
// tapped before the monitor observes any of them. A close is tapped after
// the window's signals reach Sink and before OnWindowClose, so a tap that
// publishes per-window output (the event detector) emits it between the
// signals and the window marker.
type RecordTap interface {
	TapUpdate(bgp.Update)
	TapTrace(*Traceroute)
	TapWindowClose(windowStart int64)
}

// feed is the merge loop's per-feed supervisor state.
type feed[T any] struct {
	name    string
	errWrap string
	// q is the running reader's hand-off queue (nil: no reader, the feed
	// ended or is dead).
	q *handoff[T]
	// open is the normalized reopen factory (nil: any error ends the feed).
	open func(int64) (func() (T, error), error)

	// batch is the records the merge loop took from q in one step; it
	// walks them from next on without synchronisation, and hands the
	// walked buffer back to q as the reader's next one.
	batch []T
	next  int

	// replay is the open window's records as ingested before a reopen;
	// the reopened stream is matched against them (from replayIdx) so each
	// record is observed exactly once.
	replay    []T
	replayIdx int

	reopens int
	deadErr error

	equal func(T, T) bool

	met   *feedMetrics
	queue *obs.Gauge
	errs  *obs.Counter
}

// head is the feed's next record in merge order, or nil once its batch is
// walked to the end.
func (f *feed[T]) head() *T {
	if f.next == len(f.batch) {
		return nil
	}
	return &f.batch[f.next]
}

// handoff is one feed's bounded queue from its reader goroutine to the
// merge loop. The reader appends each record as it decodes it, so a record
// is visible to the merge loop at once, even while the next Read blocks on
// an idle live feed; the merge loop swaps out everything queued in one
// locked step. ready and space are 1-slot wake-ups, sent after the state
// change they announce, so a waiter that re-checks under mu never misses
// one and can select on a stop channel beside them.
type handoff[T any] struct {
	mu   sync.Mutex
	recs []T
	// end is the reader's terminal error (io.EOF at a clean end), reported
	// to the merge loop only once recs is empty.
	end error

	ready chan struct{} // recs became non-empty, or end was set
	space chan struct{} // the merge loop took recs
}

func newHandoff[T any]() *handoff[T] {
	return &handoff[T]{
		recs:  make([]T, 0, handoffCap),
		ready: make(chan struct{}, 1),
		space: make(chan struct{}, 1),
	}
}

// wake posts a wake-up on ch unless one is already pending.
func wake(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// put queues rec, blocking while handoffCap records wait. It reports false
// once stop has fired, so a reader that outlives its run stops at its next
// record.
func (q *handoff[T]) put(rec T, stop <-chan struct{}) bool {
	select {
	case <-stop:
		return false
	default:
	}
	q.mu.Lock()
	for len(q.recs) >= handoffCap {
		q.mu.Unlock()
		select {
		case <-q.space:
		case <-stop:
			return false
		}
		q.mu.Lock()
	}
	q.recs = append(q.recs, rec)
	first := len(q.recs) == 1
	q.mu.Unlock()
	if first {
		wake(q.ready)
	}
	return true
}

// finish records the reader's terminal error.
func (q *handoff[T]) finish(err error) {
	q.mu.Lock()
	q.end = err
	q.mu.Unlock()
	wake(q.ready)
}

// take returns every queued record, giving the reader spare (the merge
// loop's walked batch) to queue into next. While the queue is empty it
// blocks, timing the wait into metPipeStall; once it is empty for good it
// returns the reader's terminal error, or errPipelineCancelled when done
// fires first.
func (q *handoff[T]) take(spare []T, done <-chan struct{}) ([]T, error) {
	q.mu.Lock()
	if len(q.recs) == 0 && q.end == nil {
		// The merge loop is stalling on the decoder. Timing only this
		// path keeps time.Now off the fast path.
		stall := time.Now()
		for len(q.recs) == 0 && q.end == nil {
			q.mu.Unlock()
			select {
			case <-q.ready:
			case <-done:
				metPipeStall.Observe(time.Since(stall).Seconds())
				return nil, errPipelineCancelled
			}
			q.mu.Lock()
		}
		metPipeStall.Observe(time.Since(stall).Seconds())
	}
	batch := q.recs
	if len(batch) == 0 {
		err := q.end
		q.mu.Unlock()
		return nil, err
	}
	q.recs = spare[:0]
	q.mu.Unlock()
	wake(q.space)
	return batch, nil
}

// pipeShared is the state shared between the merge loop and the reader
// goroutines.
type pipeShared struct {
	stop   chan struct{}
	done   <-chan struct{}
	retry  RetryPolicy
	dedup  bool
	health *PipelineHealth
}

// sleepOrStop sleeps d unless ch fires first; it reports whether the sleep
// completed. The merge loop backs off on ctx.Done(), so cancellation
// always wins over backoff.
func sleepOrStop(ch <-chan struct{}, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ch:
		return false
	}
}

// dedupReader drops records byte-identical to their immediate predecessor
// (transport-level at-least-once redelivery).
func dedupReader[T any](read func() (T, error), f *feed[T]) func() (T, error) {
	var last T
	have := false
	return func() (T, error) {
		for {
			rec, err := read()
			if err != nil {
				return rec, err
			}
			if have && f.equal(rec, last) {
				f.met.dups.Inc()
				continue
			}
			last, have = rec, true
			return rec, nil
		}
	}
}

// spawnFeed starts the reader goroutine for f consuming read, with adjacent
// dedup applied when configured. The reader ends at the source's first
// error: io.EOF ends the feed cleanly, and any other error goes to the
// merge loop, whose supervisor reopens the feed or declares it dead.
func spawnFeed[T any](rc *pipeShared, f *feed[T], read func() (T, error)) {
	q := newHandoff[T]()
	f.q = q
	if f.batch == nil {
		f.batch = make([]T, 0, handoffCap)
	}
	f.met.up.Set(1)
	rc.health.setStatus(f.name, FeedRunning, nil)
	go func() {
		if rc.dedup {
			read = dedupReader(read, f)
		}
		for {
			rec, err := read()
			if err != nil {
				if err == io.EOF {
					f.met.up.Set(0)
					rc.health.setStatus(f.name, FeedEOF, nil)
				}
				q.finish(err)
				return
			}
			if !q.put(rec, rc.stop) {
				return
			}
		}
	}()
}

// fill takes f's next batch once the merge loop has walked the last one. It
// returns errPipelineCancelled when ctx fires, or the feed's raw error for
// the supervisor to classify.
func fill[T any](rc *pipeShared, f *feed[T]) error {
	if f.q == nil || f.next < len(f.batch) {
		return nil
	}
	batch, err := f.q.take(f.batch, rc.done)
	if err == errPipelineCancelled {
		return err
	}
	if err != nil {
		f.q = nil
		f.queue.Set(0)
		if err == io.EOF {
			return nil
		}
		f.errs.Inc()
		return err
	}
	f.batch, f.next = batch, 0
	f.queue.Set(int64(len(batch)))
	return nil
}

// handleFeedErr decides a failing feed's fate: reopen window-aligned when
// the error is transient and a factory and budget remain, otherwise declare
// it dead. win is the feed's records already ingested in the open window
// starting at resume. It reports whether the run continues; a false return
// carries the fatal error.
func handleFeedErr[T any](rc *pipeShared, f *feed[T], ferr error, resume int64, win []T) (bool, error) {
	for f.open != nil && IsTransientError(ferr) && f.reopens < rc.retry.MaxRetries {
		f.reopens++
		f.met.retries.Inc()
		rc.health.noteRetry(f.name, ferr)
		if !sleepOrStop(rc.done, rc.retry.backoffFor(f.reopens)) {
			return false, errPipelineCancelled
		}
		read, oerr := f.open(resume)
		if oerr != nil {
			ferr = oerr
			continue
		}
		// Resume from the last completed window: the reopened stream
		// re-covers the open window, and the records already ingested
		// (win) are skipped as they re-arrive.
		if len(win) == 0 {
			f.replay = nil
			f.reopens = 0
			f.met.absorbed.Inc()
			rc.health.noteAbsorbed(f.name)
		} else {
			f.replay = append(f.replay[:0:0], win...)
			f.replayIdx = 0
		}
		// Before the reader starts: a short reopened stream can reach EOF
		// at once, and a resume note landing after that would put the
		// feed's status back to running for good.
		rc.health.noteResume(f.name, resume)
		spawnFeed(rc, f, read)
		return true, nil
	}
	f.met.dead.Inc()
	f.met.up.Set(0)
	f.deadErr = fmt.Errorf("rrr: %s: %w", f.errWrap, ferr)
	rc.health.setStatus(f.name, FeedDead, ferr)
	if rc.retry.ContinueOnDeadFeed {
		return true, nil
	}
	return false, f.deadErr
}

// opener adapts an Open factory to the feed's reader form (nil stays nil).
func opener[T any, S interface{ Read() (T, error) }](open func(int64) (S, error)) func(int64) (func() (T, error), error) {
	if open == nil {
		return nil
	}
	return func(since int64) (func() (T, error), error) {
		src, err := open(since)
		if err != nil {
			return nil, err
		}
		return src.Read, nil
	}
}

// startFeed starts f's reader on src, or without one opens f through its
// factory at since; an open failure goes to the supervisor, like a later
// one would (win is the open window's records, seeded by a resume).
func startFeed[T any](rc *pipeShared, f *feed[T], src interface{ Read() (T, error) }, since int64, win []T) error {
	switch {
	case src != nil:
		spawnFeed(rc, f, src.Read)
	case f.open != nil:
		read, err := f.open(since)
		if err != nil {
			_, err = handleFeedErr(rc, f, err, since, win)
			return err
		}
		spawnFeed(rc, f, read)
	}
	return nil
}

// pull refills f's batch once it is walked, handing a feed failure to the
// supervisor. It reports whether the merge loop starts over (f was
// reopened, or died under ContinueOnDeadFeed), or the error that ends the
// run.
func pull[T any](rc *pipeShared, f *feed[T], resume int64, win []T) (bool, error) {
	err := fill(rc, f)
	if err == nil || err == errPipelineCancelled {
		return false, err
	}
	return handleFeedErr(rc, f, err, resume, win)
}

// consumeReplay reports whether rec is a replayed copy of an
// already-ingested record and should be skipped. Replay matching is
// positional: the reopened stream must re-deliver the open window's
// records verbatim and in order; on the first mismatch matching stops and
// everything from there on is ingested (divergence is counted, not fatal).
// Either way the replay's end closes the failure episode and refunds the
// reopen budget; only a full match counts as absorbed.
func (f *feed[T]) consumeReplay(rc *pipeShared, rec *T) bool {
	if f.replay == nil {
		return false
	}
	if f.equal(*rec, f.replay[f.replayIdx]) {
		f.replayIdx++
		f.met.replayed.Inc()
		rc.health.noteReplayed(f.name)
		if f.replayIdx == len(f.replay) {
			f.replay = nil
			f.reopens = 0
			f.met.absorbed.Inc()
			rc.health.noteAbsorbed(f.name)
		}
		return true
	}
	f.replay = nil
	f.reopens = 0
	rc.health.noteDiverged(f.name)
	return false
}

func updateEqual(a, b Update) bool {
	return a.Time == b.Time && a.PeerIP == b.PeerIP && a.PeerAS == b.PeerAS &&
		a.Type == b.Type && a.Prefix == b.Prefix && a.MED == b.MED &&
		a.ASPath.Equal(b.ASPath) && a.Communities.Equal(b.Communities)
}

func traceEqual(a, b *Traceroute) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.MsmID != b.MsmID || a.ProbeID != b.ProbeID || a.Time != b.Time ||
		a.Src != b.Src || a.Dst != b.Dst || a.Reached != b.Reached ||
		len(a.Hops) != len(b.Hops) {
		return false
	}
	for i := range a.Hops {
		if a.Hops[i] != b.Hops[i] {
			return false
		}
	}
	return true
}

// RunPipeline drives a Monitor from a BGP feed and a public-traceroute
// feed: the two time-ordered streams are interleaved by timestamp, windows
// close automatically at each WindowSec boundary, and every staleness
// prediction signal is delivered to Sink as it is generated. RunPipeline
// returns when both feeds are exhausted (closing the final window), when
// ctx is cancelled, or when a feed failure is not recoverable under the
// configured RetryPolicy; in every case the currently-open window is
// closed on the way out, so buffered observations always produce their
// signals.
//
// Each source is decoded on its own goroutine feeding a bounded hand-off
// queue, which the merge loop empties a batch at a time, so MRT parsing and
// archive I/O overlap signal processing while backpressure keeps memory
// bounded. Items are still consumed in merged time order, so the Monitor
// sees exactly the stream a serial loop would produce. BGP updates go in a
// run at a time: the longest stretch of a batch that stays in the open
// window and comes before the next traceroute (updates first on ties).
// A run crosses no window close and no traceroute, so each stage takes the
// whole run in one loop — log, tap, then the Monitor under one lock — and
// every hook still sees the serial order.
//
// Failure handling is per feed, and reopen-and-replay is its one recovery:
// a transient error (IsTransientError) on a feed with an Open factory
// consumes one unit of retry budget, and after an exponential backoff the
// supervisor reopens the feed at the open window's start time and skips
// the records it already ingested as they re-arrive, so recovery neither
// duplicates nor drops signals. Context cancellation preempts any backoff
// sleep. A feed that cannot be reopened, fails permanently or exhausts its
// budget is declared dead: fatal by default, or — with ContinueOnDeadFeed —
// the run degrades to the surviving feed and the dead feed's error is
// reported only at the end (and via Health/metrics immediately).
//
// Cancellation is honored even while both reader goroutines are blocked
// inside Read (a live feed waiting for its next item): the merge loop
// selects on ctx alongside the feed queues' wake-ups, and the open window's
// close on the way out means a daemon's graceful shutdown (cancel → drain →
// final window close → snapshot) loses nothing already observed.
//
// With a RecordLog (PipelineConfig.WAL) every ingested record is teed to
// the log before the Monitor observes any record of its run, and every
// window close is reported to the log, making the run crash-recoverable:
// Recovery replays the log into a fresh Monitor through this pipeline's own
// ingest step, reaching the same hooks in the same order, and
// PipelineConfig.Resume continues the open window with the same
// exactly-once replay matching a mid-run feed reopen uses. Log failures
// are fatal to the run (see RecordLog).
func RunPipeline(ctx context.Context, m *Monitor, cfg PipelineConfig) error {
	rc := &pipeShared{
		stop:   make(chan struct{}),
		retry:  cfg.Retry.withDefaults(),
		dedup:  cfg.DedupAdjacent,
		health: cfg.Health,
	}
	defer close(rc.stop)
	// done is nil (blocks forever) when no context is supplied.
	if ctx != nil {
		rc.done = ctx.Done()
	}

	uf := &feed[Update]{
		name: "bgp", errWrap: "bgp feed",
		open:  opener[Update](cfg.OpenUpdates),
		equal: updateEqual,
		met:   metFeedBGP, queue: metPipeUpdateQueue, errs: metPipeErrBGP,
	}
	tf := &feed[*Traceroute]{
		name: "traceroute", errWrap: "traceroute feed",
		open:  opener[*Traceroute](cfg.OpenTraces),
		equal: traceEqual,
		met:   metFeedTrace, queue: metPipeTraceQueue, errs: metPipeErrTrace,
	}

	s := &ingest{m: m, cfg: cfg, live: true, window: m.WindowSec()}
	// A recovery resume continues the replayed run's open window: the
	// step's clock and open-window records start there, the initial opens
	// ask the feeds for records from that point, and the replayed records
	// seed the positional skip lists — exactly the state a mid-run reopen
	// would have left behind. (Direct Updates/Traces sources are the
	// caller's to align, e.g. with SkipUpdatesBefore.)
	startSince := int64(ResumeAll)
	if cfg.Resume != nil && cfg.Resume.WindowStart != ResumeAll {
		startSince = cfg.Resume.WindowStart
		s.resume(startSince, cfg.Resume.Updates, cfg.Resume.Traces)
		uf.replay = append([]Update(nil), cfg.Resume.Updates...) // nil if none
		tf.replay = append([]*Traceroute(nil), cfg.Resume.Traces...)
	}

	err := startFeed(rc, uf, cfg.Updates, startSince, s.ups)
	if err == nil {
		err = startFeed(rc, tf, cfg.Traces, startSince, s.trs)
	}
	if err == errPipelineCancelled && ctx != nil {
		return ctx.Err()
	}
	if err != nil {
		return err
	}

	for {
		if s.walErr != nil {
			return s.finish(s.walErr)
		}
		if ctx != nil {
			select {
			case <-ctx.Done():
				return s.finish(ctx.Err())
			default:
			}
		}
		again, err := pull(rc, uf, s.openStart(), s.ups)
		if err == nil && !again {
			again, err = pull(rc, tf, s.openStart(), s.trs)
		}
		if err == errPipelineCancelled {
			err = ctx.Err()
		}
		if err != nil {
			return s.finish(err)
		}
		if again {
			continue
		}
		u, t := uf.head(), tf.head()
		switch {
		case u != nil && (t == nil || u.Time <= (*t).Time):
			if uf.consumeReplay(rc, u) {
				uf.next++
				continue
			}
			// The rest of the batch goes in as runs, each up to the next
			// trace (updates first on ties) and the open window's end.
			until := int64(math.MaxInt64)
			if t != nil {
				until = (*t).Time
			}
			n, err := s.update(uf.batch[uf.next:], until)
			uf.next += n
			if err != nil {
				return s.finish(err)
			}
		case t != nil:
			tf.next++
			if tf.consumeReplay(rc, t) {
				continue
			}
			if err := s.trace(*t); err != nil {
				return s.finish(err)
			}
		default:
			// Both feeds exhausted (or dead): close the final window and
			// surface any deferred dead-feed errors.
			s.finish(nil)
			return errors.Join(uf.deadErr, tf.deadErr, s.walErr)
		}
	}
}

// ingest is the one place a record and a window close take effect, for
// live ingest (RunPipeline) and WAL replay (Recovery) alike, so a replayed
// window reaches the Monitor and every hook exactly as the live run that
// logged it delivered it. All calls come from one goroutine.
//
// A record: WAL append (live) → advance the window clock, closing each
// window it leaves behind → Tap → Monitor → remember it as the open
// window's. A run of updates takes each stage for all its records before
// the next stage (see update); a replay feeds runs of one. A close:
// CloseWindow → Sink → WAL WindowClosed (live) → Tap → OnWindowClose.
type ingest struct {
	m    *Monitor
	cfg  PipelineConfig // its Sink, Tap, OnWindowClose and WAL; a replay has no WAL
	live bool           // count into the rrr_pipeline_* metrics

	// The window clock. Floor division puts a pre-epoch timestamp in the
	// window containing it, matching Monitor.Advance's first-window snap.
	window  int64
	idx     int64
	started bool

	// ups and trs are the open window's records in ingestion order: what
	// a reopened feed re-delivers, and what a replay hands RunPipeline as
	// ResumeState.
	ups []Update
	trs []*Traceroute

	// walErr is the first WindowClosed failure (an fsync the
	// on-window-close policy did not get). A close has no caller to fail,
	// so RunPipeline surfaces it at the top of its merge loop.
	walErr error
}

// resume starts the clock in the window beginning at start, whose records
// so far are ups and trs.
func (s *ingest) resume(start int64, ups []Update, trs []*Traceroute) {
	s.started, s.idx = true, floorDiv(start, s.window)
	s.ups = append(s.ups[:0], ups...)
	s.trs = append(s.trs[:0], trs...)
}

// openStart is the open window's start, where a reopened feed must restart
// (earlier windows are final); ResumeAll before any record was ingested.
func (s *ingest) openStart() int64 {
	if !s.started {
		return ResumeAll
	}
	return s.idx * s.window
}

// advance moves the clock to the window containing t. The first record
// snaps the clock to its window; a later one closes every window it leaves
// behind, oldest first, forgetting each one's records: they are behind a
// completed boundary and will never be replayed.
func (s *ingest) advance(t int64) {
	idx := floorDiv(t, s.window)
	if !s.started {
		s.started, s.idx = true, idx
	}
	for ; s.idx < idx; s.idx++ {
		s.close(s.idx * s.window)
		s.ups, s.trs = s.ups[:0], s.trs[:0]
	}
}

// update ingests a run of BGP updates and returns its length: the longest
// prefix of ups that stays in the window ups[0] advances the clock to and
// comes no later than until. A run crosses no window close, so each stage
// takes the whole run before the next starts, in one tight loop: every
// record is teed to the WAL, then tapped, then observed under one monitor
// lock, then remembered as the open window's. The stream every hook sees
// is the serial one. Only ups[0] can advance the clock, and it is logged
// before it does. A failed append at k ingests run[:k] and returns the
// error, so the run dies with monitor and log still agreeing.
func (s *ingest) update(ups []Update, until int64) (int, error) {
	if err := s.logUpdate(ups[0]); err != nil {
		return 0, err
	}
	s.advance(ups[0].Time)
	end := (s.idx + 1) * s.window
	n := 1
	for n < len(ups) && ups[n].Time < end && ups[n].Time <= until {
		n++
	}
	run := ups[:n]
	var err error
	if s.cfg.WAL != nil {
		for k := 1; k < n; k++ {
			if err = s.logUpdate(run[k]); err != nil {
				run = run[:k]
				break
			}
		}
	}
	if s.cfg.Tap != nil {
		for i := range run {
			s.cfg.Tap.TapUpdate(run[i])
		}
	}
	s.m.observeBGP(run)
	s.ups = append(s.ups, run...)
	if s.live {
		metPipeUpdates.Add(uint64(len(run)))
	}
	return len(run), err
}

// logUpdate tees u to the WAL, if any.
func (s *ingest) logUpdate(u Update) error {
	if s.cfg.WAL == nil {
		return nil
	}
	if err := s.cfg.WAL.AppendUpdate(u); err != nil {
		return fmt.Errorf("rrr: wal append (bgp): %w", err)
	}
	return nil
}

// trace ingests one public traceroute, as update does an update.
func (s *ingest) trace(t *Traceroute) error {
	if s.cfg.WAL != nil {
		if err := s.cfg.WAL.AppendTrace(t); err != nil {
			return fmt.Errorf("rrr: wal append (traceroute): %w", err)
		}
	}
	s.advance(t.Time)
	if s.cfg.Tap != nil {
		s.cfg.Tap.TapTrace(t)
	}
	s.m.ObservePublic(t)
	s.trs = append(s.trs, t)
	if s.live {
		metPipeTraces.Inc()
	}
	return nil
}

// close closes the window starting at ws.
func (s *ingest) close(ws int64) {
	sigs := s.m.CloseWindow(ws)
	if s.cfg.Sink != nil {
		for _, sig := range sigs {
			s.cfg.Sink(sig)
		}
	}
	if s.live {
		metPipeWindows.Inc()
	}
	if s.cfg.WAL != nil && s.walErr == nil {
		if err := s.cfg.WAL.WindowClosed(ws); err != nil {
			s.walErr = fmt.Errorf("rrr: wal window sync: %w", err)
		}
	}
	if s.cfg.Tap != nil {
		s.cfg.Tap.TapWindowClose(ws)
	}
	if s.cfg.OnWindowClose != nil {
		s.cfg.OnWindowClose(ws)
	}
}

// finish closes the open window, if any, and returns err. RunPipeline
// leaves through it on every way out — feeds exhausted, cancelled, feed
// error — so already-ingested observations still produce their signals; a
// decode failure would otherwise discard the open window's observations.
// A replay never finishes: the resumed pipeline continues its open window.
func (s *ingest) finish(err error) error {
	if s.started {
		s.close(s.openStart())
	}
	return err
}

// Package wal is rrrd's write-ahead log: a segmented, length-prefixed,
// CRC32C-checksummed binary record of every feed record the pipeline
// ingests. Together with the periodic snapshot it makes the daemon
// crash-consistent — the snapshot restores the monitor's serving state,
// and replaying the WAL records past the snapshot's window watermark
// rebuilds everything ingested since, so a restart loses nothing that the
// configured fsync policy made durable.
//
// Lifecycle: Open lists the segment files, Replay streams every intact
// record through a callback (truncating a torn or corrupt tail of the
// final segment at the first bad record), and only then does the log
// accept Append calls. Compact deletes sealed segments wholly covered by
// a snapshot watermark. One WAL instance has one writer (the pipeline
// goroutine); Status may be called concurrently.
package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rrr/internal/bgp"
	"rrr/internal/obs"
	"rrr/internal/traceroute"
)

// FsyncPolicy says when appended records become durable.
type FsyncPolicy int

const (
	// FsyncOnWindowClose syncs when the pipeline closes a signal window:
	// a crash can lose at most the open window's records, which recovery
	// re-fetches from the feeds anyway (they are past the last completed
	// window). This is the zero value and the default: it aligns
	// durability with the unit the rest of the system already reasons in.
	FsyncOnWindowClose FsyncPolicy = iota
	// FsyncEveryRecord syncs after each append: nothing acknowledged is
	// ever lost, at one fsync per record.
	FsyncEveryRecord
	// FsyncInterval syncs at most once per configured interval (and still
	// on window close), bounding loss by time instead of windows.
	FsyncInterval
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncEveryRecord:
		return "record"
	case FsyncOnWindowClose:
		return "window"
	case FsyncInterval:
		return "interval"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// ParseFsyncPolicy parses the -wal-fsync flag: "record", "window", or a
// Go duration ("5s") selecting FsyncInterval with that interval.
func ParseFsyncPolicy(s string) (FsyncPolicy, time.Duration, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "record", "always":
		return FsyncEveryRecord, 0, nil
	case "window", "":
		return FsyncOnWindowClose, 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return 0, 0, fmt.Errorf("wal: fsync policy %q: want record, window, or a positive duration", s)
	}
	return FsyncInterval, d, nil
}

// Options configures Open.
type Options struct {
	// Dir holds the segment files (created if absent).
	Dir string
	// SegmentBytes rotates to a new segment once the active one would
	// exceed this size (default 8 MiB). A single record always fits: the
	// segment grows past the limit rather than splitting a record.
	SegmentBytes int64
	// Fsync is the durability policy (default FsyncOnWindowClose).
	Fsync FsyncPolicy
	// FsyncInterval is FsyncInterval's period (default 1s).
	FsyncInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = time.Second
	}
	return o
}

const segSuffix = ".wal"

// segName renders segment file names so lexical order equals sequence
// order (16 zero-padded decimal digits).
func segName(seq uint64) string { return fmt.Sprintf("%016d%s", seq, segSuffix) }

// segMeta tracks one segment's bookkeeping. For sealed segments records
// and maxTime are exact (filled by replay or rotation); for the active
// segment they grow with each append.
type segMeta struct {
	seq     uint64
	path    string
	bytes   int64
	records uint64
	maxTime int64
}

// ReplayInfo summarizes one Replay pass.
type ReplayInfo struct {
	// Segments scanned (including the one reopened for appending).
	Segments int
	// Records delivered to the callback.
	Records uint64
	// TruncatedTail reports that the final segment ended in a torn or
	// corrupt record and was truncated back to its last intact one.
	TruncatedTail bool
}

// Status is the log's externally visible state, served in /v1/stats. It
// holds only log-deterministic values — the same record sequence always
// produces the same Status regardless of crash/recovery history — so a
// recovered daemon's stats stay byte-identical to an uninterrupted run's.
type Status struct {
	FsyncPolicy string `json:"fsyncPolicy"`
	Segments    int    `json:"segments"`
	Records     uint64 `json:"records"`
	Bytes       int64  `json:"bytes"`
}

// WAL is an open write-ahead log. Replay must run (once) before the first
// Append.
type WAL struct {
	mu   sync.Mutex
	opts Options

	f *os.File
	w *walBuffer
	// scratch holds the frame being appended, reused under mu.
	scratch []byte

	segs     []segMeta // discovered by Open, consumed by Replay
	sealed   []segMeta
	cur      segMeta
	replayed bool
	closed   bool
	dirty    bool
	lastSync time.Time

	appends uint64
	// crashAfterAppends simulates a process crash for the torture tests:
	// when > 0, the append that would exceed it instead abandons the file
	// descriptor without flushing (losing whatever the OS never saw, as a
	// real crash would) and fails with errSimulatedCrash.
	crashAfterAppends uint64
	// crashPartialBytes, when > 0 at the simulated crash, writes that many
	// bytes of the pending buffer to the file before abandoning it —
	// modeling a kernel that flushed part of a page, which is exactly how
	// real torn tails happen (the buffer otherwise only ever flushes whole
	// frames, so every crash would land on a clean frame boundary).
	crashPartialBytes int
	crashed           bool
	// failSync, when set, makes the next sync attempt fail (disk-full /
	// write-error injection).
	failSync error
}

var errSimulatedCrash = fmt.Errorf("wal: simulated crash")

// Open lists dir's segments and prepares the log for Replay. No file is
// written yet; an empty or missing dir starts a fresh log at segment 1.
func Open(opts Options) (*WAL, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list dir: %w", err)
	}
	w := &WAL{opts: opts}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("wal: foreign file %s in log dir", name)
		}
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		w.segs = append(w.segs, segMeta{seq: seq, path: filepath.Join(opts.Dir, name), bytes: info.Size()})
	}
	sort.Slice(w.segs, func(i, j int) bool { return w.segs[i].seq < w.segs[j].seq })
	return w, nil
}

// Replay streams every intact record, oldest segment first, through fn
// (nil fn just validates and counts), then reopens the final segment for
// appending. A record's Update is valid only until fn returns (see
// Record). A torn or corrupt tail on the final segment is truncated at
// the first bad record — counted in rrr_wal_tail_truncations_total — and
// recovery continues; the same damage mid-log is a hard error, because a
// record behind a later segment was claimed durable.
func (w *WAL) Replay(fn func(Record) error) (ReplayInfo, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var info ReplayInfo
	if w.replayed {
		return info, fmt.Errorf("wal: Replay already ran")
	}
	if w.closed {
		return info, fmt.Errorf("wal: log is closed")
	}
	timer := obs.NewTimer(metReplaySeconds)
	defer timer.Stop()
	for i := range w.segs {
		m := &w.segs[i]
		f, err := os.Open(m.path)
		if err != nil {
			return info, err
		}
		last := i == len(w.segs)-1
		sc, err := scanSegment(f, fn, last)
		f.Close()
		if err != nil {
			return info, fmt.Errorf("wal: segment %s: %w", filepath.Base(m.path), err)
		}
		m.records, m.maxTime = sc.records, sc.maxTime
		info.Records += sc.records
		metReplayed.Add(sc.records)
		if sc.torn {
			if err := truncateSegment(m.path, sc.goodLen); err != nil {
				return info, fmt.Errorf("wal: truncate torn tail of %s: %w", filepath.Base(m.path), err)
			}
			m.bytes = sc.goodLen
			info.TruncatedTail = true
			metTruncations.Inc()
		}
	}
	info.Segments = len(w.segs)
	if len(w.segs) == 0 {
		if err := w.createSegmentLocked(1); err != nil {
			return info, err
		}
		info.Segments = 1
	} else {
		w.sealed = w.segs[:len(w.segs)-1]
		if err := w.openActiveLocked(w.segs[len(w.segs)-1]); err != nil {
			return info, err
		}
	}
	w.segs = nil
	w.replayed = true
	w.lastSync = time.Now() // start the interval policy's clock at open
	metSegments.Set(int64(len(w.sealed) + 1))
	return info, nil
}

// truncateSegment cuts path back to n bytes and makes the cut durable, so
// a crash right after recovery cannot resurrect the discarded tail.
func truncateSegment(path string, n int64) error {
	if err := os.Truncate(path, n); err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// openActiveLocked reopens an existing segment for appending. A segment
// truncated all the way to (or before) its magic gets the magic
// rewritten: the file is empty of records either way.
func (w *WAL) openActiveLocked(m segMeta) error {
	f, err := os.OpenFile(m.path, os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if m.bytes < int64(len(segMagic)) {
		if err := f.Truncate(0); err != nil {
			f.Close()
			return err
		}
		if _, err := f.WriteAt([]byte(segMagic), 0); err != nil {
			f.Close()
			return err
		}
		m.bytes = int64(len(segMagic))
	}
	if _, err := f.Seek(m.bytes, 0); err != nil {
		f.Close()
		return err
	}
	w.f, w.w, w.cur = f, newWalBuffer(f), m
	return nil
}

func (w *WAL) createSegmentLocked(seq uint64) error {
	path := filepath.Join(w.opts.Dir, segName(seq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w.f, w.w = f, newWalBuffer(f)
	w.cur = segMeta{seq: seq, path: path, maxTime: minInt64}
	if err := w.w.Write([]byte(segMagic)); err != nil {
		return err
	}
	w.cur.bytes = int64(len(segMagic))
	w.dirty = true
	return nil
}

const minInt64 = -1 << 63

// AppendUpdate logs one BGP update.
func (w *WAL) AppendUpdate(u bgp.Update) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	frame, err := AppendUpdateFrame(w.scratch[:0], u)
	if err != nil {
		return err
	}
	w.scratch = frame
	return w.appendLocked(frame, u.Time)
}

// AppendTrace logs one public traceroute.
func (w *WAL) AppendTrace(t *traceroute.Traceroute) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	frame, err := AppendTraceFrame(w.scratch[:0], t)
	if err != nil {
		return err
	}
	w.scratch = frame
	return w.appendLocked(frame, t.Time)
}

func (w *WAL) appendLocked(frame []byte, t int64) error {
	switch {
	case w.crashed:
		return errSimulatedCrash
	case w.closed:
		return fmt.Errorf("wal: append to closed log")
	case !w.replayed:
		return fmt.Errorf("wal: append before Replay")
	}
	if w.crashAfterAppends > 0 && w.appends >= w.crashAfterAppends {
		w.abandonLocked()
		return errSimulatedCrash
	}
	if w.cur.bytes+int64(len(frame)) > w.opts.SegmentBytes && w.cur.records > 0 {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	if err := w.w.Write(frame); err != nil {
		return err
	}
	w.cur.bytes += int64(len(frame))
	w.cur.records++
	if t > w.cur.maxTime {
		w.cur.maxTime = t
	}
	w.appends++
	w.dirty = true
	metAppends.Inc()
	metAppendBytes.Add(uint64(len(frame)))
	switch w.opts.Fsync {
	case FsyncEveryRecord:
		return w.syncLocked()
	case FsyncInterval:
		if time.Since(w.lastSync) >= w.opts.FsyncInterval {
			return w.syncLocked()
		}
	}
	return nil
}

func (w *WAL) rotateLocked() error {
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.sealed = append(w.sealed, w.cur)
	if err := w.createSegmentLocked(w.cur.seq + 1); err != nil {
		return err
	}
	metRotations.Inc()
	metSegments.Set(int64(len(w.sealed) + 1))
	return nil
}

// abandonLocked models the crash: the kernel never saw the buffered tail,
// so close the descriptor without flushing and refuse further writes.
func (w *WAL) abandonLocked() {
	w.crashed = true
	if w.f == nil {
		return
	}
	if n := w.crashPartialBytes; n > 0 && w.w != nil {
		if n > len(w.w.buf) {
			n = len(w.w.buf)
		}
		w.f.Write(w.w.buf[:n])
	}
	w.f.Close()
}

func (w *WAL) syncLocked() error {
	if !w.dirty {
		return nil
	}
	if err := w.w.Flush(); err != nil {
		return err
	}
	if w.failSync != nil {
		return w.failSync
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.dirty = false
	w.lastSync = time.Now()
	metFsyncs.Inc()
	return nil
}

// Sync forces buffered records to disk.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.crashed || w.closed {
		return nil
	}
	return w.syncLocked()
}

// WindowClosed tells the log the pipeline completed the window starting
// at ws: under FsyncOnWindowClose (and as FsyncInterval's backstop for
// quiet periods) this is the durability point.
func (w *WAL) WindowClosed(ws int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.crashed || w.closed || !w.replayed {
		return nil
	}
	switch w.opts.Fsync {
	case FsyncOnWindowClose:
		return w.syncLocked()
	case FsyncInterval:
		if time.Since(w.lastSync) >= w.opts.FsyncInterval {
			return w.syncLocked()
		}
	}
	return nil
}

// Compact deletes sealed segments every one of whose records predates
// watermark (a snapshot's open-window start: the snapshot already covers
// them). Deletion walks oldest-first and stops at the first segment with
// a record at or past the watermark, so the invariant — no surviving
// record is ever removed — holds even if metadata were somehow out of
// order. The active segment is never deleted.
func (w *WAL) Compact(watermark int64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.replayed {
		return 0, fmt.Errorf("wal: compact before Replay")
	}
	deleted := 0
	for len(w.sealed) > 0 {
		m := w.sealed[0]
		if m.records > 0 && m.maxTime >= watermark {
			break
		}
		if err := os.Remove(m.path); err != nil {
			return deleted, err
		}
		w.sealed = w.sealed[1:]
		deleted++
		metCompacted.Inc()
	}
	if deleted > 0 {
		metSegments.Set(int64(len(w.sealed) + 1))
	}
	return deleted, nil
}

// Status reports the log's current shape.
func (w *WAL) Status() Status {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := Status{FsyncPolicy: w.opts.Fsync.String(), Segments: len(w.sealed)}
	for _, m := range w.sealed {
		st.Records += m.records
		st.Bytes += m.bytes
	}
	if w.replayed {
		st.Segments++
		st.Records += w.cur.records
		st.Bytes += w.cur.bytes
	}
	return st
}

// Close flushes, syncs, and closes the active segment.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.crashed || w.closed || !w.replayed {
		w.closed = true
		return nil
	}
	w.closed = true
	if err := w.syncLocked(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// walBuffer is a minimal buffered writer. It exists instead of
// bufio.Writer for one property the crash model needs: an abandoned
// buffer's bytes are provably lost (bufio would be equivalent, but the
// explicit type documents that the buffer IS the simulated page cache —
// whatever Flush never pushed to the file plays the part of data the
// kernel lost in the crash).
type walBuffer struct {
	f   *os.File
	buf []byte
}

const walBufferSize = 32 << 10

func newWalBuffer(f *os.File) *walBuffer {
	return &walBuffer{f: f, buf: make([]byte, 0, walBufferSize)}
}

func (b *walBuffer) Write(p []byte) error {
	if len(b.buf)+len(p) > cap(b.buf) {
		if err := b.Flush(); err != nil {
			return err
		}
	}
	if len(p) >= cap(b.buf) {
		_, err := b.f.Write(p)
		return err
	}
	b.buf = append(b.buf, p...)
	return nil
}

func (b *walBuffer) Flush() error {
	if len(b.buf) == 0 {
		return nil
	}
	_, err := b.f.Write(b.buf)
	b.buf = b.buf[:0]
	return err
}

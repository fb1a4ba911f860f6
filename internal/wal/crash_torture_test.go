// Crash-torture harness: kill the daemon's write path at seeded points
// mid-ingest, recover from disk, and prove the recovered process is
// indistinguishable — byte-identical /v1/stats, identical signal stream,
// identical WAL contents — from one that never crashed. External test
// package: it drives the full rrr pipeline and the HTTP server against a
// real on-disk log, which an in-package test could not import without a
// cycle.
package wal_test

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"rrr"
	"rrr/internal/bgp"
	"rrr/internal/bordermap"
	"rrr/internal/daemon"
	"rrr/internal/server"
	"rrr/internal/wal"
)

// octetMapper maps an address to the AS in its first octet; 240.x is IXP 1.
type octetMapper struct{}

func (octetMapper) ASOf(ip uint32) (bgp.ASN, bool) {
	f := ip >> 24
	if f == 240 || f == 0 {
		return 0, false
	}
	return bgp.ASN(f), true
}

func (octetMapper) IXPOf(ip uint32) (int, bool) { return 1, ip>>24 == 240 }

func mustIP(t *testing.T, s string) uint32 {
	t.Helper()
	v, err := rrr.ParseIP(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func tortureTrace(t *testing.T, when int64, src, dst string, hops ...string) *rrr.Traceroute {
	t.Helper()
	tr := &rrr.Traceroute{Src: mustIP(t, src), Dst: mustIP(t, dst), Time: when}
	for i, h := range hops {
		tr.Hops = append(tr.Hops, rrr.Hop{IP: mustIP(t, h), TTL: i + 1})
	}
	return tr
}

func tortureUpdate(t *testing.T, tm int64, vpIP string, as rrr.ASN, path []rrr.ASN) rrr.Update {
	t.Helper()
	p, err := rrr.ParsePrefix("4.0.0.0/8")
	if err != nil {
		t.Fatal(err)
	}
	return rrr.Update{Time: tm, PeerIP: mustIP(t, vpIP), PeerAS: as, Type: bgp.Announce,
		Prefix: p, ASPath: path}
}

// tortureMonitor rebuilds the deterministic pre-feed state the daemon
// would: mapper + aliases, two primed VP routes, one tracked pair. Every
// run (baseline, crashed, recovered) starts from an identical monitor, as
// rrrd's deterministic re-priming guarantees.
func tortureMonitor(t *testing.T) *rrr.Monitor {
	t.Helper()
	m, err := rrr.NewMonitor(rrr.Options{
		Mapper:  octetMapper{},
		Aliases: bordermap.OracleFunc(func(v uint32) (int, bool) { return int(v), true }),
	})
	if err != nil {
		t.Fatal(err)
	}
	m.ObserveBGP(tortureUpdate(t, 0, "5.0.0.9", 5, []rrr.ASN{5, 2, 3, 4}))
	m.ObserveBGP(tortureUpdate(t, 0, "6.0.0.9", 6, []rrr.ASN{6, 3, 4}))
	if err := m.Track(tortureTrace(t, 0, "1.0.0.1", "4.0.0.9",
		"1.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.9")); err != nil {
		t.Fatal(err)
	}
	return m
}

// tortureUpdates: two VPs announcing once per window for 50 windows, VP 5
// shifting its path inside the monitored suffix at window 45.
func tortureUpdates(t *testing.T) []rrr.Update {
	t.Helper()
	var out []rrr.Update
	for w := int64(1); w <= 50; w++ {
		out = append(out, tortureUpdate(t, w*900+3, "6.0.0.9", 6, []rrr.ASN{6, 3, 4}))
		path := []rrr.ASN{5, 2, 3, 4}
		if w >= 45 {
			path = []rrr.ASN{5, 2, 9, 4}
		}
		out = append(out, tortureUpdate(t, w*900+7, "5.0.0.9", 5, path))
	}
	return out
}

// tortureTraces: a public traceroute every fifth window, so the log
// carries both record kinds.
func tortureTraces(t *testing.T) []*rrr.Traceroute {
	t.Helper()
	var out []*rrr.Traceroute
	for w := int64(5); w <= 50; w += 5 {
		out = append(out, tortureTrace(t, w*900+5, "7.0.0.1", "8.0.0.9",
			"7.0.0.2", "3.0.0.5", "8.0.0.9"))
	}
	return out
}

type sliceTraces struct {
	traces []*rrr.Traceroute
	i      int
}

func (s *sliceTraces) Read() (*rrr.Traceroute, error) {
	if s.i >= len(s.traces) {
		return nil, io.EOF
	}
	tr := s.traces[s.i]
	s.i++
	return tr, nil
}

// statsBody renders /v1/stats for a monitor + WAL exactly as rrrd serves
// it, returning the raw response bytes.
func statsBody(t *testing.T, m *rrr.Monitor, w *wal.WAL) []byte {
	t.Helper()
	srv := server.New(m, server.Config{WALStatus: w.Status})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	if rec.Code != 200 {
		t.Fatalf("/v1/stats -> %d: %s", rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes()
}

// dirBytes concatenates a log dir's segment files in sequence order.
func dirBytes(t *testing.T, dir string) []byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	var all []byte
	for _, n := range names {
		b, err := os.ReadFile(n)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	return all
}

// tortureBaseline runs the pipeline uninterrupted with a WAL under the
// given options and returns the ground truth a recovered run must match.
type baseline struct {
	sigs  []rrr.Signal
	stale []rrr.Key
	stats []byte
	log   []byte
	recs  uint64
}

func walOptions(dir string, policy wal.FsyncPolicy) wal.Options {
	return wal.Options{
		Dir:          dir,
		SegmentBytes: 512, // tiny: every run crosses several rotations
		Fsync:        policy,
		// An hour-long interval makes FsyncInterval maximally lazy: the
		// crash loses everything since the last window close, the hardest
		// recovery case the policy allows.
		FsyncInterval: time.Hour,
	}
}

func tortureBaseline(t *testing.T, policy wal.FsyncPolicy) baseline {
	t.Helper()
	dir := t.TempDir()
	w, err := wal.Open(walOptions(dir, policy))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Replay(nil); err != nil {
		t.Fatal(err)
	}
	m := tortureMonitor(t)
	var sigs []rrr.Signal
	err = rrr.RunPipeline(context.Background(), m, rrr.PipelineConfig{
		Updates: bgp.NewSliceSource(tortureUpdates(t)),
		Traces:  &sliceTraces{traces: tortureTraces(t)},
		Sink:    func(s rrr.Signal) { sigs = append(sigs, s) },
		WAL:     w,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sigs) == 0 {
		t.Fatal("baseline produced no signals; the torture comparison would be vacuous")
	}
	b := baseline{
		sigs:  sigs,
		stale: m.StaleKeys(),
		stats: statsBody(t, m, w),
		recs:  w.Status().Records,
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b.log = dirBytes(t, dir)
	return b
}

// TestCrashTorture is the acceptance harness: for seeded crash points
// spread over the run (cycling all three fsync policies), a process that
// dies mid-append, recovers from the on-disk log, and resumes from the
// re-opened feeds ends byte-identical to one that never crashed — same
// signal stream, same stale set, same /v1/stats bytes, and the same log
// bytes on disk (nothing duplicated, nothing lost).
func TestCrashTorture(t *testing.T) {
	policies := []wal.FsyncPolicy{wal.FsyncEveryRecord, wal.FsyncOnWindowClose, wal.FsyncInterval}
	bases := make(map[wal.FsyncPolicy]baseline, len(policies))
	for _, p := range policies {
		bases[p] = tortureBaseline(t, p)
	}

	points := 21
	if testing.Short() {
		points = 6
	}
	rng := rand.New(rand.NewSource(41))
	total := int(bases[wal.FsyncEveryRecord].recs)
	for i := 0; i < points; i++ {
		policy := policies[i%len(policies)]
		crashAt := 1 + rng.Intn(total-1)
		partial := rng.Intn(48)
		t.Run(policy.String(), func(t *testing.T) {
			runTorturePoint(t, bases[policy], policy, uint64(crashAt), partial)
		})
	}
}

func runTorturePoint(t *testing.T, base baseline, policy wal.FsyncPolicy, crashAt uint64, partial int) {
	dir := t.TempDir()

	// Incarnation 1: ingest until the armed append kills the process.
	w1, err := wal.Open(walOptions(dir, policy))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w1.Replay(nil); err != nil {
		t.Fatal(err)
	}
	w1.SetCrashAfterAppends(crashAt, partial)
	m1 := tortureMonitor(t)
	err = rrr.RunPipeline(context.Background(), m1, rrr.PipelineConfig{
		Updates: bgp.NewSliceSource(tortureUpdates(t)),
		Traces:  &sliceTraces{traces: tortureTraces(t)},
		Sink:    func(rrr.Signal) {},
		WAL:     w1,
	})
	if !errors.Is(err, wal.ErrSimulatedCrash) {
		t.Fatalf("crash-armed pipeline err = %v, want the simulated crash", err)
	}
	w1.Close() // post-crash no-op, like the dead process's kernel cleanup

	// Incarnation 2: recover. Deterministic re-prime, replay the log
	// through the recovery path, then resume the pipeline from the
	// re-opened feeds — the open window's re-delivered records are skipped
	// positionally, everything the unsynced buffer lost is re-fetched.
	w2, err := wal.Open(walOptions(dir, policy))
	if err != nil {
		t.Fatal(err)
	}
	m2 := tortureMonitor(t)
	var sigs []rrr.Signal
	rep, err := daemon.Recover(m2, w2, rrr.PipelineConfig{Sink: func(s rrr.Signal) { sigs = append(sigs, s) }})
	if err != nil {
		t.Fatalf("recovery replay: %v", err)
	}
	if rep.Replay.Records > crashAt {
		t.Fatalf("recovered %d records but only %d were ever appended", rep.Replay.Records, crashAt)
	}
	if policy == wal.FsyncEveryRecord && rep.Replay.Records != crashAt {
		t.Fatalf("per-record durability recovered %d of %d acknowledged records", rep.Replay.Records, crashAt)
	}

	updates, traces := daemon.ResumeFeeds(bgp.NewSliceSource(tortureUpdates(t)), &sliceTraces{traces: tortureTraces(t)}, rep.Resume)
	err = rrr.RunPipeline(context.Background(), m2, rrr.PipelineConfig{
		Updates: updates,
		Traces:  traces,
		Sink:    func(s rrr.Signal) { sigs = append(sigs, s) },
		WAL:     w2,
		Resume:  rep.Resume,
	})
	if err != nil {
		t.Fatalf("resumed pipeline: %v", err)
	}

	// The recovered incarnation must be indistinguishable from never
	// having crashed.
	if !reflect.DeepEqual(sigs, base.sigs) {
		t.Fatalf("crash at %d (partial %d): signal stream diverges:\n got  %v\n want %v",
			crashAt, partial, sigs, base.sigs)
	}
	if !reflect.DeepEqual(m2.StaleKeys(), base.stale) {
		t.Fatalf("crash at %d: stale set = %v, want %v", crashAt, m2.StaleKeys(), base.stale)
	}
	if got := statsBody(t, m2, w2); !reflect.DeepEqual(got, base.stats) {
		t.Fatalf("crash at %d: /v1/stats diverges:\n got  %s\n want %s", crashAt, got, base.stats)
	}
	if st := w2.Status(); st.Records != base.recs {
		t.Fatalf("crash at %d: log holds %d records, want %d (dup or loss)", crashAt, st.Records, base.recs)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := dirBytes(t, dir); !reflect.DeepEqual(got, base.log) {
		t.Fatalf("crash at %d: on-disk log bytes diverge from uninterrupted run (%d vs %d bytes)",
			crashAt, len(got), len(base.log))
	}
}

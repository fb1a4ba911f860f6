package rrr

import (
	"context"
	"errors"
	"io"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"rrr/internal/bgp"
	"rrr/internal/bordermap"
	"rrr/internal/faultfeed"
)

// handoffUpdates is n announcements of one route, three seconds apart, each
// carrying its serial index in MED so the tap can tell every record apart.
func handoffUpdates(t *testing.T, n int) []Update {
	t.Helper()
	out := make([]Update, n)
	for i := range out {
		out[i] = announceUpd(t, int64(3*i), "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 3, 4})
		out[i].MED = uint32(i)
	}
	return out
}

// gatedUpdates serves recs from index i on. Each Read first calls before
// with the index it is about to serve, fails with a transient error at
// index failAt (once: the reader ends at its first error), and stores the
// index of each record it hands out in pos.
type gatedUpdates struct {
	recs   []Update
	i      int
	failAt int
	before func(i int)
	pos    *atomic.Int64
}

func (s *gatedUpdates) Read() (Update, error) {
	if s.before != nil {
		s.before(s.i)
	}
	switch s.i {
	case s.failAt:
		return Update{}, faultfeed.Transient(faultfeed.ErrInjected)
	case len(s.recs):
		return Update{}, io.EOF
	}
	u := s.recs[s.i]
	s.pos.Store(int64(s.i))
	s.i++
	return u, nil
}

// await waits for ch, failing the test if it takes longer than a healthy
// run ever could.
func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Errorf("timed out waiting for %s", what)
	}
}

// tapFunc is a RecordTap that sees updates only.
type tapFunc func(Update)

func (f tapFunc) TapUpdate(u Update) { f(u) }
func (tapFunc) TapTrace(*Traceroute) {}
func (tapFunc) TapWindowClose(int64) {}

// TestPipelineHandoffOrderAndBound drives 4 000 records over 14 windows
// through a direct source that breaks right after a full batch and a
// reopened one that breaks while the merge loop is in the middle of a
// batch. The tap is slow, so the reader runs ahead until its queue fills.
// The tap must see the serial sequence exactly once, the replayed-record
// counter must count the open window's prefix at each break, and the
// reader may never be more than pipelineInFlight records ahead of the tap.
func TestPipelineHandoffOrderAndBound(t *testing.T) {
	const n = 4000
	m := newTestMonitor(t)
	recs := handoffUpdates(t, n)
	var pos atomic.Int64
	pos.Store(-1)

	// The first break: the merge loop takes record 0 alone (the reader
	// cannot read record 1 before the tap has it), the tap holds it until
	// the reader has queued records 1..handoffCap and asks for the next
	// one, which fails. So the failure follows one full batch.
	firstFail := 1 + handoffCap
	tapped0, failRead1 := make(chan struct{}), make(chan struct{})
	direct := &gatedUpdates{recs: recs, failAt: firstFail, pos: &pos, before: func(i int) {
		switch i {
		case 1:
			await(t, tapped0, "the tap to see record 0")
		case firstFail:
			close(failRead1)
		}
	}}
	// The second break: the first reopen fails at secondFail while the tap
	// holds a record of the batch 100 records earlier.
	const secondFail = 1213
	failRead2 := make(chan struct{})
	opens := 0
	open := func(since int64) (UpdateSource, error) {
		opens++
		lo := sort.Search(n, func(i int) bool { return recs[i].Time >= since })
		src := &gatedUpdates{recs: recs, i: lo, failAt: -1, pos: &pos}
		if opens == 1 {
			src.failAt = secondFail
			src.before = func(i int) {
				if i == secondFail {
					close(failRead2)
				}
			}
		}
		return src, nil
	}

	var seen []uint32
	maxAhead, maxBatch := int64(0), int64(0)
	tap := tapFunc(func(u Update) {
		switch u.MED {
		case 0:
			close(tapped0)
			await(t, failRead1, "the reader to fill its queue")
		case secondFail - 100:
			await(t, failRead2, "the reopened reader to reach its break")
		}
		if u.MED%64 == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		seen = append(seen, u.MED)
		maxAhead = max(maxAhead, pos.Load()-int64(u.MED))
		maxBatch = max(maxBatch, metPipeUpdateQueue.Value())
	})

	replayedBefore := metFeedBGP.replayed.Value()
	err := RunPipeline(context.Background(), m, PipelineConfig{
		Updates:     direct,
		OpenUpdates: open,
		Tap:         tap,
		Retry:       RetryPolicy{MaxRetries: 2, Backoff: time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}

	want := make([]uint32, n)
	for i := range want {
		want[i] = uint32(i)
	}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("tap saw %d records, not the serial sequence of %d", len(seen), n)
	}
	// A reopen resumes at the open window's start and skips the records
	// the window already ingested: those before the failing read.
	prefix := func(fail int) uint64 {
		ws := floorDiv(recs[fail-1].Time, m.WindowSec()) * m.WindowSec()
		return uint64(fail - sort.Search(n, func(i int) bool { return recs[i].Time >= ws }))
	}
	if got, want := metFeedBGP.replayed.Value()-replayedBefore, prefix(firstFail)+prefix(secondFail); got != want {
		t.Fatalf("replayed %d records, want the open windows' prefixes, %d", got, want)
	}
	if opens != 2 {
		t.Fatalf("feed reopened %d times, want 2", opens)
	}
	if maxAhead > pipelineInFlight {
		t.Fatalf("the reader ran %d records ahead of the tap, bound %d", maxAhead, pipelineInFlight)
	}
	if maxBatch != handoffCap {
		t.Fatalf("largest batch %d records, want the cap %d", maxBatch, handoffCap)
	}
	if q := metPipeUpdateQueue.Value(); q != 0 {
		t.Fatalf("queue gauge reads %d after the feed ended, want 0", q)
	}
	t.Logf("reader at most %d records ahead of the tap", maxAhead)
}

// TestPipelineHandoffHandsOverAndLeaksNothing: a record is handed to the
// merge loop before the reader asks its source for the next one, and a
// reader parked on a full queue leaves with the run.
func TestPipelineHandoffHandsOverAndLeaksNothing(t *testing.T) {
	settled := func(t *testing.T, base int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}

	t.Run("second read waits for the tap", func(t *testing.T) {
		base := runtime.NumGoroutine()
		var pos atomic.Int64
		tapped := make(chan struct{})
		src := &gatedUpdates{recs: handoffUpdates(t, 3), failAt: -1, pos: &pos, before: func(i int) {
			if i == 1 {
				await(t, tapped, "the tap to see the first record")
			}
		}}
		n := 0
		tap := tapFunc(func(Update) {
			if n++; n == 1 {
				close(tapped)
			}
		})
		if err := RunPipeline(context.Background(), newTestMonitor(t), PipelineConfig{Updates: src, Tap: tap}); err != nil {
			t.Fatal(err)
		}
		if n != 3 {
			t.Fatalf("tapped %d records, want 3", n)
		}
		settled(t, base)
	})

	t.Run("cancel while the reader is parked on a full queue", func(t *testing.T) {
		base := runtime.NumGoroutine()
		// An endless feed, counting its reads.
		var reads atomic.Int64
		u := announceUpd(t, 0, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 4})
		src := updateFunc(func() (Update, error) {
			u.Time = reads.Add(1)
			return u, nil
		})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var parkAt int64
		tap := tapFunc(func(Update) {
			if parkAt != 0 {
				return
			}
			// Behind the first batch, whose size the gauge reads, the
			// reader fills the queue and parks holding one more record.
			parkAt = metPipeUpdateQueue.Value() + handoffCap + 1
			deadline := time.Now().Add(10 * time.Second)
			for reads.Load() < parkAt {
				if time.Now().After(deadline) {
					t.Errorf("the reader stopped at %d reads, want %d", reads.Load(), parkAt)
					break
				}
				time.Sleep(time.Millisecond)
			}
			cancel()
		})
		err := RunPipeline(ctx, newTestMonitor(t), PipelineConfig{Updates: src, Tap: tap})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v; want context.Canceled", err)
		}
		if r := reads.Load(); r != parkAt {
			t.Fatalf("the reader read %d records, want the first batch, a full queue and one more: %d", r, parkAt)
		}
		settled(t, base)
	})
}

// BenchmarkPipelineHandoff is the pipeline's own cost per record: one op
// is one update through RunPipeline's reader, hand-off queue and merge
// loop into a monitor that tracks nothing. The updates re-announce four
// unchanged routes, 9 000 to a window, so the RIB finds a duplicate and
// the fold and the close do next to nothing.
func BenchmarkPipelineHandoff(b *testing.B) {
	aliases := bordermap.OracleFunc(func(v uint32) (int, bool) { return int(v), true })
	m, err := NewMonitor(Options{Mapper: facadeMapper{}, Aliases: aliases})
	if err != nil {
		b.Fatal(err)
	}
	p, err := ParsePrefix("4.0.0.0/8")
	if err != nil {
		b.Fatal(err)
	}
	const span = 4000
	recs := make([]Update, span)
	for i := range recs {
		vp := uint32(i % 4)
		recs[i] = Update{Time: int64(i / 10), PeerIP: 5<<24 | vp, PeerAS: ASN(5 + vp),
			Type: bgp.Announce, Prefix: p, ASPath: []ASN{ASN(5 + vp), 2, 3, 4}}
	}
	i := 0
	src := updateFunc(func() (Update, error) {
		if i == b.N {
			return Update{}, io.EOF
		}
		u := recs[i%span]
		u.Time += int64(i/span) * span / 10
		i++
		return u, nil
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := RunPipeline(context.Background(), m, PipelineConfig{Updates: src}); err != nil {
		b.Fatal(err)
	}
}

// updateFunc is an UpdateSource over a function.
type updateFunc func() (Update, error)

func (f updateFunc) Read() (Update, error) { return f() }

package feedwire

import (
	"net"
	"runtime"
	"testing"
	"time"

	"rrr/internal/bgp"
	"rrr/internal/traceroute"
)

// TestServerFlushesBeforeWaiting: the server buffers its writes, so it
// must flush whenever it runs out of history to send. With both streams
// open and idle, a record appended after the client connects has to reach
// Read on its own — no later record, watermark or EOF behind it to push
// it out of the buffer.
func TestServerFlushesBeforeWaiting(t *testing.T) {
	s, err := NewServer(Config{WindowSec: 900})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(lis)
	defer s.Close()
	c := NewConnector(ConnectorConfig{Addr: lis.Addr().String()})
	defer c.Close()
	us, err := c.OpenUpdates(ResumeAll)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := c.OpenTraces(ResumeAll)
	if err != nil {
		t.Fatal(err)
	}

	within := func(what string, read func() (int64, error), want int64) {
		t.Helper()
		type result struct {
			time int64
			err  error
		}
		got := make(chan result, 1)
		go func() {
			tm, err := read()
			got <- result{tm, err}
		}()
		select {
		case r := <-got:
			if r.err != nil || r.time != want {
				t.Fatalf("%s: read time %d, %v; want %d", what, r.time, r.err, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s appended to an idle stream did not arrive within 2s", what)
		}
	}
	s.AppendUpdate(bgp.Update{Time: 100, Type: bgp.Withdraw})
	within("update", func() (int64, error) {
		u, err := us.Read()
		return u.Time, err
	}, 100)
	s.AppendTrace(&traceroute.Traceroute{Time: 101})
	within("trace", func() (int64, error) {
		tr, err := ts.Read()
		if err != nil {
			return 0, err
		}
		return tr.Time, nil
	}, 101)
}

// TestHistoryTrimAmortised: with bounded retention, trimming the history
// costs amortised O(1) per record. Copying the whole retained history on
// every trim read about 45 KB allocated per append at this rate.
func TestHistoryTrimAmortised(t *testing.T) {
	s, err := NewServer(Config{WindowSec: 900, HistoryWindows: 2})
	if err != nil {
		t.Fatal(err)
	}
	const appends = 200000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < appends; i++ {
		s.AppendUpdate(bgp.Update{Time: int64(i) / 3})
	}
	runtime.ReadMemStats(&m1)
	per := float64(m1.TotalAlloc-m0.TotalAlloc) / appends
	t.Logf("%.0f B allocated per append, %d records retained", per, len(s.updates.recs)-s.updates.head)
	if per >= 1024 {
		t.Errorf("%.0f B allocated per append, budget 1 KiB", per)
	}
}

// TestHistoryTrimResume: a bounded history keeps exactly the records
// inside its horizon. A resume inside it starts where asked; one before
// it is told the first retained timestamp (the resume gap); a cursor that
// fell behind the trim is refused.
func TestHistoryTrimResume(t *testing.T) {
	const windowSec, windows = 10, 2
	s, err := NewServer(Config{WindowSec: windowSec, HistoryWindows: windows})
	if err != nil {
		t.Fatal(err)
	}
	h := s.updates
	staleCursor, _ := h.startAt(ResumeAll)
	const last = 999
	for tm := int64(0); tm <= last; tm++ {
		s.AppendUpdate(bgp.Update{Time: tm})
	}
	first := int64(last - windows*windowSec) // oldest retained timestamp
	if n := len(h.recs) - h.head; n != last-int(first)+1 {
		t.Fatalf("%d records retained, want %d", n, last-first+1)
	}
	if _, _, st, _ := h.next(staleCursor); st != histBehind {
		t.Fatalf("trimmed cursor: status %d, want histBehind", st)
	}
	if _, start := h.startAt(5); start != first {
		t.Fatalf("resume at 5 starts at %d, want the gap to %d", start, first)
	}
	cursor, start := h.startAt(first + 7)
	if start != first+7 {
		t.Fatalf("resume inside the horizon starts at %d, want %d", start, first+7)
	}
	for want := first + 7; want <= last; want++ {
		rec, next, st, _ := h.next(cursor)
		if st != histRecord || rec.Time() != want {
			t.Fatalf("cursor %d: status %d time %d, want record at %d", cursor, st, rec.Time(), want)
		}
		cursor = next
	}
	for i := 0; i < h.head; i++ {
		if h.recs[i].Update != nil {
			t.Fatalf("trimmed slot %d still holds its record", i)
		}
	}
}

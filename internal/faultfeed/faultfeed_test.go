package faultfeed

import (
	"errors"
	"io"
	"reflect"
	"testing"

	"rrr/internal/bgp"
	"rrr/internal/traceroute"
	"rrr/internal/trie"
)

// mkUpdates builds n updates with strictly increasing timestamps, so any
// byte-identical adjacent pair in a faulted stream is an injected
// duplicate and sorting by Time recovers the original order exactly.
func mkUpdates(n int) []bgp.Update {
	out := make([]bgp.Update, n)
	for i := range out {
		out[i] = bgp.Update{
			Time:   int64(i + 1),
			PeerIP: 0x0a000001,
			PeerAS: bgp.ASN(100 + i%7),
			Type:   bgp.Announce,
			Prefix: trie.MakePrefix(uint32(i)<<8, 24),
			ASPath: bgp.Path{bgp.ASN(100 + i%7), 200, 300},
			MED:    uint32(i),
		}
	}
	return out
}

func mkTraces(n int) []*traceroute.Traceroute {
	out := make([]*traceroute.Traceroute, n)
	for i := range out {
		out[i] = &traceroute.Traceroute{
			Time: int64(i + 1),
			Src:  0x01000001,
			Dst:  uint32(0x04000000 + i),
			Hops: []traceroute.Hop{{IP: 0x02000001, TTL: 1}, {IP: 0x03000001, TTL: 2}},
		}
	}
	return out
}

// drainUpdates reads src to EOF, retrying transient errors in place, and
// returns the delivered records plus the number of transient errors seen.
func drainUpdates(t *testing.T, src bgp.UpdateSource) ([]bgp.Update, int) {
	t.Helper()
	var out []bgp.Update
	transients := 0
	for {
		u, err := src.Read()
		if err == io.EOF {
			return out, transients
		}
		if err != nil {
			var tmp interface{ Temporary() bool }
			if errors.As(err, &tmp) && tmp.Temporary() {
				transients++
				if transients > 10000 {
					t.Fatal("transient errors never stop")
				}
				continue
			}
			t.Fatalf("unexpected permanent error: %v", err)
		}
		out = append(out, u)
	}
}

func TestFaultsAreDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, DupProb: 0.2, ErrEvery: 13}
	a, aerrs := drainUpdates(t, Updates(bgp.NewSliceSource(mkUpdates(200)), cfg))
	b, berrs := drainUpdates(t, Updates(bgp.NewSliceSource(mkUpdates(200)), cfg))
	if !reflect.DeepEqual(a, b) || aerrs != berrs {
		t.Fatalf("same seed produced different schedules: %d vs %d records, %d vs %d errors",
			len(a), len(b), aerrs, berrs)
	}
	c, _ := drainUpdates(t, Updates(bgp.NewSliceSource(mkUpdates(200)), Config{Seed: 8, DupProb: 0.2}))
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestDupNonLossy(t *testing.T) {
	base := mkUpdates(500)
	cfg := Config{Seed: 42, DupProb: 0.15, ErrEvery: 97}
	got, transients := drainUpdates(t, Updates(bgp.NewSliceSource(base), cfg))
	if transients == 0 {
		t.Fatal("expected scheduled transient errors")
	}

	// Strip adjacent byte-identical duplicates; with strictly increasing
	// base timestamps these are exactly the injected duplicates.
	var dedup []bgp.Update
	dups := 0
	for i, u := range got {
		if i > 0 && reflect.DeepEqual(u, dedup[len(dedup)-1]) {
			dups++
			continue
		}
		dedup = append(dedup, u)
	}
	if dups == 0 {
		t.Fatal("expected injected duplicates")
	}
	if !reflect.DeepEqual(dedup, base) {
		t.Fatal("deduped stream is not the input")
	}
}

func TestTraceFaultsNonLossy(t *testing.T) {
	base := mkTraces(200)
	src := Traces(&traceSlice{traces: base}, Config{Seed: 11, DupProb: 0.2})
	var got []*traceroute.Traceroute
	for {
		tr, err := src.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		got = append(got, tr)
	}
	var dedup []*traceroute.Traceroute
	for i, tr := range got {
		if i > 0 && reflect.DeepEqual(tr, dedup[len(dedup)-1]) {
			// Injected duplicates must be copies, not aliases: the
			// pipeline may hand both to independent consumers.
			if tr == dedup[len(dedup)-1] {
				t.Fatal("duplicate trace aliases the original")
			}
			continue
		}
		dedup = append(dedup, tr)
	}
	if len(dedup) == len(got) {
		t.Fatal("expected injected duplicates")
	}
	if !reflect.DeepEqual(dedup, base) {
		t.Fatal("deduped stream is not the input")
	}
}

type traceSlice struct {
	traces []*traceroute.Traceroute
	i      int
}

func (s *traceSlice) Read() (*traceroute.Traceroute, error) {
	if s.i >= len(s.traces) {
		return nil, io.EOF
	}
	t := s.traces[s.i]
	s.i++
	return t, nil
}

func TestReplayableUpdatesResume(t *testing.T) {
	base := mkUpdates(100)
	f := NewReplayableUpdates(base, ReplayConfig{})
	src, err := f.Open(41)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	got, _ := drainUpdates(t, src)
	if len(got) != 60 || got[0].Time != 41 {
		t.Fatalf("resume at 41: got %d records starting at %d, want 60 starting at 41",
			len(got), got[0].Time)
	}
	if f.Opens() != 1 {
		t.Fatalf("opens = %d, want 1", f.Opens())
	}
}

func TestReplayableUpdatesFailSchedule(t *testing.T) {
	base := mkUpdates(100)
	f := NewReplayableUpdates(base, ReplayConfig{OpenErrs: 1, FailOpens: 1, FailAfter: 10})
	// First open fails outright, transiently.
	if _, err := f.Open(0); err == nil {
		t.Fatal("first open should fail")
	} else {
		var tmp interface{ Temporary() bool }
		if !errors.As(err, &tmp) || !tmp.Temporary() {
			t.Fatalf("open error should be transient, got %v", err)
		}
	}
	// Second open succeeds but breaks after 10 records.
	src, err := f.Open(0)
	if err != nil {
		t.Fatalf("second open: %v", err)
	}
	n := 0
	for {
		_, err := src.Read()
		if err != nil {
			var tmp interface{ Temporary() bool }
			if !errors.As(err, &tmp) || !tmp.Temporary() {
				t.Fatalf("want transient break, got %v", err)
			}
			break
		}
		n++
		if n > 20 {
			t.Fatal("second open never broke")
		}
	}
	if n != 10 {
		t.Fatalf("broke after %d records, want 10", n)
	}
	// Third open is clean end to end.
	src, err = f.Open(0)
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	got, transients := drainUpdates(t, src)
	if transients != 0 || len(got) != len(base) {
		t.Fatalf("third open: %d records, %d transients; want %d and 0",
			len(got), transients, len(base))
	}
}

func TestReaderTornReadsPreserveBytes(t *testing.T) {
	src := make([]byte, 4096)
	for i := range src {
		src[i] = byte(i * 31)
	}
	r := NewReader(bytesReader(src), 5, -1)
	r.TearProb = 0.7
	r.MaxTear = 3
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("readall: %v", err)
	}
	if !reflect.DeepEqual(got, src) {
		t.Fatal("torn reads corrupted the byte stream")
	}
}

func TestReaderTruncation(t *testing.T) {
	src := make([]byte, 100)
	r := NewReader(bytesReader(src), 1, 37)
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("readall: %v", err)
	}
	if len(got) != 37 {
		t.Fatalf("read %d bytes past truncation point 37", len(got))
	}
	// EOF is sticky.
	if n, err := r.Read(make([]byte, 8)); n != 0 || err != io.EOF {
		t.Fatalf("post-truncation read: n=%d err=%v", n, err)
	}
}

func TestReaderTransientErrAt(t *testing.T) {
	src := make([]byte, 100)
	for i := range src {
		src[i] = byte(i)
	}
	r := NewReader(bytesReader(src), 1, -1)
	r.ErrAt = 40
	buf := make([]byte, 16)
	read := 0
	sawErr := false
	for read < 100 {
		n, err := r.Read(buf)
		read += n
		if err != nil {
			if sawErr {
				t.Fatalf("second error: %v", err)
			}
			var tmp interface{ Temporary() bool }
			if !errors.As(err, &tmp) || !tmp.Temporary() {
				t.Fatalf("want transient error, got %v", err)
			}
			if read != 40 {
				t.Fatalf("error at byte %d, want 40", read)
			}
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("ErrAt never fired")
	}
}

// bytesReader avoids importing bytes just for a reader.
type sliceReader struct {
	b []byte
	i int
}

func bytesReader(b []byte) *sliceReader { return &sliceReader{b: b} }

func (r *sliceReader) Read(p []byte) (int, error) {
	if r.i >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.i:])
	r.i += n
	return n, nil
}

package feedwire

import (
	"io"
	"testing"

	"rrr/internal/bgp"
	"rrr/internal/traceroute"
	"rrr/internal/trie"
	"rrr/internal/wal"
)

// repeatReader yields b over and over: an endless stream of one record.
type repeatReader struct {
	b   []byte
	off int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.b[r.off:])
	r.off = (r.off + n) % len(r.b)
	return n, nil
}

// TestRecordCodecAllocs is the allocation budget of the record codec in
// steady state, on a warmed-up writer, reader and WAL: encoding appends
// into buffers the writer owns, and decoding allocates only what it
// returns — nothing for an update, which a Frame holds by value and whose
// path and communities the reader's bgp.Decoder carves from its chunks (a
// chunk per few hundred records, which the whole-number count below reads
// as 0), and the *Traceroute with its hops. The per-record bufio and
// bytes scratch this replaced read 8 / 3 / 6 / 1 / 10 / 2 / 4; before the
// Decoder's chunks the update readers read 3 and 2, and 1 while a Frame
// carried a *Update.
func TestRecordCodecAllocs(t *testing.T) {
	u := bgp.Update{Time: 1700000123, PeerIP: 0xc0000201, PeerAS: 64512, Type: bgp.Announce,
		Prefix: trie.MakePrefix(0x0a010000, 16), MED: 50,
		ASPath:      bgp.Path{64512, 3356, 1299, 2914, 15169},
		Communities: bgp.Communities{bgp.MakeCommunity(3356, 100), bgp.MakeCommunity(65535, 666), bgp.MakeCommunity(1299, 2000)}}
	tr := &traceroute.Traceroute{MsmID: 5001, ProbeID: 6012, Time: 1700000456, Src: 0x01000001, Dst: 0x04000009,
		Hops: []traceroute.Hop{{IP: 0x02000001, TTL: 1, RTT: 1.25}, {TTL: 2}, {IP: 0x04000009, TTL: 3, RTT: 37.5}}}

	w, err := wal.Open(wal.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Replay(nil); err != nil {
		t.Fatal(err)
	}
	fw := NewFrameWriter(io.Discard)
	updateFrame, err := wal.AppendUpdateFrame(nil, u)
	if err != nil {
		t.Fatal(err)
	}
	traceFrame, err := wal.AppendTraceFrame(nil, tr)
	if err != nil {
		t.Fatal(err)
	}
	record, err := bgp.AppendBinary(nil, u)
	if err != nil {
		t.Fatal(err)
	}
	updates := NewFrameReader(&repeatReader{b: updateFrame})
	traces := NewFrameReader(&repeatReader{b: traceFrame})
	binary := bgp.NewBinaryReader(&repeatReader{b: record})

	var errs []error
	check := func(err error) {
		if err != nil {
			errs = append(errs, err)
		}
	}
	read := func(fr *FrameReader) func() {
		return func() {
			_, err := fr.Read()
			check(err)
		}
	}
	cases := []struct {
		name   string
		budget float64
		run    func()
	}{
		{"WAL.AppendUpdate", 0, func() { check(w.AppendUpdate(u)) }},
		{"WAL.AppendTrace", 0, func() { check(w.AppendTrace(tr)) }},
		{"FrameWriter.WriteUpdate", 0, func() { check(fw.WriteUpdate(u)) }},
		{"FrameWriter.WriteTrace", 0, func() { check(fw.WriteTrace(tr)) }},
		{"FrameReader.Read update", 0, read(updates)},
		{"FrameReader.Read trace", 2, read(traces)},
		{"bgp.BinaryReader.Read", 0, func() {
			_, err := binary.Read()
			check(err)
		}},
	}
	for _, c := range cases {
		for i := 0; i < 100; i++ {
			c.run()
		}
		per := testing.AllocsPerRun(2000, c.run)
		if len(errs) > 0 {
			t.Fatalf("%s: %v", c.name, errs[0])
		}
		t.Logf("%s: %.2f allocations per record", c.name, per)
		if per > c.budget {
			t.Errorf("%s: %.2f allocations per record, budget %.0f", c.name, per, c.budget)
		}
	}
}

package wal

import (
	"testing"

	"rrr/internal/bgp"
	"rrr/internal/trie"
)

// TestReplayAllocs is the allocation budget of recovery: Open plus Replay
// of one 20 000-update segment allocate at most 0.01 times per record.
// Each update decodes into the scan's one scratch update, its path and
// communities carved from the decoder's chunks; what remains is per scan
// (the file, its reader) and per chunk. Boxing each update read 1.003.
func TestReplayAllocs(t *testing.T) {
	const records = 20000
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, SegmentBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Replay(nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < records; i++ {
		u := bgp.Update{Time: 1700000000 + int64(i), PeerIP: 0xc0000201 + uint32(i%7), PeerAS: 64512, Type: bgp.Announce,
			Prefix:      trie.MakePrefix(0x0a000000|uint32(i%251)<<8, 24),
			ASPath:      bgp.Path{64512, 3356, 1299, bgp.ASN(15169 + i%5)},
			Communities: bgp.Communities{bgp.MakeCommunity(3356, uint16(i%3))}}
		if err := w.AppendUpdate(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	seen := 0
	replay := func() {
		w, err := Open(Options{Dir: dir, SegmentBytes: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		seen = 0
		info, err := w.Replay(func(r Record) error {
			if r.Update != nil {
				seen++
			}
			return nil
		})
		if err != nil || info.Records != records || info.Segments != 1 {
			t.Fatalf("replay: %+v, %v; want %d records in one segment", info, err, records)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	perRecord := testing.AllocsPerRun(3, replay) / records
	if seen != records {
		t.Fatalf("callback saw %d records, want %d", seen, records)
	}
	t.Logf("%.4f allocations per record", perRecord)
	if perRecord > 0.01 {
		t.Errorf("Open+Replay allocates %.4f times per update record, budget 0.01", perRecord)
	}
}

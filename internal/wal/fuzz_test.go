package wal

import (
	"os"
	"path/filepath"
	"testing"

	"rrr/internal/bgp"
	"rrr/internal/trie"
)

// fuzzSeedSegment builds a small valid segment image for the seed corpus.
func fuzzSeedSegment(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := w.Replay(nil); err != nil {
		f.Fatal(err)
	}
	p, err := trie.ParsePrefix("4.0.0.0/8")
	if err != nil {
		f.Fatal(err)
	}
	u := bgp.Update{Time: 900, PeerIP: 0x05000009, PeerAS: 5, Type: bgp.Announce,
		Prefix: p, ASPath: bgp.Path{5, 2, 3, 4}}
	if err := w.AppendUpdate(u); err != nil {
		f.Fatal(err)
	}
	if err := w.AppendTrace(testTrace(905)); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzWALReader feeds arbitrary bytes to the segment reader as a log's
// final segment. The reader must never panic, and recovery must be
// idempotent: whatever Replay accepted (possibly after truncating a torn
// tail), a second Open+Replay of the same directory must succeed cleanly —
// same record count, no further truncation. A reader that "recovers" into
// a state it cannot itself re-read would strand the daemon on its second
// restart.
func FuzzWALReader(f *testing.F) {
	valid := fuzzSeedSegment(f)
	f.Add(valid)                                                                  // intact segment
	f.Add(valid[:len(valid)-3])                                                   // torn tail
	f.Add(append([]byte(nil), valid[:8]...))                                      // bare magic
	f.Add([]byte(segMagic[:5]))                                                   // segment shorter than magic
	f.Add([]byte{})                                                               // empty file
	f.Add([]byte("NOTAWAL!garbage"))                                              // wrong magic
	f.Add(append(append([]byte(nil), valid...), make([]byte, frameHeaderLen)...)) // zero-length frame
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0x01
	f.Add(flipped) // checksum mismatch in the last record

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err) // a single well-named segment must always list
		}
		info, err := w.Replay(nil)
		if err != nil {
			return // hard rejection (bad magic etc.) is a valid outcome
		}
		w.Close()

		w2, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("reopen after successful recovery: %v", err)
		}
		info2, err := w2.Replay(nil)
		if err != nil {
			t.Fatalf("second replay after successful recovery: %v", err)
		}
		w2.Close()
		if info2.Records != info.Records {
			t.Fatalf("second replay saw %d records, first saw %d", info2.Records, info.Records)
		}
		if info2.TruncatedTail {
			t.Fatal("second replay truncated again; recovery did not reach a fixed point")
		}
	})
}

package server

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"rrr"
)

// snapshotEnvelope wraps a monitor snapshot in the on-disk envelope at the
// given version, with the payload checksum from version 2 on.
func snapshotEnvelope(t testing.TB, snap *rrr.MonitorSnapshot, version int) []byte {
	t.Helper()
	payload, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	f := snapshotFile{Magic: snapshotMagic, Version: version, Monitor: payload}
	if version >= 2 {
		f.CRC32C = crc32.Checksum(payload, snapCRCTable)
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// newPrimedMonitor is a fresh monitor whose RIB routes the fixtures'
// destinations, so a restored trace registers BGP monitors as well as
// trace watchers.
func newPrimedMonitor(t testing.TB) *rrr.Monitor {
	t.Helper()
	m := newTestMonitor(t)
	m.ObserveBGP(announceUpd(t, 0, "5.0.0.9", 5, "4.0.0.0/8", []rrr.ASN{5, 2, 3, 4}))
	m.ObserveBGP(announceUpd(t, 0, "6.0.0.9", 6, "7.0.0.0/8", []rrr.ASN{6, 7}))
	return m
}

// FuzzRestoreSnapshot feeds arbitrary snapshot files through
// RestoreSnapshot into a fresh primed monitor, which re-registers every
// trace and re-injects every active signal. Restore must not panic; it
// either fails and leaves the monitor untracked, or the restored monitor's
// Snapshot restores into another fresh monitor whose Snapshot is the same.
// The seeds are a stale monitor's snapshot, a 300-hop trace crossing 149
// borders, and an active signal on a border its pair does not have, each
// also as a version-1 envelope, whose payload carries no checksum for
// mutations to break; and a null trace.
func FuzzRestoreSnapshot(f *testing.F) {
	stale, _, _ := newStaleMonitor(f)
	long := &rrr.Traceroute{Src: 0x01000001, Dst: 0x96000009, Time: 900}
	for i := 0; i < 300; i++ {
		as := uint32(1 + i/2) // two hops in each of ASes 1..150
		long.Hops = append(long.Hops, rrr.Hop{TTL: i + 1, IP: as<<24 | uint32(i+1)})
	}
	short := &rrr.Traceroute{Src: 0x01000001, Dst: 0x04000009, Time: 0,
		Hops: []rrr.Hop{{TTL: 1, IP: 0x01000002}, {TTL: 2, IP: 0x02000001}, {TTL: 3, IP: 0x03000001}, {TTL: 4, IP: 0x04000009}}}
	outOfRange := &rrr.MonitorSnapshot{WindowSec: 900, Cur: 45 * 900, Opened: true, Traces: []*rrr.Traceroute{short},
		Active: []rrr.Signal{{Technique: rrr.TechTraceSubpath, Key: short.Key(), MonitorID: 7, WindowStart: 44 * 900, Borders: []int{1 << 20}}}}
	for _, snap := range []*rrr.MonitorSnapshot{
		stale.Snapshot(),
		{WindowSec: 900, Traces: []*rrr.Traceroute{long}},
		outOfRange,
	} {
		if err := newPrimedMonitor(f).Restore(snap); err != nil {
			f.Fatalf("seed snapshot does not restore: %v", err)
		}
		f.Add(snapshotEnvelope(f, snap, 2))
		f.Add(snapshotEnvelope(f, snap, 1))
	}
	// A null trace once panicked Restore.
	f.Add(snapshotEnvelope(f, &rrr.MonitorSnapshot{WindowSec: 900, Traces: []*rrr.Traceroute{nil}}, 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "in.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m := newPrimedMonitor(t)
		if _, err := RestoreSnapshot(path, m); err != nil {
			if n := m.Counts().Tracked; n != 0 {
				t.Fatalf("failed restore (%v) left %d pairs tracked", err, n)
			}
			return
		}
		first, err := json.Marshal(m.Snapshot())
		if err != nil {
			t.Fatalf("restored monitor's snapshot does not encode: %v", err)
		}
		again := filepath.Join(dir, "again.json")
		if _, err := WriteSnapshot(again, m); err != nil {
			t.Fatal(err)
		}
		m2 := newPrimedMonitor(t)
		if _, err := RestoreSnapshot(again, m2); err != nil {
			t.Fatalf("restored monitor's own snapshot does not restore: %v", err)
		}
		second, err := json.Marshal(m2.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("snapshot does not round-trip:\n first  %s\n second %s", first, second)
		}
	})
}

package wal

import (
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"rrr/internal/bgp"
	"rrr/internal/traceroute"
	"rrr/internal/trie"
)

func testUpdate(t *testing.T, tm int64) bgp.Update {
	t.Helper()
	p, err := trie.ParsePrefix("4.0.0.0/8")
	if err != nil {
		t.Fatal(err)
	}
	return bgp.Update{
		Time:        tm,
		PeerIP:      0x05000009,
		PeerAS:      5,
		Type:        bgp.Announce,
		Prefix:      p,
		ASPath:      bgp.Path{5, 2, 3, 4},
		Communities: bgp.Communities{bgp.MakeCommunity(5, 100)},
		MED:         7,
	}
}

func testTrace(tm int64) *traceroute.Traceroute {
	return &traceroute.Traceroute{
		MsmID:   5051,
		ProbeID: 991,
		Time:    tm,
		Src:     0x01000001,
		Dst:     0x04000009,
		Reached: true,
		Hops: []traceroute.Hop{
			{IP: 0x01000002, RTT: 1.25, TTL: 1},
			{IP: 0x02000001, RTT: 9.5, TTL: 2},
			{IP: 0x04000009, RTT: 30.125, TTL: 3},
		},
	}
}

// openLog opens dir and runs Replay with a collecting callback.
func openLog(t *testing.T, opts Options) (*WAL, []Record, ReplayInfo) {
	t.Helper()
	w, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	info, err := w.Replay(func(r Record) error {
		if r.Update != nil {
			u := *r.Update // Replay reuses the update it points at
			r.Update = &u
		}
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, recs, info
}

// segPath returns the n'th segment file of dir in sequence order.
func segPath(t *testing.T, dir string, n int) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if n >= len(names) {
		t.Fatalf("want segment %d of %s, have %d", n, dir, len(names))
	}
	return names[n]
}

// TestWALRoundTrip: appended records come back byte-identical through a
// close/reopen/replay cycle, interleaved kinds included.
func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, recs, info := openLog(t, Options{Dir: dir})
	if info.Segments != 1 || info.Records != 0 || len(recs) != 0 {
		t.Fatalf("fresh log replay = %+v, %d records; want 1 empty segment", info, len(recs))
	}
	var want []Record
	for i := int64(0); i < 20; i++ {
		u := testUpdate(t, 900+i)
		if err := w.AppendUpdate(u); err != nil {
			t.Fatal(err)
		}
		want = append(want, Record{Update: &u})
		if i%3 == 0 {
			tr := testTrace(900 + i)
			if err := w.AppendTrace(tr); err != nil {
				t.Fatal(err)
			}
			want = append(want, Record{Trace: tr})
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, got, info := openLog(t, Options{Dir: dir})
	defer w2.Close()
	if info.TruncatedTail {
		t.Fatal("clean log replayed with a truncated tail")
	}
	if uint64(len(want)) != info.Records {
		t.Fatalf("ReplayInfo.Records = %d, want %d", info.Records, len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed records diverge:\n got  %+v\n want %+v", got, want)
	}
	st := w2.Status()
	if st.Records != uint64(len(want)) || st.Segments != 1 {
		t.Fatalf("Status = %+v, want %d records in 1 segment", st, len(want))
	}
}

// TestWALTornTailTruncated: a partial frame at the end of the final
// segment — the classic torn write — is truncated back to the last intact
// record, exactly, and the log keeps accepting appends there.
func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openLog(t, Options{Dir: dir})
	for i := int64(0); i < 5; i++ {
		if err := w.AppendUpdate(testUpdate(t, 900+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	seg := segPath(t, dir, 0)
	intact, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// A whole valid frame, then cut it short: header + half the payload.
	frame, err := AppendUpdateFrame(nil, testUpdate(t, 999))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:len(frame)-len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	truncBefore := metTruncations.Value()
	w2, recs, info := openLog(t, Options{Dir: dir})
	if !info.TruncatedTail {
		t.Fatal("torn tail not reported")
	}
	if len(recs) != 5 {
		t.Fatalf("replayed %d records past a torn tail, want 5 intact", len(recs))
	}
	if d := metTruncations.Value() - truncBefore; d != 1 {
		t.Fatalf("rrr_wal_tail_truncations_total delta = %d, want 1", d)
	}
	if fi, err := os.Stat(seg); err != nil || fi.Size() != intact.Size() {
		t.Fatalf("truncated segment is %d bytes, want exactly the intact %d", fi.Size(), intact.Size())
	}
	// The log must be appendable right where the truncation left it.
	if err := w2.AppendUpdate(testUpdate(t, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	w3, recs, info := openLog(t, Options{Dir: dir})
	defer w3.Close()
	if info.TruncatedTail || len(recs) != 6 {
		t.Fatalf("post-truncation append replay = %d records (truncated=%v), want 6 clean", len(recs), info.TruncatedTail)
	}
}

// TestWALBadChecksumTruncated: a bit flip in the final record's payload
// fails its CRC and truncates it away; the records before it survive.
func TestWALBadChecksumTruncated(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openLog(t, Options{Dir: dir})
	for i := int64(0); i < 4; i++ {
		if err := w.AppendUpdate(testUpdate(t, 900+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg := segPath(t, dir, 0)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, recs, info := openLog(t, Options{Dir: dir})
	defer w2.Close()
	if !info.TruncatedTail || len(recs) != 3 {
		t.Fatalf("bit-flipped tail: %d records, truncated=%v; want 3 records, truncated", len(recs), info.TruncatedTail)
	}
}

// TestWALZeroLengthRecordTruncated: a zero length field is invalid framing
// (length 0 is reserved), so the tail is cut there.
func TestWALZeroLengthRecordTruncated(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openLog(t, Options{Dir: dir})
	if err := w.AppendUpdate(testUpdate(t, 900)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg := segPath(t, dir, 0)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, frameHeaderLen)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	w2, recs, info := openLog(t, Options{Dir: dir})
	defer w2.Close()
	if !info.TruncatedTail || len(recs) != 1 {
		t.Fatalf("zero-length frame: %d records, truncated=%v; want 1 record, truncated", len(recs), info.TruncatedTail)
	}
}

// TestWALMidLogCorruptionFails: damage in a sealed (non-final) segment is
// lost durable data, which recovery must refuse to paper over.
func TestWALMidLogCorruptionFails(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openLog(t, Options{Dir: dir, SegmentBytes: 64}) // every record rotates
	for i := int64(0); i < 6; i++ {
		if err := w.AppendUpdate(testUpdate(t, 900+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg := segPath(t, dir, 0)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Replay(nil); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("mid-log corruption replay err = %v; want a hard checksum error", err)
	}
}

// TestWALBadMagicFails: a segment that does not start with the magic is
// not a WAL segment at all; no truncation heuristics apply.
func TestWALBadMagicFails(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), []byte("NOTAWAL!"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Replay(nil); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic replay err = %v; want a magic error", err)
	}
}

// TestWALShortMagicTruncatesToEmpty: a final segment shorter than its
// magic (crash during segment creation) is reset to an empty segment.
func TestWALShortMagicTruncatesToEmpty(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), []byte(segMagic[:3]), 0o644); err != nil {
		t.Fatal(err)
	}
	w, recs, info := openLog(t, Options{Dir: dir})
	if !info.TruncatedTail || len(recs) != 0 {
		t.Fatalf("short-magic segment: %d records, truncated=%v; want empty, truncated", len(recs), info.TruncatedTail)
	}
	if err := w.AppendUpdate(testUpdate(t, 900)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, recs, _ := openLog(t, Options{Dir: dir})
	defer w2.Close()
	if len(recs) != 1 {
		t.Fatalf("replayed %d records after rewriting a short-magic segment, want 1", len(recs))
	}
}

// TestWALForeignFileRejected: an unexpected .wal file name in the log dir
// aborts Open rather than being silently skipped or misordered.
func TestWALForeignFileRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "backup.wal"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); err == nil || !strings.Contains(err.Error(), "foreign") {
		t.Fatalf("Open with foreign file err = %v; want foreign-file error", err)
	}
}

// TestWALRotationAndCompaction: tiny segments force rotation; compaction
// removes exactly the sealed segments wholly behind the watermark and
// never touches the active one, so every record at or past the watermark
// survives a reopen.
func TestWALRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openLog(t, Options{Dir: dir, SegmentBytes: 64})
	for i := int64(0); i < 10; i++ {
		if err := w.AppendUpdate(testUpdate(t, 900*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	st := w.Status()
	if st.Segments < 3 {
		t.Fatalf("rotation produced %d segments, want several", st.Segments)
	}

	// Watermark at t=4500: records 900..3600 (four of them) are covered.
	const watermark = 4500
	n, err := w.Compact(watermark)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("compaction deleted nothing despite covered segments")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, recs, info := openLog(t, Options{Dir: dir})
	if info.TruncatedTail {
		t.Fatal("compaction left a torn tail")
	}
	var kept []int64
	for _, r := range recs {
		kept = append(kept, r.Time())
	}
	// The invariant: nothing at or past the watermark is gone.
	want := map[int64]bool{4500: false, 5400: false, 6300: false, 7200: false, 8100: false, 9000: false}
	for _, tm := range kept {
		if _, ok := want[tm]; ok {
			want[tm] = true
		}
	}
	for tm, seen := range want {
		if !seen {
			t.Fatalf("record at t=%d (>= watermark) lost by compaction; kept %v", tm, kept)
		}
	}

	// A watermark past everything still leaves the active segment alone.
	if _, err := w2.Compact(1 << 40); err != nil {
		t.Fatal(err)
	}
	if st := w2.Status(); st.Segments < 1 {
		t.Fatalf("compaction removed the active segment: %+v", st)
	}
	if err := w2.AppendUpdate(testUpdate(t, 10000)); err != nil {
		t.Fatalf("append after full compaction: %v", err)
	}
	w2.Close()
}

// TestWALFsyncPolicies pins each policy's sync cadence via the fsync
// counter: per-record syncs once per append, per-window once per window
// close (plus the final Close), and interval at most once per period.
func TestWALFsyncPolicies(t *testing.T) {
	t.Run("record", func(t *testing.T) {
		w, _, _ := openLog(t, Options{Dir: t.TempDir(), Fsync: FsyncEveryRecord})
		before := metFsyncs.Value()
		for i := int64(0); i < 5; i++ {
			if err := w.AppendUpdate(testUpdate(t, 900+i)); err != nil {
				t.Fatal(err)
			}
		}
		if d := metFsyncs.Value() - before; d != 5 {
			t.Fatalf("record policy fsyncs = %d for 5 appends, want 5", d)
		}
		w.Close()
	})
	t.Run("window", func(t *testing.T) {
		w, _, _ := openLog(t, Options{Dir: t.TempDir(), Fsync: FsyncOnWindowClose})
		before := metFsyncs.Value()
		for i := int64(0); i < 5; i++ {
			if err := w.AppendUpdate(testUpdate(t, 900+i)); err != nil {
				t.Fatal(err)
			}
		}
		if d := metFsyncs.Value() - before; d != 0 {
			t.Fatalf("window policy synced %d times before any window closed", d)
		}
		if err := w.WindowClosed(900); err != nil {
			t.Fatal(err)
		}
		if d := metFsyncs.Value() - before; d != 1 {
			t.Fatalf("window close fsyncs = %d, want 1", d)
		}
		// Nothing new appended: the next window close has nothing to sync.
		if err := w.WindowClosed(1800); err != nil {
			t.Fatal(err)
		}
		if d := metFsyncs.Value() - before; d != 1 {
			t.Fatalf("idle window close synced again (%d total)", d)
		}
		w.Close()
	})
	t.Run("interval", func(t *testing.T) {
		w, _, _ := openLog(t, Options{Dir: t.TempDir(), Fsync: FsyncInterval, FsyncInterval: time.Hour})
		before := metFsyncs.Value()
		for i := int64(0); i < 5; i++ {
			if err := w.AppendUpdate(testUpdate(t, 900+i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.WindowClosed(900); err != nil {
			t.Fatal(err)
		}
		if d := metFsyncs.Value() - before; d != 0 {
			t.Fatalf("hour-interval policy synced %d times within the hour", d)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		if d := metFsyncs.Value() - before; d != 1 {
			t.Fatalf("explicit Sync fsyncs = %d, want 1", d)
		}
		w.Close()
	})
}

// TestWALLifecycleErrors: appends before Replay, double Replay, and
// appends after Close are all refused.
func TestWALLifecycleErrors(t *testing.T) {
	w, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendUpdate(testUpdate(t, 1)); err == nil {
		t.Fatal("append before Replay succeeded")
	}
	if _, err := w.Compact(0); err == nil {
		t.Fatal("compact before Replay succeeded")
	}
	if _, err := w.Replay(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Replay(nil); err == nil {
		t.Fatal("second Replay succeeded")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendUpdate(testUpdate(t, 1)); err == nil {
		t.Fatal("append after Close succeeded")
	}
	if err := w.Close(); err != nil {
		t.Fatal("Close is not idempotent:", err)
	}
}

// TestWALSyncFailureSurfaces: a failing fsync (disk trouble) propagates
// out of a per-record append instead of being swallowed.
func TestWALSyncFailureSurfaces(t *testing.T) {
	w, _, _ := openLog(t, Options{Dir: t.TempDir(), Fsync: FsyncEveryRecord})
	defer w.Close()
	diskErr := errors.New("injected: no space left on device")
	w.SetFailSync(diskErr)
	if err := w.AppendUpdate(testUpdate(t, 900)); !errors.Is(err, diskErr) {
		t.Fatalf("append with failing sync err = %v, want the disk error", err)
	}
}

// TestWALSimulatedCrashLosesOnlyUnsynced: after a crash mid-buffer, replay
// recovers at least everything synced and never a record that was not
// appended; a partial page flush leaves a torn tail that truncates.
func TestWALSimulatedCrashLosesOnlyUnsynced(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openLog(t, Options{Dir: dir, Fsync: FsyncOnWindowClose})
	for i := int64(0); i < 4; i++ {
		if err := w.AppendUpdate(testUpdate(t, 900+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.WindowClosed(900); err != nil { // records 0..3 now durable
		t.Fatal(err)
	}
	w.SetCrashAfterAppends(6, 13) // two more buffered, then die mid-page
	for i := int64(4); i < 6; i++ {
		if err := w.AppendUpdate(testUpdate(t, 900+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.AppendUpdate(testUpdate(t, 907)); !errors.Is(err, ErrSimulatedCrash) {
		t.Fatalf("armed append err = %v, want simulated crash", err)
	}
	// Post-crash calls are inert, as the drain path relies on.
	if err := w.WindowClosed(1800); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, recs, info := openLog(t, Options{Dir: dir})
	defer w2.Close()
	if len(recs) < 4 || len(recs) > 6 {
		t.Fatalf("recovered %d records; want the 4 synced ones and at most the 2 buffered", len(recs))
	}
	if !info.TruncatedTail {
		t.Fatal("13-byte partial page did not leave a torn tail")
	}
}

// TestParseFsyncPolicy covers the flag grammar.
func TestParseFsyncPolicy(t *testing.T) {
	cases := []struct {
		in       string
		policy   FsyncPolicy
		interval time.Duration
		wantErr  bool
	}{
		{"record", FsyncEveryRecord, 0, false},
		{"always", FsyncEveryRecord, 0, false},
		{"window", FsyncOnWindowClose, 0, false},
		{"", FsyncOnWindowClose, 0, false},
		{"2s", FsyncInterval, 2 * time.Second, false},
		{"-1s", 0, 0, true},
		{"often", 0, 0, true},
	}
	for _, c := range cases {
		p, d, err := ParseFsyncPolicy(c.in)
		if c.wantErr {
			if err == nil {
				t.Fatalf("ParseFsyncPolicy(%q) accepted", c.in)
			}
			continue
		}
		if err != nil || p != c.policy || d != c.interval {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v, %v; want %v, %v", c.in, p, d, err, c.policy, c.interval)
		}
	}
}

// TestRecordFrameGolden pins the record frame bytes the log writes and
// the feed wire sends: an update with a 5-hop path and 3 communities, a
// withdrawal with neither, a trace with hops and one without. Each frame
// is appended after an existing byte, which must survive, and decodes
// back to the record it was built from.
func TestRecordFrameGolden(t *testing.T) {
	ups := []bgp.Update{
		{Time: 1700000123, PeerIP: 0xc0000201, PeerAS: 64512, Type: bgp.Announce,
			Prefix: trie.MakePrefix(0x0a010000, 16), MED: 50,
			ASPath: bgp.Path{64512, 3356, 1299, 2914, 15169},
			Communities: bgp.Communities{bgp.MakeCommunity(3356, 100), bgp.MakeCommunity(65535, 666),
				bgp.MakeCommunity(1299, 2000)}},
		{Time: -7, PeerIP: 0x0a000001, PeerAS: 4200000000, Type: bgp.Withdraw,
			Prefix: trie.MakePrefix(0xc6336400, 24)},
	}
	trs := []*traceroute.Traceroute{
		{MsmID: 5001, ProbeID: 6012, Time: 1700000456, Src: 0x01000001, Dst: 0x04000009, Reached: true,
			Hops: []traceroute.Hop{{IP: 0x02000001, TTL: 1, RTT: 1.25}, {TTL: 2}, {IP: 0x04000009, TTL: 3, RTT: 37.5}}},
		{MsmID: -1, ProbeID: -2, Time: 0, Src: 0x7f000001, Dst: 0x08080808},
	}
	golden := []string{
		"00000042b0f540d101b64d0100000000006553f17bc00002010000fc000a010000100000003200050000fc0000000d1c0000051300000b6200003b4100030d1c0064ffff029a051307d0",
		"00000022020dea5501b64d0101fffffffffffffff90a000001fa56ea00c6336400180000000000000000",
		"00000054ab8c331f020000000000001389000000000000177c000000006553f2c80100000104000009010003020000013ff40000000000000000000100000000000000000000000000000002040000094042c0000000000000000003",
		"00000024a6874f6e02fffffffffffffffffffffffffffffffe00000000000000007f00000108080808000000",
	}
	check := func(i int, b []byte, err error, want Record) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(b[1:]); got != golden[i] || b[0] != 0xee {
			t.Errorf("frame %d = %s, want %s after the existing byte", i, got, golden[i])
		}
		var dec bgp.Decoder
		u, tr, err := DecodeRecordParts(&dec, b[1+frameHeaderLen:])
		rec := Record{Trace: tr}
		if tr == nil {
			rec.Update = &u
		}
		if err != nil || !reflect.DeepEqual(rec, want) {
			t.Errorf("frame %d decodes to %+v, %v; want %+v", i, rec, err, want)
		}
	}
	for i, u := range ups {
		b, err := AppendUpdateFrame([]byte{0xee}, u)
		check(i, b, err, Record{Update: &u})
	}
	for i, tr := range trs {
		b, err := AppendTraceFrame([]byte{0xee}, tr)
		check(len(ups)+i, b, err, Record{Trace: tr})
	}
	if b, err := AppendTraceFrame([]byte{0xee}, nil); err == nil || len(b) != 1 {
		t.Errorf("AppendTraceFrame(nil) = %x, %v; want the input back and an error", b, err)
	}
}

package server

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"rrr"
	"rrr/internal/wal"
)

// TestHealthzAlwaysLive: liveness answers 200 from the moment the mux
// exists, readiness state notwithstanding — orchestrators must not restart
// a daemon that is alive but still replaying its WAL.
func TestHealthzAlwaysLive(t *testing.T) {
	srv := New(newTestMonitor(t), Config{})
	srv.SetReady(false)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var out map[string]string
	if code := getJSON(t, ts, "/healthz", &out); code != 200 {
		t.Fatalf("/healthz -> %d during recovery, want 200", code)
	}
}

// TestReadyzGatesOnRecovery: a fresh server is ready (no recovery to
// wait for); SetReady(false) flips /readyz to 503 with a recovering body,
// SetReady(true) restores 200.
func TestReadyzGatesOnRecovery(t *testing.T) {
	srv := New(newTestMonitor(t), Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var out map[string]string
	if code := getJSON(t, ts, "/readyz", &out); code != 200 || out["status"] != "ready" {
		t.Fatalf("/readyz on a fresh server -> %d %v, want 200 ready", code, out)
	}
	srv.SetReady(false)
	if code := getJSON(t, ts, "/readyz", &out); code != 503 || out["status"] != "recovering" {
		t.Fatalf("/readyz during recovery -> %d %v, want 503 recovering", code, out)
	}
	srv.SetReady(true)
	if code := getJSON(t, ts, "/readyz", &out); code != 200 {
		t.Fatalf("/readyz after recovery -> %d, want 200", code)
	}
}

// TestStatsIncludesWALStatus: wiring a WALStatus source surfaces the log's
// shape in /v1/stats; without one the field is omitted entirely.
func TestStatsIncludesWALStatus(t *testing.T) {
	m, _, _ := newStaleMonitor(t)
	dir := t.TempDir()
	w, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Replay(nil); err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.AppendUpdate(announceUpd(t, 900, "5.0.0.9", 5, "4.0.0.0/8", []rrr.ASN{5, 2, 3, 4})); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(New(m, Config{WALStatus: w.Status}).Handler())
	defer ts.Close()
	var st Stats
	if code := getJSON(t, ts, "/v1/stats", &st); code != 200 {
		t.Fatalf("/v1/stats -> %d", code)
	}
	if st.WAL == nil {
		t.Fatal("stats omit the WAL status despite a configured source")
	}
	if st.WAL.Records != 1 || st.WAL.Segments != 1 || st.WAL.FsyncPolicy != "window" {
		t.Fatalf("stats WAL = %+v, want 1 record, 1 segment, window policy", st.WAL)
	}

	tsNo := httptest.NewServer(New(newTestMonitor(t), Config{}).Handler())
	defer tsNo.Close()
	var raw map[string]json.RawMessage
	if code := getJSON(t, tsNo, "/v1/stats", &raw); code != 200 {
		t.Fatalf("/v1/stats -> %d", code)
	}
	if _, present := raw["wal"]; present {
		t.Fatal("stats include a wal field with no WAL configured")
	}
}

// TestSnapshotChecksumRejectsCorruption: a version-2 snapshot whose
// payload decayed into different-but-valid JSON (the failure mode a plain
// parse cannot see) is refused with a checksum error.
func TestSnapshotChecksumRejectsCorruption(t *testing.T) {
	m, _, _ := newStaleMonitor(t)
	path := t.TempDir() + "/snap.json"
	if _, err := WriteSnapshot(path, m); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one digit inside the payload: still valid JSON, different state.
	mutated := strings.Replace(string(data), `"WindowSec":900`, `"WindowSec":901`, 1)
	if mutated == string(data) {
		t.Fatal("test corruption found nothing to mutate")
	}
	if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadSnapshot(path); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupted snapshot load err = %v, want checksum mismatch", err)
	}
}

// TestSnapshotVersion1StillLoads: pre-checksum snapshots (version 1, no
// crc32c field) written by earlier builds keep loading.
func TestSnapshotVersion1StillLoads(t *testing.T) {
	m, stale, _ := newStaleMonitor(t)
	path := t.TempDir() + "/snap.json"
	if _, err := WriteSnapshot(path, m); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the envelope as a v1 file: version 1, no checksum.
	var f snapshotFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	f.Version = 1
	f.CRC32C = 0
	v1, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := newTestMonitor(t)
	info, err := RestoreSnapshot(path, m2)
	if err != nil {
		t.Fatalf("version-1 snapshot refused: %v", err)
	}
	if info.Entries != 2 {
		t.Fatalf("restored %d entries from v1 snapshot, want 2", info.Entries)
	}
	if !m2.Stale(stale.Key()) {
		t.Fatal("v1 restore lost the stale verdict")
	}
}

// TestSnapshotVersionBeyondBuildRejected: future versions fail loudly
// instead of restoring a format this build cannot verify.
func TestSnapshotVersionBeyondBuildRejected(t *testing.T) {
	m, _, _ := newStaleMonitor(t)
	path := t.TempDir() + "/snap.json"
	if _, err := WriteSnapshot(path, m); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f snapshotFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	f.Version = snapshotVersion + 1
	fut, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadSnapshot(path); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future-version load err = %v, want version error", err)
	}
}

// TestSnapshotLatencyCountsFailures: the write/load histograms must record
// failed attempts too — a latency view that silently excludes the slow
// failing path would send an operator chasing the wrong problem.
func TestSnapshotLatencyCountsFailures(t *testing.T) {
	m, _, _ := newStaleMonitor(t)
	dir := t.TempDir()

	writeBefore := metSnapWriteSeconds.Count()
	origSync := snapSync
	snapSync = func(*os.File) error { return os.ErrDeadlineExceeded }
	_, err := WriteSnapshot(dir+"/snap.json", m)
	snapSync = origSync
	if err == nil {
		t.Fatal("snapshot write with failing sync succeeded")
	}
	if d := metSnapWriteSeconds.Count() - writeBefore; d != 1 {
		t.Fatalf("write latency histogram count delta = %d for a failed write, want 1", d)
	}

	loadBefore := metSnapLoadSeconds.Count()
	if _, err := loadSnapshot(dir + "/absent.json"); err == nil {
		t.Fatal("loading a missing snapshot succeeded")
	}
	if d := metSnapLoadSeconds.Count() - loadBefore; d != 1 {
		t.Fatalf("load latency histogram count delta = %d for a failed load, want 1", d)
	}
}

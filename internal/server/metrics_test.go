package server

import (
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"rrr"
)

// promSample matches one exposition sample line: name{labels} value.
var promSample = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\+Inf|-?[0-9.eE+-]+)$`)

// scrapeFamilies GETs /metrics and returns the set of family names seen in
// sample lines (histogram _bucket/_sum/_count collapse to their base name),
// failing the test on any malformed line.
func scrapeFamilies(t *testing.T, ts *httptest.Server) map[string]bool {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed exposition line %q", line)
		}
		name := m[1]
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			name = strings.TrimSuffix(name, suf)
		}
		fams[name] = true
	}
	return fams
}

// TestMetricsEndpoint checks the daemon's scrape surface: parseable
// exposition, stable series names, and coverage of every instrumented
// layer (pipeline, monitor, engine, hub, snapshot).
func TestMetricsEndpoint(t *testing.T) {
	mon, stale, _ := newStaleMonitor(t)
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "snap.json")
	srv := New(mon, Config{SnapshotPath: snapPath})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Touch the hub and snapshot paths so their counters move.
	sub := srv.hub.subscribe()
	srv.Publish(rrr.Signal{Key: stale.Key()})
	srv.hub.unsubscribe(sub)
	if code := postJSON(t, ts, "/v1/snapshot", nil, nil); code != 200 {
		t.Fatalf("POST /v1/snapshot = %d", code)
	}

	fams := scrapeFamilies(t, ts)
	want := []string{
		// pipeline layer (registered at package init even when idle)
		"rrr_pipeline_updates_total",
		"rrr_pipeline_traces_total",
		"rrr_pipeline_windows_closed_total",
		"rrr_pipeline_update_queue_depth",
		"rrr_pipeline_trace_queue_depth",
		"rrr_pipeline_merge_stall_seconds",
		"rrr_pipeline_feed_errors_total",
		// monitor layer
		"rrr_monitor_tracked_pairs",
		"rrr_monitor_stale_pairs",
		"rrr_monitor_windows_closed_total",
		"rrr_monitor_refreshes_total",
		"rrr_monitor_signals_total",
		// engine
		"rrr_engine_observations_total",
		"rrr_shard_close_window_seconds",
		"rrr_series",
		"rrr_series_subscribers",
		// serve-path admission control
		"rrr_server_inflight",
		"rrr_server_shed_total",
		// serving hub
		"rrr_hub_subscribers",
		"rrr_hub_published_total",
		"rrr_hub_dropped_total",
		// snapshot I/O
		"rrr_snapshot_writes_total",
		"rrr_snapshot_write_seconds",
		"rrr_snapshot_last_bytes",
	}
	for _, name := range want {
		if !fams[name] {
			t.Errorf("missing family %s", name)
		}
	}
	if len(fams) < 15 {
		t.Fatalf("only %d families exposed; want >= 15", len(fams))
	}
}

// TestMetricsScrapeUnderIngest scrapes /metrics while feeds are ingesting
// and windows are closing; run under -race this proves the registry's
// lock-free claim end to end.
func TestMetricsScrapeUnderIngest(t *testing.T) {
	mon, _, _ := newStaleMonitor(t)
	srv := New(mon, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for w := int64(47); w < 87; w++ {
			mon.ObserveBGP(announceUpd(t, w*900+5, "5.0.0.9", 5, "4.0.0.0/8", []rrr.ASN{5, 2, 9, 4}))
			mon.Advance((w + 1) * 900)
		}
	}()
	for i := 0; i < 30; i++ {
		scrapeFamilies(t, ts)
	}
	wg.Wait()
}

// TestWriteJSONEncodeFailure pins the empty-200 regression: a value
// encoding/json rejects (here a non-finite float) must produce a 500 with
// a JSON body, not a 200 with Content-Length: 0. Signals used to smuggle
// +Inf scores into verdict responses exactly this way.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, 200, map[string]float64{"score": math.Inf(1)})
	if rec.Code != 500 {
		t.Fatalf("code = %d; want 500", rec.Code)
	}
	var out map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	if out["error"] == "" {
		t.Fatalf("body = %q; want an error field", rec.Body.String())
	}
}

// TestWriteSnapshotCleansTmp checks the durability satellite: a failed
// rename must not leave path+".tmp" lying next to the (absent) snapshot.
func TestWriteSnapshotCleansTmp(t *testing.T) {
	mon, _, _ := newStaleMonitor(t)
	dir := t.TempDir()
	// The destination is an existing non-empty directory, so the final
	// rename fails after the temp file was written and synced.
	path := filepath.Join(dir, "snap")
	if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteSnapshot(path, mon); err == nil {
		t.Fatal("WriteSnapshot onto a directory succeeded")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: stat err = %v", err)
	}
}

// TestWriteSnapshotDurableRoundTrip covers the happy path of the new
// write sequence: the file lands under its final name only, and loads back.
func TestWriteSnapshotDurableRoundTrip(t *testing.T) {
	mon, staleTr, _ := newStaleMonitor(t)
	path := filepath.Join(t.TempDir(), "snap.json")
	info, err := WriteSnapshot(path, mon)
	if err != nil {
		t.Fatal(err)
	}
	if info.Entries != 2 || info.Bytes <= 0 {
		t.Fatalf("info = %+v", info)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file survived success: stat err = %v", err)
	}
	snap, err := loadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Traces) != 2 {
		t.Fatalf("loaded %d traces; want 2", len(snap.Traces))
	}
	found := false
	for _, s := range snap.Active {
		if s.Key == staleTr.Key() {
			found = true
		}
	}
	if !found {
		t.Fatal("stale pair's signals missing from snapshot")
	}
}

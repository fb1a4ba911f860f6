package daemon_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"rrr"
	"rrr/internal/daemon"
	"rrr/internal/experiments"
	"rrr/internal/netsim"
	"rrr/internal/wal"
)

// TestRestartDifferential is rrrd run to the end of its feed with a WAL,
// then started again over the same log. The second process ingests nothing
// new: it replays every window the first one served and closes the last.
// The replay drives the pipeline's own hooks, the event detector included,
// so GET /v1/events and GET /v1/stats must come back byte for byte.
func TestRestartDifferential(t *testing.T) {
	sc := quickScale(t, 2)
	pack := netsim.FullPack()
	sc.Scenario = &pack
	walDir := t.TempDir()

	events1, stats1 := restartRun(t, sc, walDir)
	var got struct{ Count int }
	if err := json.Unmarshal(events1, &got); err != nil {
		t.Fatalf("/v1/events %s: %v", events1, err)
	}
	if got.Count == 0 {
		t.Fatal("first run classified no events; the comparison would be vacuous")
	}
	events2, stats2 := restartRun(t, sc, walDir)
	if string(events2) != string(events1) {
		t.Errorf("/v1/events after restart:\n got  %s\n want %s", events2, events1)
	}
	if string(stats2) != string(stats1) {
		t.Errorf("/v1/stats after restart:\n got  %s\n want %s", stats2, stats1)
	}
	t.Logf("first run: %d events, %d stats bytes", got.Count, len(stats1))
}

// restartRun is one rrrd process over the WAL in walDir — New, Track,
// Recover, ingest to the end of the feed — and returns the GET /v1/events
// and GET /v1/stats bodies it serves at the end.
func restartRun(t *testing.T, sc experiments.Scale, walDir string) (events, stats []byte) {
	t.Helper()
	w, err := wal.Open(wal.Options{Dir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	d, err := daemon.New(sc, daemon.Options{WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	if tracked, _, _ := d.Track(); tracked == 0 {
		t.Fatal("daemon tracks no pairs")
	}
	if _, _, err := d.Recover(nil); err != nil {
		t.Fatal(err)
	}
	cfg := d.Pipeline(nil, daemon.DefaultRetry)
	recordFeeds(t, &cfg)
	if err := rrr.RunPipeline(context.Background(), d.Mon, cfg); err != nil {
		t.Fatal(err)
	}
	get := func(path string) []byte {
		rec := httptest.NewRecorder()
		d.Srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s = %d %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	return get("/v1/events"), get("/v1/stats")
}

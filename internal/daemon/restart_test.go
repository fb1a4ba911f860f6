package daemon_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"rrr"
	"rrr/internal/daemon"
	"rrr/internal/experiments"
	"rrr/internal/faultfeed"
	"rrr/internal/netsim"
	"rrr/internal/wal"
)

// TestRestartDifferential is rrrd run to the end of its feed with a WAL,
// then started again over the same log. The second process ingests nothing
// new: it replays every window the first one served and closes the last.
// The replay drives the pipeline's own hooks, the event detector included,
// so /v1/keys, the full-corpus /v1/stale, /v1/stats and /v1/events must
// come back byte for byte.
func TestRestartDifferential(t *testing.T) {
	sc := quickScale(t, 2)
	pack := netsim.FullPack()
	sc.Scenario = &pack
	walDir := t.TempDir()

	first := restartRun(t, sc, walDir)
	var got struct{ Count int }
	if err := json.Unmarshal([]byte(first.Events), &got); err != nil {
		t.Fatalf("/v1/events %s: %v", first.Events, err)
	}
	if got.Count == 0 {
		t.Fatal("first run classified no events; the comparison would be vacuous")
	}
	faultfeed.Sides{Want: "first", Got: "restarted"}.Compare(t, first, restartRun(t, sc, walDir))
	t.Logf("first run: %d events, %d stats bytes", got.Count, len(first.Stats))
}

// restartRun is one rrrd process over the WAL in walDir — New, Track,
// Recover, ingest to the end of the feed — and returns what it serves at
// the end.
func restartRun(t *testing.T, sc experiments.Scale, walDir string) faultfeed.Surfaces {
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
	ts := httptest.NewServer(d.Srv.Handler())
	defer ts.Close()
	return faultfeed.ReadSurfaces(t, ts.URL)
}

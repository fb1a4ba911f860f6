package daemon_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rrr"
	"rrr/internal/daemon"
	"rrr/internal/experiments"
	"rrr/internal/faultfeed"
	"rrr/internal/server"
	"rrr/internal/wal"
)

// quickScale is `rrrd -scale quick -days N`.
func quickScale(t *testing.T, days int) experiments.Scale {
	t.Helper()
	sc, err := experiments.ScaleByName("quick", days, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// runToEOF drives one rrrd incarnation the way cmd/rrrd does — track or
// restore, recover, ingest until the feed ends, snapshot on the way out —
// and returns the /v1/stats it served last.
func runToEOF(t *testing.T, walDir, snapshot string, restore bool) server.Stats {
	t.Helper()
	var opts daemon.Options
	if walDir != "" {
		w, err := wal.Open(wal.Options{Dir: walDir, SegmentBytes: 64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		opts.WAL = w
	}
	d, err := daemon.New(quickScale(t, 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if restore {
		if _, err := d.Restore(snapshot); err != nil {
			t.Fatal(err)
		}
	} else if tracked, _, _ := d.Track(); tracked == 0 {
		t.Fatal("daemon tracks no pairs")
	}
	if _, _, err := d.Recover(nil); err != nil {
		t.Fatal(err)
	}
	if err := rrr.RunPipeline(context.Background(), d.Mon, d.Pipeline(nil, daemon.DefaultRetry)); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	d.Srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	var st server.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("/v1/stats -> %d %s: %v", rec.Code, rec.Body, err)
	}
	info, c, err := d.Snapshot(snapshot)
	if err != nil || c.Err != nil {
		t.Fatalf("snapshot: %v, compaction: %v", err, c.Err)
	}
	if info.Signals != st.TotalSignals-st.RevokedSignals {
		t.Fatalf("snapshot holds %d signals, stats say %d emitted and %d revoked", info.Signals, st.TotalSignals, st.RevokedSignals)
	}
	return st
}

// TestRestoreRoundTrip is `rrrd -days 1 -snapshot s` followed by the same
// command with -restore, with and without -wal-dir. The second process has
// nothing left to ingest: it must resume at the snapshot's watermark rather
// than re-read the regenerated feed from t=0 (which doubled every counter),
// and the restored signals must survive the one window it closes (fresh
// monitors read as "back at baseline" and revoked all of them).
func TestRestoreRoundTrip(t *testing.T) {
	for _, withWAL := range []bool{false, true} {
		name := "snapshot only"
		if withWAL {
			name = "snapshot and wal"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			snapshot := filepath.Join(dir, "rrr.snap")
			walDir := ""
			if withWAL {
				walDir = filepath.Join(dir, "wal")
			}
			first := runToEOF(t, walDir, snapshot, false)
			if first.TotalSignals == 0 || first.StaleKeys == 0 {
				t.Fatalf("first run: %d signals, %d stale keys; the round trip would be vacuous", first.TotalSignals, first.StaleKeys)
			}
			second := runToEOF(t, walDir, snapshot, true)

			// The resumed, empty open window closes at EOF.
			if second.WindowsClosed != first.WindowsClosed+1 {
				t.Errorf("windowsClosed = %d after restore, want %d", second.WindowsClosed, first.WindowsClosed+1)
			}
			if second.TotalSignals != first.TotalSignals || !reflect.DeepEqual(second.Signals, first.Signals) {
				t.Errorf("signals = %d %v after restore, want %d %v", second.TotalSignals, second.Signals, first.TotalSignals, first.Signals)
			}
			if second.StaleKeys != first.StaleKeys {
				t.Errorf("staleKeys = %d after restore, want %d", second.StaleKeys, first.StaleKeys)
			}
			if second.RevokedSignals != first.RevokedSignals || second.RevokedPairEvents != first.RevokedPairEvents {
				t.Errorf("revoked = %d signals / %d pair events after restore, want %d / %d",
					second.RevokedSignals, second.RevokedPairEvents, first.RevokedSignals, first.RevokedPairEvents)
			}
		})
	}
}

// TestLabMatchesDaemon: the paper's experiments and rrrd are one program.
// Over one quick-scale day with no refreshes, the experiments Lab's signal
// stream is, signal for signal, the stream of the rrrd that daemon.New,
// Track, Recover and the pipeline assemble. Seed 1's first day carries
// only BGP signals, which the two agreed on even when the Lab generated
// its own traceroutes, so the test runs five seeds.
func TestLabMatchesDaemon(t *testing.T) {
	total := 0
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sc := quickScale(t, 1)
			sc.SimCfg.Seed = seed
			got, gotWindows := labSignals(sc)
			want, wantWindows := daemonSignals(t, sc)
			faultfeed.Sides{Want: "daemon", Got: "lab"}.Diff(t, "signals", strings.Join(want, "\n"), strings.Join(got, "\n"))
			if gotWindows != wantWindows {
				t.Fatalf("lab closed %d windows, daemon %d", gotWindows, wantWindows)
			}
			t.Logf("%d signals over %d windows, identical", len(want), wantWindows)
			total += len(want)
		})
	}
	if total == 0 {
		t.Fatal("no seed signalled anything; the comparison was vacuous")
	}
}

// labSignals runs the experiments Lab over sc's feed with no refreshes.
func labSignals(sc experiments.Scale) ([]string, int) {
	lab := experiments.NewLab(sc)
	lab.BuildCorpus()
	var out []string
	for {
		_, sigs, ok := lab.Window()
		if !ok {
			break
		}
		for _, s := range sigs {
			out = append(out, s.String())
		}
	}
	return out, lab.Mon.WindowsClosed()
}

// daemonSignals runs rrrd's assembly over sc's feed, recorded first (see
// recordFeeds).
func daemonSignals(t *testing.T, sc experiments.Scale) ([]string, int) {
	t.Helper()
	d, err := daemon.New(sc, daemon.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.Track()
	if _, _, err := d.Recover(nil); err != nil {
		t.Fatal(err)
	}
	var out []string
	cfg := d.Pipeline(func(s rrr.Signal) { out = append(out, s.String()) }, daemon.DefaultRetry)
	recordFeeds(t, &cfg)
	if err := rrr.RunPipeline(context.Background(), d.Mon, cfg); err != nil {
		t.Fatal(err)
	}
	return out, d.Mon.WindowsClosed()
}

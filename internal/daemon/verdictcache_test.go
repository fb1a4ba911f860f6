package daemon_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"rrr"
	"rrr/internal/bgp"
	"rrr/internal/daemon"
	"rrr/internal/server"
)

// staleBatch is a POST /v1/stale body asking for every tracked key plus one
// untracked 240.x key per ten tracked ones.
func staleBatch(t *testing.T, mon *rrr.Monitor) []byte {
	t.Helper()
	var names []string
	for _, k := range mon.Tracked() {
		names = append(names, server.FormatKey(k))
	}
	for i := len(names) / 10; i > 0; i-- {
		names = append(names, fmt.Sprintf("240.%d.%d.1-240.%d.%d.2", i>>8, i&0xff, i>>8, i&0xff))
	}
	body, err := json.Marshal(map[string][]string{"keys": names})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// recordFeeds runs the environment's simulated feeds to their end before
// the pipeline starts and points cfg at the recorded slices. Stepping the
// simulator grows its topology (IXP joins add interfaces) while the
// monitor's mapper reads that topology; on the pipeline's feed goroutines
// the two race, a defect of the simulated environment these tests are not
// about.
func recordFeeds(t *testing.T, cfg *rrr.PipelineConfig) {
	t.Helper()
	var ups []rrr.Update
	for {
		u, err := cfg.Updates.Read()
		if err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		ups = append(ups, u)
	}
	var trs []*rrr.Traceroute
	for {
		tr, err := cfg.Traces.Read()
		if err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		trs = append(trs, tr)
	}
	cfg.Updates, cfg.Traces = bgp.NewSliceSource(ups), rrr.NewTraceSliceSource(trs)
}

// postStale answers body through h, or reports why it could not.
func postStale(h http.Handler, body []byte) ([]byte, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/stale", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("POST /v1/stale = %d %s", rec.Code, rec.Body)
	}
	return rec.Body.Bytes(), nil
}

// TestVerdictCacheDifferential reads every key from one long-lived server
// after every window close and every refresh of a four-day run, and compares
// the answer with a fresh server's over the same monitor: whatever the
// long-lived cache carried over a transition must be what the monitor says
// now. Four days, because a one-day run revokes nothing, and revocation is
// the close's other way of changing a verdict.
func TestVerdictCacheDifferential(t *testing.T) {
	sc := quickScale(t, 4)
	d, err := daemon.New(sc, daemon.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tracked, _, _ := d.Track(); tracked == 0 {
		t.Fatal("daemon tracks no pairs")
	}
	if _, _, err := d.Recover(nil); err != nil {
		t.Fatal(err)
	}
	body := staleBatch(t, d.Mon)
	live := d.Srv.Handler()
	var closes, refreshes, mismatches int
	check := func(when string) {
		got, err := postStale(live, body)
		if err != nil {
			t.Fatalf("%s: long-lived server: %v", when, err)
		}
		want, err := postStale(server.New(d.Mon, server.Config{}).Handler(), body)
		if err != nil {
			t.Fatalf("%s: fresh server: %v", when, err)
		}
		if !bytes.Equal(got, want) {
			if mismatches == 0 {
				t.Errorf("%s: long-lived server's answer differs from a fresh server's", when)
			}
			mismatches++
		}
	}

	cfg := d.Pipeline(nil, daemon.DefaultRetry)
	recordFeeds(t, &cfg)
	publish := cfg.OnWindowClose
	cfg.OnWindowClose = func(ws int64) {
		publish(ws)
		closes++
		check(fmt.Sprintf("after closing window %d", ws))
		if closes%5 != 0 {
			return
		}
		stale := d.Mon.StaleKeys()
		if len(stale) == 0 {
			return
		}
		en, _ := d.Mon.Entry(stale[0])
		fresh := *en.Trace
		fresh.Time = ws + sc.WindowSec
		if _, err := d.Mon.RecordRefresh(&fresh); err != nil {
			t.Fatalf("refresh %v: %v", stale[0], err)
		}
		refreshes++
		check(fmt.Sprintf("after refreshing %v at window %d", stale[0], ws))
	}
	if err := rrr.RunPipeline(context.Background(), d.Mon, cfg); err != nil {
		t.Fatal(err)
	}

	c := d.Mon.Counts()
	sigs := 0
	for _, n := range c.Signals {
		sigs += n
	}
	revSigs, revPairs := c.RevokedSignals, c.RevokedPairEvents
	t.Logf("%d closes, %d refreshes, %d signals, %d signals in %d pair events revoked, %d mismatching reads",
		closes, refreshes, sigs, revSigs, revPairs, mismatches)
	if refreshes == 0 || revPairs == 0 {
		t.Fatalf("%d refreshes and %d revocations: the differential never exercised them", refreshes, revPairs)
	}
	if mismatches > 0 {
		t.Fatalf("%d of %d reads differ from a fresh server's", mismatches, closes+refreshes)
	}
}

// TestVerdictCacheConcurrentReads keeps readers on /v1/stale for a whole
// pipeline run, so version syncs race window closes and each other (run it
// under -race). Once the feed ends, what the readers left cached must be
// what a fresh server computes for every key.
func TestVerdictCacheConcurrentReads(t *testing.T) {
	d, err := daemon.New(quickScale(t, 1), daemon.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tracked, _, _ := d.Track(); tracked == 0 {
		t.Fatal("daemon tracks no pairs")
	}
	if _, _, err := d.Recover(nil); err != nil {
		t.Fatal(err)
	}
	body := staleBatch(t, d.Mon)
	live := d.Srv.Handler()
	cfg := d.Pipeline(nil, daemon.DefaultRetry)
	recordFeeds(t, &cfg)

	done := make(chan struct{})
	var wg sync.WaitGroup
	reads := make([]int, 3)
	for i := range reads {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := postStale(live, body); err != nil {
					t.Error(err)
					return
				}
				reads[i]++
			}
		}(i)
	}
	err = rrr.RunPipeline(context.Background(), d.Mon, cfg)
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("reads per reader during the run: %v", reads)

	got, err := postStale(live, body)
	if err != nil {
		t.Fatal(err)
	}
	want, err := postStale(server.New(d.Mon, server.Config{}).Handler(), body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("after the run, the long-lived server's answer differs from a fresh server's")
	}
}

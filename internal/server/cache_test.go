package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"rrr"
)

// cacheCounts is a delta of the verdict-cache counters.
type cacheCounts struct{ hits, misses, invalidations, flushes uint64 }

// cacheDeltas samples the verdict-cache counters (which live in the global
// obs registry, hence deltas rather than absolutes) around fn.
func cacheDeltas(s *Server, fn func()) cacheCounts {
	c := s.cache
	h0, m0, i0, f0 := c.hits.Value(), c.misses.Value(), c.invalidations.Value(), c.flushes.Value()
	fn()
	return cacheCounts{c.hits.Value() - h0, c.misses.Value() - m0, c.invalidations.Value() - i0, c.flushes.Value() - f0}
}

// TestVerdictCacheHitBetweenCloses: between Monitor state transitions a
// pair's verdict is immutable, so the second identical query must be
// served from the cache — and be byte-identical to the first answer.
func TestVerdictCacheHitBetweenCloses(t *testing.T) {
	m, stale, _ := newStaleMonitor(t)
	srv := New(m, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	path := "/v1/stale/" + FormatKey(stale.Key())

	var first, second Verdict
	if d := cacheDeltas(srv, func() { getJSON(t, ts, path, &first) }); d.misses != 1 {
		t.Fatalf("cold query: misses = %d, want 1", d.misses)
	}
	if d := cacheDeltas(srv, func() { getJSON(t, ts, path, &second) }); d.hits != 1 || d.misses != 0 {
		t.Fatalf("warm query: hits = %d, misses = %d, want 1, 0", d.hits, d.misses)
	}
	if !second.Stale || len(second.Signals) != len(first.Signals) || second.Key != first.Key {
		t.Fatalf("cached verdict diverges: first %+v, second %+v", first, second)
	}
}

// TestVerdictCacheInvalidatedByWindowClose: a pair that goes stale in a
// later window must not keep serving its cached fresh verdict, and the close
// that raised its one signal invalidates that pair alone: the other pair's
// verdict survives the version sync and nothing is flushed.
func TestVerdictCacheInvalidatedByWindowClose(t *testing.T) {
	m, quiet, fresh := newQuietMonitor(t)
	srv := New(m, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	path := "/v1/stale/" + FormatKey(fresh.Key())
	other := "/v1/stale/" + FormatKey(quiet.Key())

	var v, w Verdict
	getJSON(t, ts, path, &v)
	if v.Stale {
		t.Fatalf("setup: fresh pair already stale: %+v", v)
	}
	getJSON(t, ts, other, &w)

	// The fresh pair's route (6 7) changes its AS path; the next window
	// close emits the signal and bumps the monitor's state version.
	m.ObserveBGP(announceUpd(t, 45*900+5, "6.0.0.9", 6, "7.0.0.0/8", []rrr.ASN{6, 9, 7}))
	if sigs := m.Advance(46 * 900); len(sigs) != 1 {
		t.Fatalf("setup: close raised %d signals, want 1: %v", len(sigs), sigs)
	}

	d := cacheDeltas(srv, func() {
		getJSON(t, ts, path, &v)
		getJSON(t, ts, other, &w)
	})
	if !v.Stale {
		t.Fatalf("verdict still fresh after window close: %+v", v)
	}
	if d != (cacheCounts{hits: 1, misses: 1, invalidations: 1}) {
		t.Fatalf("post-close queries: %+v, want 1 hit (the unchanged pair), 1 miss, 1 invalidation, 0 flushes", d)
	}
}

// TestVerdictCacheInvalidatedByRefresh: recording a refresh clears the
// pair's signals; the cached stale verdict must die with them.
func TestVerdictCacheInvalidatedByRefresh(t *testing.T) {
	m, stale, _ := newStaleMonitor(t)
	srv := New(m, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	path := "/v1/stale/" + FormatKey(stale.Key())

	var v Verdict
	getJSON(t, ts, path, &v)
	if !v.Stale {
		t.Fatalf("setup: pair not stale: %+v", v)
	}

	rec := traceJSON{
		Time: 46 * 900, Src: "1.0.0.1", Dst: "4.0.0.9",
		Hops: []hopJSON{{IP: "1.0.0.2"}, {IP: "2.0.0.1"}, {IP: "9.0.0.1"}, {IP: "4.0.0.3"}, {IP: "4.0.0.9"}},
	}
	if code := postJSON(t, ts, "/v1/refresh/record", rec, nil); code != http.StatusOK {
		t.Fatalf("refresh status = %d", code)
	}
	getJSON(t, ts, path, &v)
	if v.Stale {
		t.Fatalf("cached stale verdict survived the refresh: %+v", v)
	}
}

// TestVerdictCacheInvalidatedByRestore is the dangerous case: a server
// answers "untracked" for a key, caches it, and then the monitor restores
// a snapshot in which that key is tracked and stale. The cached pre-restore
// verdict must not survive.
func TestVerdictCacheInvalidatedByRestore(t *testing.T) {
	m, stale, _ := newStaleMonitor(t)
	snap := m.Snapshot()

	m2 := newTestMonitor(t)
	srv := New(m2, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	path := "/v1/stale/" + FormatKey(stale.Key())

	var v Verdict
	getJSON(t, ts, path, &v)
	if v.Tracked || v.Stale {
		t.Fatalf("setup: empty monitor answered %+v", v)
	}
	if err := m2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	d := cacheDeltas(srv, func() { getJSON(t, ts, path, &v) })
	if !v.Tracked || !v.Stale {
		t.Fatalf("cached pre-restore verdict survived: %+v", v)
	}
	if d.flushes != 1 || d.misses != 1 {
		t.Fatalf("post-restore query: %+v, want the whole cache flushed once and a miss", d)
	}
}

// TestBatchDedupSingleComputation: a batch of N copies of one key resolves
// the verdict exactly once (one cache miss), and every response slot gets
// the same answer.
func TestBatchDedupSingleComputation(t *testing.T) {
	m, stale, _ := newStaleMonitor(t)
	srv := New(m, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 64
	keys := make([]string, n)
	for i := range keys {
		keys[i] = FormatKey(stale.Key())
	}
	var out struct {
		Verdicts []Verdict `json:"verdicts"`
		Stale    int       `json:"stale"`
	}
	d := cacheDeltas(srv, func() {
		if code := postJSON(t, ts, "/v1/stale", map[string]any{"keys": keys}, &out); code != http.StatusOK {
			t.Fatalf("status = %d", code)
		}
	})
	if d.misses != 1 || d.hits != 0 {
		t.Fatalf("duplicate batch: misses = %d, hits = %d, want 1, 0", d.misses, d.hits)
	}
	if len(out.Verdicts) != n || out.Stale != n {
		t.Fatalf("batch = %d verdicts, %d stale, want %d, %d", len(out.Verdicts), out.Stale, n, n)
	}
	for i := range out.Verdicts {
		if !out.Verdicts[i].Stale || out.Verdicts[i].Key != keys[i] {
			t.Fatalf("verdict %d = %+v", i, out.Verdicts[i])
		}
	}

	// A second identical batch is all cache: one hit, zero misses.
	d = cacheDeltas(srv, func() {
		postJSON(t, ts, "/v1/stale", map[string]any{"keys": keys}, &out)
	})
	if d.misses != 0 || d.hits != 1 {
		t.Fatalf("warm duplicate batch: misses = %d, hits = %d, want 0, 1", d.misses, d.hits)
	}
}

// TestVerdictCacheMetricFamilies: the five rrr_server_verdict_cache_*
// families appear in /metrics once the cache has been exercised.
func TestVerdictCacheMetricFamilies(t *testing.T) {
	m, stale, _ := newStaleMonitor(t)
	srv := New(m, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	getJSON(t, ts, "/v1/stale/"+FormatKey(stale.Key()), nil)
	getJSON(t, ts, "/v1/stale/"+FormatKey(stale.Key()), nil)

	fams := scrapeFamilies(t, ts)
	for _, fam := range []string{
		"rrr_server_verdict_cache_hits_total",
		"rrr_server_verdict_cache_misses_total",
		"rrr_server_verdict_cache_invalidations_total",
		"rrr_server_verdict_cache_flushes_total",
		"rrr_server_verdict_cache_size",
	} {
		if !fams[fam] {
			t.Errorf("missing family %s", fam)
		}
	}
}

// fakeChangeLog is a change log driven by hand: changed[v] lists the pairs
// version v changed.
type fakeChangeLog struct {
	now     uint64
	changed map[uint64][]rrr.Key
}

func (f *fakeChangeLog) ChangedSince(v uint64) ([]rrr.Key, bool, uint64) {
	var keys []rrr.Key
	for u := v + 1; u <= f.now; u++ {
		keys = append(keys, f.changed[u]...)
	}
	return keys, false, f.now
}

// TestVerdictCacheGenerationOnlyMovesForward interleaves two requests by
// hand across a close: an old one that read the state version just before
// the close, and a new one that synced the cache past it. The old request's
// lookups and its late put must miss without touching the cache; resetting
// the generation to the old version would drop every verdict rendered at
// the new one, and serve keys the close changed from a stale generation.
func TestVerdictCacheGenerationOnlyMovesForward(t *testing.T) {
	a, b := rrr.Key{Src: 1, Dst: 2}, rrr.Key{Src: 3, Dst: 4}
	log := &fakeChangeLog{now: 1, changed: map[uint64][]rrr.Key{}}
	c := newVerdictCache(log, 0)
	va, vb := cachedVerdict{JSON: []byte(`"a1"`)}, cachedVerdict{JSON: []byte(`"b1"`)}
	c.get(a, 1) // syncs the empty cache to version 1
	c.put(a, va, 1)
	c.put(b, vb, 1)

	// Version 2 changes a only.
	log.now, log.changed[2] = 2, []rrr.Key{a}
	if _, ok := c.get(b, 2); !ok {
		t.Fatal("new request: b's verdict did not survive a close that changed only a")
	}
	if _, ok := c.get(a, 2); ok {
		t.Fatal("new request: a's verdict survived the close that changed it")
	}
	a2 := cachedVerdict{JSON: []byte(`"a2"`)}
	c.put(a, a2, 2)

	// The old request arrives late, still at version 1.
	if _, ok := c.get(b, 1); ok {
		t.Fatal("old request: a lookup at an older version hit")
	}
	c.put(a, va, 1)

	if got, ok := c.get(a, 2); !ok || string(got.JSON) != `"a2"` {
		t.Fatalf("after the old request: a = %s, %v; want the version-2 verdict kept", got.JSON, ok)
	}
	if _, ok := c.get(b, 2); !ok {
		t.Fatal("after the old request: b's verdict was dropped")
	}
	if c.version != 2 {
		t.Fatalf("cache generation = %d, want 2", c.version)
	}
}

// TestQuietCloseKeepsVerdictsAllocs is the allocation budget of a 64-key
// batch read right after a window in which nothing happened: every verdict
// carries over, so it costs what the same batch cost before the close (the
// close's own allocations are measured alone and subtracted). Dropping the
// cache wholesale re-rendered all 64.
func TestQuietCloseKeepsVerdictsAllocs(t *testing.T) {
	m, first, second := newQuietMonitor(t)
	srv := New(m, Config{})
	h := srv.Handler()
	keys := []string{FormatKey(first.Key()), FormatKey(second.Key())}
	for i := len(keys); i < 64; i++ {
		keys = append(keys, fmt.Sprintf("240.0.0.%d-240.0.1.%d", i, i))
	}
	body, err := json.Marshal(map[string][]string{"keys": keys})
	if err != nil {
		t.Fatal(err)
	}
	batch := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/stale", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST /v1/stale = %d %s", rec.Code, rec.Body)
		}
	}
	batch() // every key cached
	warm := testing.AllocsPerRun(20, batch)

	next := int64(46 * 900)
	quietClose := func() {
		if sigs := m.Advance(next); len(sigs) != 0 {
			t.Fatalf("window %d is not quiet: %v", next, sigs)
		}
		next += 900
	}
	closeOnly := testing.AllocsPerRun(20, quietClose)
	var after float64
	d := cacheDeltas(srv, func() {
		after = testing.AllocsPerRun(20, func() { quietClose(); batch() }) - closeOnly
	})
	t.Logf("64-key batch: %.1f allocations warm, %.1f right after a quiet close (close alone %.1f)", warm, after, closeOnly)
	if d.misses != 0 || d.flushes != 0 {
		t.Fatalf("batches after quiet closes: %+v, want no misses and no flushes", d)
	}
	if after > warm+1 {
		t.Fatalf("64-key batch after a quiet close: %.1f allocations, budget %.1f (the batch before the close + 1)", after, warm+1)
	}
}

package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"rrr"
	"rrr/internal/bgp"
	"rrr/internal/bordermap"
	"rrr/internal/events"
	"rrr/internal/faultfeed"
)

// testMapper: AS by first octet; 240.x is IXP 1 (mirrors the facade tests).
type testMapper struct{}

func (testMapper) ASOf(ip uint32) (bgp.ASN, bool) {
	f := ip >> 24
	if f == 240 || f == 0 {
		return 0, false
	}
	return bgp.ASN(f), true
}

func (testMapper) IXPOf(ip uint32) (int, bool) {
	if ip>>24 == 240 {
		return 1, true
	}
	return 0, false
}

func ip(t testing.TB, s string) uint32 {
	t.Helper()
	v, err := rrr.ParseIP(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func trace(t testing.TB, when int64, src, dst string, hops ...string) *rrr.Traceroute {
	t.Helper()
	tr := &rrr.Traceroute{Src: ip(t, src), Dst: ip(t, dst), Time: when}
	for i, h := range hops {
		hop := rrr.Hop{TTL: i + 1}
		if h != "*" {
			hop.IP = ip(t, h)
		}
		tr.Hops = append(tr.Hops, hop)
	}
	return tr
}

func announceUpd(t testing.TB, tm int64, vpIP string, as rrr.ASN, prefix string, path []rrr.ASN) rrr.Update {
	t.Helper()
	p, err := rrr.ParsePrefix(prefix)
	if err != nil {
		t.Fatal(err)
	}
	return rrr.Update{Time: tm, PeerIP: ip(t, vpIP), PeerAS: as, Type: bgp.Announce,
		Prefix: p, ASPath: path}
}

func newTestMonitor(t testing.TB) *rrr.Monitor {
	t.Helper()
	aliases := bordermap.OracleFunc(func(v uint32) (int, bool) { return int(v), true })
	m, err := rrr.NewMonitor(rrr.Options{Mapper: testMapper{}, Aliases: aliases})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// newQuietMonitor builds a monitor tracking two pairs over routes that have
// not changed, with every window up to 45 closed (calibration done).
func newQuietMonitor(t testing.TB) (m *rrr.Monitor, first, second *rrr.Traceroute) {
	t.Helper()
	m = newTestMonitor(t)
	m.ObserveBGP(announceUpd(t, 0, "5.0.0.9", 5, "4.0.0.0/8", []rrr.ASN{5, 2, 3, 4}))
	m.ObserveBGP(announceUpd(t, 0, "6.0.0.9", 6, "7.0.0.0/8", []rrr.ASN{6, 7}))
	first = trace(t, 0, "1.0.0.1", "4.0.0.9", "1.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.9")
	if err := m.Track(first); err != nil {
		t.Fatal(err)
	}
	second = trace(t, 0, "8.0.0.1", "7.0.0.9", "8.0.0.2", "6.0.0.1", "7.0.0.9")
	if err := m.Track(second); err != nil {
		t.Fatal(err)
	}
	m.Advance(45 * 900)
	return m, first, second
}

// newStaleMonitor builds a monitor with one tracked pair that has gone
// stale (the canonical AS-path-change scenario) and one fresh pair.
func newStaleMonitor(t testing.TB) (*rrr.Monitor, *rrr.Traceroute, *rrr.Traceroute) {
	t.Helper()
	m, stale, fresh := newQuietMonitor(t)
	m.ObserveBGP(announceUpd(t, 45*900+5, "5.0.0.9", 5, "4.0.0.0/8", []rrr.ASN{5, 2, 9, 4}))
	m.Advance(46 * 900)
	if !m.Stale(stale.Key()) {
		t.Fatal("scenario setup: pair not stale")
	}
	return m, stale, fresh
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

func TestKeyRoundTrip(t *testing.T) {
	k := rrr.Key{Src: ip(t, "1.2.3.4"), Dst: ip(t, "5.6.7.8")}
	s := FormatKey(k)
	if s != "1.2.3.4-5.6.7.8" {
		t.Fatalf("FormatKey = %q", s)
	}
	for _, in := range []string{s, "1.2.3.4->5.6.7.8"} {
		got, err := ParseKey(in)
		if err != nil || got != k {
			t.Fatalf("ParseKey(%q) = %v, %v", in, got, err)
		}
	}
	for _, bad := range []string{"", "1.2.3.4", "1.2.3.4-bogus", "x-5.6.7.8"} {
		if _, err := ParseKey(bad); err == nil {
			t.Errorf("ParseKey(%q) accepted", bad)
		}
	}
}

// FuzzParseKey: whatever ParseKey accepts is a plain "src-dst"/"src->dst" of
// unsigned dotted quads and survives the canonical form unchanged, and the
// string and []byte forms agree on the key and on the error's words.
func FuzzParseKey(f *testing.F) {
	for _, s := range []string{
		"1.2.3.4-5.6.7.8", "1.2.3.4->5.6.7.8", "", "-", "->", "1.2.3.4", "1.2.3.4-",
		"+1.2.3.4-5.6.7.8", "1.2.3.4-+5.6.7.8", "1.2.3.4--0.0.0.0", "1.2.3.4->-0.0.0.0",
		"1.2.+3.4->5.6.7.8", "256.2.3.4-5.6.7.8", "1.2.3.4-5.6.7.99999999999999999999",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		k, err := ParseKey(s)
		kb, errb := ParseKey([]byte(s))
		if kb != k || fmt.Sprint(errb) != fmt.Sprint(err) {
			t.Fatalf("ParseKey(%q) = %v, %v as a string and %v, %v as bytes", s, k, err, kb, errb)
		}
		if err != nil {
			return
		}
		if strings.Contains(s, "+") || strings.Count(s, "-") != 1 {
			t.Fatalf("ParseKey(%q) accepted a signed octet: %v", s, k)
		}
		if back, err := ParseKey(FormatKey(k)); err != nil || back != k {
			t.Fatalf("ParseKey(FormatKey(%v)) = %v, %v", k, back, err)
		}
	})
}

func TestStaleOneEndpoint(t *testing.T) {
	m, stale, fresh := newStaleMonitor(t)
	ts := httptest.NewServer(New(m, Config{}).Handler())
	defer ts.Close()

	var v Verdict
	if code := getJSON(t, ts, "/v1/stale/"+FormatKey(stale.Key()), &v); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !v.Tracked || !v.Stale || v.Visibility != "known" || len(v.Signals) == 0 {
		t.Fatalf("stale verdict = %+v", v)
	}
	if v.PotentialMonitors == 0 {
		t.Fatal("stale pair reports no potential monitors")
	}

	if code := getJSON(t, ts, "/v1/stale/"+FormatKey(fresh.Key()), &v); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !v.Tracked || v.Stale {
		t.Fatalf("fresh verdict = %+v", v)
	}

	// Untracked pair: verdict still answers, flagged untracked.
	if code := getJSON(t, ts, "/v1/stale/99.0.0.1-98.0.0.1", &v); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if v.Tracked || v.Stale || v.Visibility != "untracked" {
		t.Fatalf("untracked verdict = %+v", v)
	}

	// Malformed keys, a signed octet among them.
	for _, bad := range []string{"not-a-key", "+10.3.0.1-10.9.0.9"} {
		if code := getJSON(t, ts, "/v1/stale/"+bad, nil); code != http.StatusBadRequest {
			t.Fatalf("bad key %q status = %d", bad, code)
		}
	}
}

func TestStaleBatchEndpoint(t *testing.T) {
	m, stale, fresh := newStaleMonitor(t)
	ts := httptest.NewServer(New(m, Config{}).Handler())
	defer ts.Close()

	var out struct {
		Verdicts []Verdict `json:"verdicts"`
		Stale    int       `json:"stale"`
	}
	req := map[string]any{"keys": []string{FormatKey(stale.Key()), FormatKey(fresh.Key())}}
	if code := postJSON(t, ts, "/v1/stale", req, &out); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(out.Verdicts) != 2 || out.Stale != 1 {
		t.Fatalf("batch = %+v", out)
	}
	if !out.Verdicts[0].Stale || out.Verdicts[1].Stale {
		t.Fatalf("verdict order/content wrong: %+v", out.Verdicts)
	}

	// Error paths: empty, malformed key, over batch limit, bad body.
	if code := postJSON(t, ts, "/v1/stale", map[string]any{"keys": []string{}}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty batch status = %d", code)
	}
	if code := postJSON(t, ts, "/v1/stale", map[string]any{"keys": []string{"junk"}}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad key status = %d", code)
	}
	big := map[string]any{"keys": make([]string, MaxBatch+1)}
	if code := postJSON(t, ts, "/v1/stale", big, nil); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch status = %d", code)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/stale", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated body status = %d", resp.StatusCode)
	}
}

func TestKeysEndpoint(t *testing.T) {
	m, stale, _ := newStaleMonitor(t)
	ts := httptest.NewServer(New(m, Config{}).Handler())
	defer ts.Close()

	var out struct {
		Keys  []string `json:"keys"`
		Count int      `json:"count"`
	}
	getJSON(t, ts, "/v1/keys", &out)
	if out.Count != 2 || len(out.Keys) != 2 {
		t.Fatalf("keys = %+v", out)
	}
	if !sort.StringsAreSorted(out.Keys) {
		// Key order is (Src, Dst) numeric, which for these fixtures is
		// also lexicographic; the real guarantee is determinism.
		t.Fatalf("keys not sorted: %v", out.Keys)
	}
	getJSON(t, ts, "/v1/keys?stale=1", &out)
	if out.Count != 1 || out.Keys[0] != FormatKey(stale.Key()) {
		t.Fatalf("stale keys = %+v", out)
	}
}

func TestStatsEndpoint(t *testing.T) {
	m, _, _ := newStaleMonitor(t)
	ts := httptest.NewServer(New(m, Config{}).Handler())
	defer ts.Close()

	var st Stats
	if code := getJSON(t, ts, "/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if st.CorpusSize != 2 || st.StaleKeys != 1 || st.WindowSec != m.WindowSec() {
		t.Fatalf("stats = %+v", st)
	}
	if st.TotalSignals == 0 || st.Signals[rrr.TechBGPASPath.String()] == 0 {
		t.Fatalf("stats missing signals: %+v", st)
	}
	if st.WindowsClosed != m.WindowsClosed() {
		t.Fatalf("windowsClosed = %d, want %d", st.WindowsClosed, m.WindowsClosed())
	}
	if st.Feeds != nil {
		t.Fatalf("stats without Health should omit feeds, got %+v", st.Feeds)
	}
}

// TestStatsDuringIngest: one goroutine closes windows whose routes flip
// back and forth (signals, revocations and a moving stale set), another
// reads GET /v1/stats in a loop. Every reading must be a state the writer
// passed through: the writer's tally after that many closes.
func TestStatsDuringIngest(t *testing.T) {
	const windows = 2000
	m, _, _ := newQuietMonitor(t)
	h := New(m, Config{}).Handler()
	type tally struct{ total, stale, revoked, corpus int }
	first := m.WindowsClosed()
	tallies := []tally{{stale: len(m.StaleKeys()), revoked: m.Snapshot().RevokedSignals, corpus: len(m.Tracked())}}

	done := make(chan struct{})
	var readings []Stats
	go func() {
		defer close(done)
		for {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
			var st Stats
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Error(err)
				return
			}
			readings = append(readings, st)
			if st.WindowsClosed == first+windows {
				return
			}
		}
	}()
	path4, path7 := []rrr.ASN{5, 2, 3, 4}, []rrr.ASN{6, 7}
	for w := int64(45); w < 45+windows; w++ {
		if w%3 == 0 {
			path4 = []rrr.ASN{5, 2, 3, 4}
			if w%6 == 0 {
				path4 = []rrr.ASN{5, 2, 9, 4}
			}
		}
		if w%5 == 0 {
			path7 = []rrr.ASN{6, 7}
			if w%10 == 0 {
				path7 = []rrr.ASN{6, 9, 7}
			}
		}
		m.ObserveBGP(announceUpd(t, w*900+5, "5.0.0.9", 5, "4.0.0.0/8", path4))
		m.ObserveBGP(announceUpd(t, w*900+6, "6.0.0.9", 6, "7.0.0.0/8", path7))
		last := tallies[len(tallies)-1]
		sigs := m.CloseWindow(w * 900)
		tallies = append(tallies, tally{last.total + len(sigs), len(m.StaleKeys()), m.Snapshot().RevokedSignals, len(m.Tracked())})
	}
	<-done

	last := tallies[len(tallies)-1]
	staleSets := map[int]bool{}
	for _, tl := range tallies {
		staleSets[tl.stale] = true
	}
	if last.total == 0 || last.revoked == 0 || len(staleSets) < 2 {
		t.Fatalf("writer ended at %+v with stale counts %v: the workload moves too little", last, staleSets)
	}
	mid := 0
	for _, st := range readings {
		n := st.WindowsClosed - first
		if n < 0 || n > windows {
			t.Fatalf("reading with %d windows closed, outside the run", st.WindowsClosed)
		}
		if n < windows {
			mid++
		}
		want := tallies[n]
		got := tally{st.TotalSignals, st.StaleKeys, st.RevokedSignals, st.CorpusSize}
		if got != want {
			t.Fatalf("reading after %d closes: %+v, but the writer had %+v", n, got, want)
		}
	}
	t.Logf("%d readings (%d during ingest); writer ended at %+v", len(readings), mid, last)
	if mid == 0 {
		t.Fatal("no reading landed during ingest")
	}
}

// TestStatsFeedHealth: a server wired with the pipeline's health registry
// reports per-feed supervisor state under /v1/stats, so an operator can see
// a degraded or finished feed from the query API alone.
func TestStatsFeedHealth(t *testing.T) {
	m := newTestMonitor(t)
	m.ObserveBGP(announceUpd(t, 0, "5.0.0.9", 5, "4.0.0.0/8", []rrr.ASN{5, 2, 3, 4}))
	if err := m.Track(trace(t, 0, "1.0.0.1", "4.0.0.9", "1.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.9")); err != nil {
		t.Fatal(err)
	}

	health := rrr.NewPipelineHealth()
	err := rrr.RunPipeline(context.Background(), m, rrr.PipelineConfig{
		Updates: bgp.NewSliceSource([]rrr.Update{
			announceUpd(t, 900+5, "5.0.0.9", 5, "4.0.0.0/8", []rrr.ASN{5, 2, 3, 4}),
		}),
		Traces: rrr.NewTraceSliceSource([]*rrr.Traceroute{
			trace(t, 900+10, "1.0.0.1", "4.0.0.9", "1.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.9"),
		}),
		Sink:   func(rrr.Signal) {},
		Health: health,
	})
	if err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(New(m, Config{Health: health}).Handler())
	defer ts.Close()
	var st Stats
	if code := getJSON(t, ts, "/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(st.Feeds) != 2 {
		t.Fatalf("feeds = %+v, want bgp and traceroute entries", st.Feeds)
	}
	for _, f := range st.Feeds {
		if f.Status != rrr.FeedEOF {
			t.Fatalf("feed %s status = %q, want %q after a clean run", f.Feed, f.Status, rrr.FeedEOF)
		}
		if f.Retries != 0 || f.LastError != "" {
			t.Fatalf("feed %s reports faults after a clean run: %+v", f.Feed, f)
		}
	}
}

func TestRefreshEndpoints(t *testing.T) {
	m, stale, _ := newStaleMonitor(t)
	ts := httptest.NewServer(New(m, Config{}).Handler())
	defer ts.Close()

	var plan struct {
		Keys    []string    `json:"keys"`
		Planned int         `json:"planned"`
		Plan    []PlanEntry `json:"plan"`
	}
	if code := postJSON(t, ts, "/v1/refresh/plan", map[string]int{"budget": 1}, &plan); code != http.StatusOK {
		t.Fatalf("plan status = %d", code)
	}
	if plan.Planned != 1 || plan.Keys[0] != FormatKey(stale.Key()) {
		t.Fatalf("plan = %+v", plan)
	}
	// A cluster router decodes each entry into the item it renders from;
	// an entry it cannot decode fails the worker's answer.
	if it, err := ParsePlanEntry(plan.Plan[0]); err != nil || PlanEntryOf(it) != plan.Plan[0] {
		t.Fatalf("plan entry %+v decodes to %+v, %v", plan.Plan[0], it, err)
	}
	badKey, badTech := plan.Plan[0], plan.Plan[0]
	badKey.Key, badTech.Technique = "1.0.0.1", "nosuch"
	for _, e := range []PlanEntry{badKey, badTech} {
		if _, err := ParsePlanEntry(e); err == nil {
			t.Fatalf("plan entry %+v decoded", e)
		}
	}
	if code := postJSON(t, ts, "/v1/refresh/plan", map[string]int{"budget": 0}, nil); code != http.StatusBadRequest {
		t.Fatalf("zero budget status = %d", code)
	}

	// Record a refresh that confirms the change.
	rec := traceJSON{
		Time: 46 * 900, Src: "1.0.0.1", Dst: "4.0.0.9",
		Hops: []hopJSON{{IP: "1.0.0.2"}, {IP: "2.0.0.1"}, {IP: "9.0.0.1"}, {IP: "4.0.0.3"}, {IP: "4.0.0.9"}},
	}
	var got struct {
		Key         string `json:"key"`
		ChangeClass string `json:"changeClass"`
	}
	if code := postJSON(t, ts, "/v1/refresh/record", rec, &got); code != http.StatusOK {
		t.Fatalf("record status = %d", code)
	}
	if got.ChangeClass != rrr.ASChange.String() {
		t.Fatalf("changeClass = %q", got.ChangeClass)
	}
	if m.Stale(stale.Key()) {
		t.Fatal("refresh did not clear staleness")
	}

	// Error paths: bad hop IP and an AS-loop measurement (rejected by the
	// monitor, not the decoder).
	bad := rec
	bad.Hops = []hopJSON{{IP: "nope"}}
	if code := postJSON(t, ts, "/v1/refresh/record", bad, nil); code != http.StatusBadRequest {
		t.Fatalf("bad hop status = %d", code)
	}
	loop := traceJSON{
		Time: 47 * 900, Src: "1.0.0.1", Dst: "1.0.0.9",
		Hops: []hopJSON{{IP: "1.0.0.2"}, {IP: "2.0.0.1"}, {IP: "1.0.0.3"}},
	}
	if code := postJSON(t, ts, "/v1/refresh/record", loop, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("loop trace status = %d", code)
	}
}

func TestSnapshotEndpointAndRestore(t *testing.T) {
	m, _, _ := newStaleMonitor(t)

	// Without a configured path the endpoint refuses.
	noPath := httptest.NewServer(New(m, Config{}).Handler())
	if code := postJSON(t, noPath, "/v1/snapshot", struct{}{}, nil); code != http.StatusConflict {
		t.Fatalf("no-path snapshot status = %d", code)
	}
	noPath.Close()

	path := t.TempDir() + "/rrr.snap"
	ts := httptest.NewServer(New(m, Config{SnapshotPath: path}).Handler())
	defer ts.Close()
	var sn struct {
		Entries int `json:"entries"`
		Signals int `json:"signals"`
		Bytes   int `json:"bytes"`
	}
	if code := postJSON(t, ts, "/v1/snapshot", struct{}{}, &sn); code != http.StatusOK {
		t.Fatalf("snapshot status = %d", code)
	}
	if sn.Entries != 2 || sn.Signals == 0 || sn.Bytes == 0 {
		t.Fatalf("snapshot info = %+v", sn)
	}

	// Restore into a fresh monitor: /v1/stats must be byte-identical.
	m2 := newTestMonitor(t)
	if _, err := RestoreSnapshot(path, m2); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(New(m2, Config{}).Handler())
	defer ts2.Close()
	faultfeed.Sides{Want: "before", Got: "after"}.Diff(t, "stats after restore",
		faultfeed.Get(t, ts.URL+"/v1/stats"), faultfeed.Get(t, ts2.URL+"/v1/stats"))

	// Corrupt / wrong-version snapshots are refused.
	bad := t.TempDir() + "/bad.snap"
	if err := os.WriteFile(bad, []byte(`{"magic":"other","version":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadSnapshot(bad); err == nil {
		t.Fatal("wrong magic accepted")
	}
	if err := os.WriteFile(bad, []byte(`{"magic":"rrrd-snapshot","version":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadSnapshot(bad); err == nil {
		t.Fatal("wrong version accepted")
	}
}

// TestServeDuringIngestion is the daemon's core promise: staleness queries
// answer correctly and race-free while a Pipeline concurrently feeds the
// same Monitor. Run with -race.
func TestServeDuringIngestion(t *testing.T) {
	m := newTestMonitor(t)
	m.ObserveBGP(announceUpd(t, 0, "5.0.0.9", 5, "4.0.0.0/8", []rrr.ASN{5, 2, 3, 4}))
	tr := trace(t, 0, "1.0.0.1", "4.0.0.9", "1.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.9")
	if err := m.Track(tr); err != nil {
		t.Fatal(err)
	}

	// Feed: quiet keepalives then the suffix change at window 45.
	var updates []rrr.Update
	for w := int64(1); w < 45; w++ {
		updates = append(updates,
			announceUpd(t, w*900+5, "5.0.0.9", 5, "4.0.0.0/8", []rrr.ASN{5, 2, 3, 4}))
	}
	updates = append(updates,
		announceUpd(t, 45*900+5, "5.0.0.9", 5, "4.0.0.0/8", []rrr.ASN{5, 2, 9, 4}),
		announceUpd(t, 46*900+5, "5.0.0.9", 5, "4.0.0.0/8", []rrr.ASN{5, 2, 9, 4}))
	var traces []*rrr.Traceroute
	for w := int64(0); w < 46; w += 4 {
		traces = append(traces, trace(t, w*900+100, "9.0.0.1", "4.0.0.8",
			"9.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.8"))
	}

	srv := New(m, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	pipeDone := make(chan error, 1)
	go func() {
		pipeDone <- rrr.RunPipeline(context.Background(), m, rrr.PipelineConfig{
			Updates: bgp.NewSliceSource(updates), Traces: rrr.NewTraceSliceSource(traces), Sink: srv.Publish,
		})
	}()

	// Hammer the read endpoints from several clients until the feed ends.
	// (No t.Fatal in these goroutines; failures surface as t.Error.)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	key := FormatKey(tr.Key())
	get := func(path string) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
	}
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := `{"keys":["` + key + `"]}`
			for {
				select {
				case <-stop:
					return
				default:
				}
				get("/v1/stale/" + key)
				get("/v1/stats")
				get("/v1/keys?stale=1")
				resp, err := ts.Client().Post(ts.URL+"/v1/stale", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	if err := <-pipeDone; err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	var v Verdict
	getJSON(t, ts, "/v1/stale/"+key, &v)
	if !v.Stale {
		t.Fatal("pair not stale after concurrent ingestion")
	}
}

// TestSSESignals streams /v1/signals while signals are published and checks
// the events arrive in SSE framing.
func TestSSESignals(t *testing.T) {
	m, stale, _ := newStaleMonitor(t)
	srv := New(m, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/signals", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	// Publish once the subscriber is attached (Subscribe happens before the
	// handler writes headers, so the response being available implies the
	// subscriber map will fill momentarily).
	go func() {
		for srv.hub.Subscribers() == 0 {
			time.Sleep(time.Millisecond)
		}
		srv.Publish(rrr.Signal{Technique: rrr.TechBGPASPath, Key: stale.Key(), WindowStart: 46 * 900})
	}()

	sc := bufio.NewScanner(resp.Body)
	var event, data string
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			event = strings.TrimPrefix(line, "event: ")
		}
		if strings.HasPrefix(line, "data: ") {
			data = strings.TrimPrefix(line, "data: ")
			break
		}
	}
	if event != "signal" {
		t.Fatalf("event = %q (scan err %v)", event, sc.Err())
	}
	var sig signalJSON
	if err := json.Unmarshal([]byte(data), &sig); err != nil {
		t.Fatalf("data %q: %v", data, err)
	}
	if sig.Key != FormatKey(stale.Key()) || sig.Technique != rrr.TechBGPASPath.String() {
		t.Fatalf("signal = %+v", sig)
	}
}

// TestNewHTTPServerLimits: the server both binaries run bounds how long a
// client may take over its headers, how large they may be, and how long an
// idle connection stays open, and sets no write timeout, which would cut
// GET /v1/signals.
func TestNewHTTPServerLimits(t *testing.T) {
	h := http.NotFoundHandler()
	s := NewHTTPServer(h)
	if s.ReadHeaderTimeout <= 0 || s.IdleTimeout <= 0 || s.MaxHeaderBytes <= 0 {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v, MaxHeaderBytes %d; want all set",
			s.ReadHeaderTimeout, s.IdleTimeout, s.MaxHeaderBytes)
	}
	if s.WriteTimeout != 0 || s.ReadTimeout != 0 {
		t.Fatalf("WriteTimeout %v, ReadTimeout %v; a stream needs neither", s.WriteTimeout, s.ReadTimeout)
	}
	if s.Handler == nil {
		t.Fatal("handler not set")
	}
}

// TestRefreshBodyLimit: a 20 MB POST /v1/refresh/plan or /record body is
// refused with 413, declared length or not; one at MaxRefreshBodyBytes is
// read and answered on its merits.
func TestRefreshBodyLimit(t *testing.T) {
	srv := New(newTestMonitor(t), Config{})
	want := fmt.Sprintf(`{"error":"request body exceeds the %d-byte limit"}`+"\n", MaxRefreshBodyBytes)
	pad := func(body string, n int) string { return body[:len(body)-1] + strings.Repeat(" ", n-len(body)) + "}" }
	for _, row := range []struct{ path, body string }{
		{"/v1/refresh/plan", `{"budget":1}`},
		{"/v1/refresh/record", `{"src":"nope","dst":"10.0.0.1","time":1,"hops":[]}`},
	} {
		for _, declared := range []bool{true, false} {
			post := func(body string) *httptest.ResponseRecorder {
				req := httptest.NewRequest("POST", row.path, strings.NewReader(body))
				if !declared {
					req.ContentLength = -1
				}
				rr := httptest.NewRecorder()
				srv.Handler().ServeHTTP(rr, req)
				return rr
			}
			if rr := post(pad(row.body, 20<<20)); rr.Code != http.StatusRequestEntityTooLarge || rr.Body.String() != want {
				t.Fatalf("%s, 20 MB (length declared %v): %d %q; want 413 %q", row.path, declared, rr.Code, rr.Body, want)
			}
			if rr := post(pad(row.body, MaxRefreshBodyBytes)); rr.Code == http.StatusRequestEntityTooLarge {
				t.Fatalf("%s at the limit (length declared %v): %d %q", row.path, declared, rr.Code, rr.Body)
			}
		}
	}
}

// TestEventsBodyLimit: a POST /v1/events body past MaxEventsBodyBytes is
// refused with 413, declared length or not; one at the limit is read.
func TestEventsBodyLimit(t *testing.T) {
	srv := New(newTestMonitor(t), Config{Events: events.NewDetector(events.Config{})})
	want := fmt.Sprintf(`{"error":"request body exceeds the %d-byte limit"}`+"\n", MaxEventsBodyBytes)
	pad := func(n int) string { return `{"classes":[]` + strings.Repeat(" ", n-len(`{"classes":[]}`)) + `}` }
	for _, declared := range []bool{true, false} {
		post := func(body string) *httptest.ResponseRecorder {
			req := httptest.NewRequest("POST", "/v1/events", strings.NewReader(body))
			if !declared {
				req.ContentLength = -1
			}
			rr := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rr, req)
			return rr
		}
		if rr := post(pad(MaxEventsBodyBytes + 1)); rr.Code != http.StatusRequestEntityTooLarge || rr.Body.String() != want {
			t.Fatalf("over the limit (length declared %v): %d %q; want 413 %q", declared, rr.Code, rr.Body, want)
		}
		if rr := post(pad(MaxEventsBodyBytes)); rr.Code != http.StatusOK {
			t.Fatalf("at the limit (length declared %v): %d %q; want 200", declared, rr.Code, rr.Body)
		}
	}
}

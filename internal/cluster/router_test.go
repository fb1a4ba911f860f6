package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rrr"
	"rrr/internal/faultfeed"
	"rrr/internal/server"
)

// startSmallCluster brings up a K=3 cluster with a fast per-worker
// timeout, feeds idle (the tracked corpus alone answers verdicts).
func startSmallCluster(t *testing.T, mw func(int, http.Handler) http.Handler) *LocalCluster {
	t.Helper()
	lc, err := StartLocal(LocalOptions{
		Workers:       3,
		Scale:         diffScale(),
		RouterTimeout: 500 * time.Millisecond,
		StreamBackoff: 20 * time.Millisecond,
		Middleware:    mw,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	if err := lc.WaitStreams(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	return lc
}

// clusterKeys fetches the merged key list and splits it by owner.
func clusterKeys(t *testing.T, lc *LocalCluster) (all []string, byWorker [][]string) {
	t.Helper()
	var resp struct {
		Keys []string `json:"keys"`
	}
	if err := json.Unmarshal([]byte(faultfeed.Get(t, lc.URL()+"/v1/keys")), &resp); err != nil {
		t.Fatal(err)
	}
	byWorker = make([][]string, lc.Ring.Workers())
	for _, ks := range resp.Keys {
		k, err := server.ParseKey(ks)
		if err != nil {
			t.Fatal(err)
		}
		w := lc.Ring.Owner(k)
		byWorker[w] = append(byWorker[w], ks)
	}
	return resp.Keys, byWorker
}

type batchResp struct {
	Stale                 int            `json:"stale"`
	Count                 int            `json:"count"`
	UnavailablePartitions []int          `json:"unavailablePartitions"`
	WorkerErrors          map[int]string `json:"workerErrors"`
	Verdicts              []struct {
		Key        string `json:"key"`
		Tracked    bool   `json:"tracked"`
		Visibility string `json:"visibility"`
	} `json:"verdicts"`
}

// darkPartitions lists partitions whose every replica is in the downed set
// — the only partitions replication cannot save.
func darkPartitions(lc *LocalCluster, downed ...int) map[int]bool {
	isDown := map[int]bool{}
	for _, w := range downed {
		isDown[w] = true
	}
	dark := map[int]bool{}
	for p := 0; p < lc.Ring.Partitions(); p++ {
		alive := false
		for _, w := range lc.Ring.Replicas(p) {
			if !isDown[w] {
				alive = true
			}
		}
		if !alive {
			dark[p] = true
		}
	}
	return dark
}

// TestRouterWorkerDownMidBatch kills one worker and checks the batch
// endpoint fails over to the standby replicas byte-identically; a second
// kill then blacks out exactly the partitions whose both replicas are
// down, with placeholder verdicts and an explicit unavailablePartitions
// list for those keys only.
func TestRouterWorkerDownMidBatch(t *testing.T) {
	lc := startSmallCluster(t, nil)
	all, byWorker := clusterKeys(t, lc)
	const down = 1
	if len(byWorker[down]) == 0 {
		t.Fatalf("worker %d owns no keys; pick another corpus seed", down)
	}
	body, _ := json.Marshal(map[string]any{"keys": all})
	before := faultfeed.Post(t, lc.URL()+"/v1/stale", string(body))

	// One worker down: every one of its partitions has a live standby, so
	// the failover must be invisible — same bytes, no degradation fields.
	lc.Workers[down].StopHTTP()
	after := faultfeed.Post(t, lc.URL()+"/v1/stale", string(body))
	faultfeed.Sides{Want: "before", Got: "after"}.Diff(t, "batch across single-worker failover", before, after)

	// Second worker down: partitions replicated only on {1, 2} go dark.
	lc.Workers[2].StopHTTP()
	dark := darkPartitions(lc, down, 2)
	if len(dark) == 0 {
		t.Fatal("no partition has both replicas on workers 1 and 2; ring geometry changed, rewrite the test")
	}
	var resp batchResp
	if err := json.Unmarshal([]byte(faultfeed.Post(t, lc.URL()+"/v1/stale", string(body))), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != len(all) {
		t.Fatalf("count = %d, want %d (positional alignment must survive down workers)", resp.Count, len(all))
	}
	if len(resp.WorkerErrors) == 0 {
		t.Fatal("lost keys must carry the worker errors that caused them")
	}
	lostParts := map[int]bool{}
	for i, v := range resp.Verdicts {
		if v.Key != all[i] {
			t.Fatalf("verdict %d is for %q, want %q", i, v.Key, all[i])
		}
		p := lc.Ring.partitionOf(mustKey(t, v.Key))
		if dark[p] {
			if v.Visibility != "unavailable" || v.Tracked {
				t.Fatalf("verdict for %q (dark partition %d): visibility %q tracked %v", v.Key, p, v.Visibility, v.Tracked)
			}
			lostParts[p] = true
		} else if v.Visibility == "unavailable" {
			t.Fatalf("verdict for %q marked unavailable but partition %d has a live replica", v.Key, p)
		}
	}
	if len(resp.UnavailablePartitions) != len(lostParts) {
		t.Fatalf("unavailablePartitions = %v, want the %d dark partitions holding keys", resp.UnavailablePartitions, len(lostParts))
	}
	for _, p := range resp.UnavailablePartitions {
		if !lostParts[p] {
			t.Fatalf("unavailablePartitions lists %d, which lost no keys", p)
		}
	}
}

func mustKey(t *testing.T, ks string) rrr.Key {
	t.Helper()
	k, err := server.ParseKey(ks)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestRouterSlowWorkerTimeout wedges one worker's batch endpoint past the
// per-worker timeout and checks the router neither hangs the whole batch
// nor degrades it: the wedged worker's keys fail over to their standbys
// and the response comes back complete.
func TestRouterSlowWorkerTimeout(t *testing.T) {
	const slow = 2
	block := make(chan struct{})
	t.Cleanup(func() { close(block) })
	mw := func(id int, h http.Handler) http.Handler {
		if id != slow {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/stale" {
				select {
				case <-block: // wedged until test teardown
				case <-r.Context().Done():
				}
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	lc := startSmallCluster(t, mw)
	all, byWorker := clusterKeys(t, lc)
	if len(byWorker[slow]) == 0 {
		t.Fatalf("worker %d owns no keys", slow)
	}

	body, _ := json.Marshal(map[string]any{"keys": all})
	start := time.Now()
	var resp batchResp
	if err := json.Unmarshal([]byte(faultfeed.Post(t, lc.URL()+"/v1/stale", string(body))), &resp); err != nil {
		t.Fatal(err)
	}
	// One per-worker timeout (the retry shares its deadline) plus the
	// failover round, plus slack: the batch must not wait on the wedged
	// worker indefinitely.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("batch took %v against a wedged worker", elapsed)
	}
	if resp.Count != len(all) {
		t.Fatalf("count = %d, want %d", resp.Count, len(all))
	}
	if len(resp.UnavailablePartitions) != 0 {
		t.Fatalf("unavailablePartitions = %v; every wedged partition has a live standby", resp.UnavailablePartitions)
	}
	for i, v := range resp.Verdicts {
		if v.Visibility == "unavailable" {
			t.Fatalf("verdict %d for %q marked unavailable; its standby should have answered", i, v.Key)
		}
	}
}

// TestRouterSSEReconnect restarts a worker under the router and checks the
// merged stream recovers: the router reattaches to the restarted worker
// and a full feed run still delivers an ordered stream.
func TestRouterSSEReconnect(t *testing.T) {
	lc := startSmallCluster(t, nil)

	cap := faultfeed.Subscribe(t, lc.URL()+"/v1/signals")
	lc.Workers[0].StopHTTP()
	deadline := time.Now().Add(5 * time.Second)
	for lc.Router.merger.allConnected() {
		if time.Now().After(deadline) {
			t.Fatal("router never noticed the dead worker stream")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := lc.Workers[0].StartHTTP(); err != nil {
		t.Fatal(err)
	}
	if err := lc.WaitStreams(10 * time.Second); err != nil {
		t.Fatalf("router did not reattach to the restarted worker: %v", err)
	}

	// The reconnected stream must still merge a full feed run.
	lc.StartFeeds()
	if err := lc.WaitFeeds(); err != nil {
		t.Fatal(err)
	}
	stream := cap.Until(t, lc.Workers[0].lastMarker(), 30*time.Second)
	if n := strings.Count(stream, "event: signal"); n == 0 {
		t.Fatal("no signals after worker restart")
	}
	if n := strings.Count(stream, "event: window"); n < 10 {
		t.Fatalf("only %d window barriers after worker restart", n)
	}
	// Window markers must stay strictly increasing — reconnect must not
	// reorder the barrier.
	var last int64 = -1
	for _, line := range strings.Split(stream, "\n") {
		if !strings.HasPrefix(line, "data: {\"windowStart\":") {
			continue
		}
		var mk struct {
			WindowStart int64 `json:"windowStart"`
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &mk); err != nil {
			continue
		}
		if mk.WindowStart <= last {
			t.Fatalf("window barrier went backwards: %d after %d", mk.WindowStart, last)
		}
		last = mk.WindowStart
	}
}

// TestRouterSSEReattachDelay drops a worker's stream right after each of
// eight attaches: a connection that attached resets the reconnect delay,
// so every reattach waits one StreamBackoff, not a doubling series.
func TestRouterSSEReattachDelay(t *testing.T) {
	const drops = 8
	// Room for every attach the test reads; the handler drops later ones.
	attached := make(chan time.Time, drops+1)
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/signals" {
			select {
			case attached <- time.Now():
			default:
			}
		}
	}))
	defer worker.Close()
	rt, err := NewRouter(Options{Workers: []string{worker.URL}, StreamBackoff: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	first := <-attached
	for i := 1; i <= drops; i++ {
		select {
		case at := <-attached:
			if i == drops {
				if took := at.Sub(first); took > 2*time.Second {
					t.Fatalf("%d reattaches took %v; the delay did not reset after an attach", drops, took)
				}
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("reattach %d of %d never came", i, drops)
		}
	}
}

// TestRouterRelaysClientErrors sends each malformed or refused request to a
// worker and to the router and requires the same status and body from both:
// a client error is the client's to fix, whoever answers, and is never
// counted as a partial response.
func TestRouterRelaysClientErrors(t *testing.T) {
	lc := startSmallCluster(t, nil)
	oversized, _ := json.Marshal(map[string]any{"keys": make([]string, server.MaxBatch+1)})
	overBytes := `{"keys":["` + strings.Repeat("1", server.MaxBatchBytes) + `"]}`
	overEvents := `{"classes":["` + strings.Repeat("x", server.MaxEventsBodyBytes) + `"]}`
	overRefresh := `{"budget":1` + strings.Repeat(" ", 20<<20) + `}`
	rows := []struct{ name, path, body string }{
		{"stale: malformed JSON", "/v1/stale", `{`},
		{"stale: no keys", "/v1/stale", `{"keys":[]}`},
		{"stale: bad key", "/v1/stale", `{"keys":["junk"]}`},
		{"stale: over the batch limit", "/v1/stale", string(oversized)},
		{"stale: over the byte limit", "/v1/stale", overBytes},
		{"events: unknown class", "/v1/events", `{"classes":["nosuch"]}`},
		{"events: malformed JSON", "/v1/events", `{`},
		{"events: over the byte limit", "/v1/events", overEvents},
		{"refresh plan: budget 0", "/v1/refresh/plan", `{"budget":0}`},
		{"refresh record: bad src", "/v1/refresh/record", `{"src":"nope","dst":"10.0.0.1","time":1,"hops":[]}`},
		{"refresh plan: 20 MB", "/v1/refresh/plan", overRefresh},
		{"refresh record: 20 MB", "/v1/refresh/record", overRefresh},
	}
	post := func(base, path, body string) (int, string) {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s%s: %v", base, path, err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("POST %s%s: %v", base, path, err)
		}
		return resp.StatusCode, string(data)
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			partial := metRouterPartial.Value()
			wantCode, want := post(lc.Workers[0].URL(), row.path, row.body)
			gotCode, got := post(lc.URL(), row.path, row.body)
			if wantCode < 400 || wantCode >= 500 {
				t.Fatalf("worker answered %d %q; the row is not a client error", wantCode, want)
			}
			if gotCode != wantCode || got != want {
				t.Fatalf("router answered %d %q, worker %d %q", gotCode, got, wantCode, want)
			}
			if n := metRouterPartial.Value() - partial; n != 0 {
				t.Fatalf("rrr_router_partial_responses_total moved by %d on a client error", n)
			}
		})
	}
	// The rows above hold the two tiers equal; this holds them to 413.
	for _, path := range []string{"/v1/refresh/plan", "/v1/refresh/record"} {
		if code, body := post(lc.URL(), path, overRefresh); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("router answered a 20 MB %s body %d %q, want 413", path, code, body)
		}
	}
}

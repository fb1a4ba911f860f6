package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rrr/internal/faultfeed"
)

// TestClusterChaos is the self-healing acceptance test: one cluster run
// absorbs a worker-stream wire kill, a worker HTTP crash and restart, and
// a concurrent overload blast — under continuous read load that must
// never see a failed response while every partition keeps a live replica
// — and must end with every API surface byte-identical to a never-killed
// cluster's. A second phase then takes both replicas of some partitions
// down and checks unavailability is reported exactly there, and that full
// recovery follows.
func TestClusterChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run drives full feeds several times; run without -short")
	}
	// The reference: a healthy cluster over the same feeds, never killed.
	want := clusterOutputs(t, diffScale(), 3)

	// Chaos cluster: worker 2's HTTP traffic — the router's SSE stream
	// subscription included — runs through a flaky proxy that resets the
	// first accepted connection (the stream) after 16 KiB.
	proxy := &faultfeed.Proxy{KillAfterBytes: []int64{16 << 10}}
	t.Cleanup(func() { proxy.Close() })
	// streamSubs counts worker 2's /v1/signals subscriptions on the worker
	// side: reaching 2 proves the proxied stream was cut and the router
	// re-subscribed (data requests share the proxy, so its connection count
	// can't tell streams apart).
	var streamSubs atomic.Int64
	lc, err := StartLocal(LocalOptions{
		Workers:         3,
		Scale:           diffScale(),
		RouterTimeout:   2 * time.Second,
		StreamBackoff:   20 * time.Millisecond,
		BreakerCooldown: 100 * time.Millisecond,
		Middleware: func(workerID int, h http.Handler) http.Handler {
			if workerID != 2 {
				return h
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/signals" {
					streamSubs.Add(1)
				}
				h.ServeHTTP(w, r)
			})
		},
		WorkerURL: func(workerID int, url string) string {
			if workerID != 2 {
				return url
			}
			proxy.Upstream = strings.TrimPrefix(url, "http://")
			if err := proxy.Start(); err != nil {
				t.Fatalf("proxy: %v", err)
			}
			return "http://" + proxy.Addr()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	if err := lc.WaitStreams(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	cap := captureStream(t, lc.URL())
	all, _ := clusterKeys(t, lc)

	// Continuous read load: single-key verdicts and small batches, every
	// response must be 200 while at least one replica per partition lives.
	var (
		stopReaders = make(chan struct{})
		readerWG    sync.WaitGroup
		reads       atomic.Int64
		failures    atomic.Int64
		firstFail   atomic.Value
	)
	smallBatch, _ := json.Marshal(map[string]any{"keys": all[:min(16, len(all))]})
	for g := 0; g < 6; g++ {
		readerWG.Add(1)
		go func(g int) {
			defer readerWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stopReaders:
					return
				default:
				}
				var resp *http.Response
				var err error
				if i%2 == 0 {
					resp, err = http.Get(lc.URL() + "/v1/stale/" + all[(g*31+i)%len(all)])
				} else {
					resp, err = http.Post(lc.URL()+"/v1/stale", "application/json", strings.NewReader(string(smallBatch)))
				}
				if err != nil {
					failures.Add(1)
					firstFail.CompareAndSwap(nil, err.Error())
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
					firstFail.CompareAndSwap(nil, fmt.Sprintf("status %d: %.200s", resp.StatusCode, body))
				}
				reads.Add(1)
			}
		}(g)
	}

	lc.StartFeeds()

	// Phase 1 — wire kill: wait for the proxy to cut worker 2's stream and
	// for the router to have reconnected through it (second accepted
	// connection) with every stream attached again.
	deadline := time.Now().Add(30 * time.Second)
	for streamSubs.Load() < 2 || !lc.Router.merger.allConnected() {
		if time.Now().After(deadline) {
			t.Fatalf("stream never killed+reconnected: %d subscriptions, connected=%v",
				streamSubs.Load(), lc.Router.merger.allConnected())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Phase 2 — worker crash: kill worker 1's HTTP (stream included) under
	// load, let failover carry reads, then restart it.
	lc.Workers[1].StopHTTP()
	time.Sleep(300 * time.Millisecond)
	if err := lc.Workers[1].StartHTTP(); err != nil {
		t.Fatal(err)
	}
	pollReady(t, lc.URL(), 15*time.Second)

	// Phase 3 — overload: a second router with a tiny admission bound in
	// front of the same workers sheds the blast's overflow with 429 and
	// never anything worse; the main router's readers stay untouched.
	blastRouter, err := NewRouter(Options{
		Workers: []string{lc.Workers[0].URL(), lc.Workers[1].URL(), lc.Workers[2].URL()},
		Timeout: 5 * time.Second, StreamBackoff: 20 * time.Millisecond,
		MaxInFlight: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	blastTS := httptest.NewServer(blastRouter.Handler())
	fullBatch, _ := json.Marshal(map[string]any{"keys": all})
	var shed, ok2xx, worse atomic.Int64
	for round := 0; round < 3 && shed.Load() == 0; round++ {
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < 32; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				resp, err := http.Post(blastTS.URL+"/v1/stale", "application/json", strings.NewReader(string(fullBatch)))
				if err != nil {
					worse.Add(1)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusOK:
					ok2xx.Add(1)
				case resp.StatusCode == http.StatusTooManyRequests:
					if resp.Header.Get("Retry-After") == "" {
						worse.Add(1)
						return
					}
					shed.Add(1)
				default:
					worse.Add(1)
				}
			}()
		}
		close(start)
		wg.Wait()
	}
	blastTS.Close()
	blastRouter.Close()
	if shed.Load() == 0 {
		t.Fatalf("no request shed across 3 blast rounds (%d ok)", ok2xx.Load())
	}
	if worse.Load() > 0 {
		t.Fatalf("%d blast requests failed with something other than 200 or 429+Retry-After", worse.Load())
	}
	if ok2xx.Load() == 0 {
		t.Fatal("overload blast starved every request; admission must shed excess, not everything")
	}

	// Drain the feeds and stop the load; not a single read may have failed.
	if err := lc.WaitFeeds(); err != nil {
		t.Fatal(err)
	}
	close(stopReaders)
	readerWG.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d of %d reads failed during single-replica outages; first: %v", n, reads.Load(), firstFail.Load())
	}
	if reads.Load() == 0 {
		t.Fatal("readers issued no requests; the chaos phases went unobserved")
	}

	// The merged stream must be byte-identical to the never-killed run —
	// coverage never broke, so failover left no mark and no gap frame. The
	// capture ends once the reference's last window marker has arrived: a
	// quiet spell on a loaded host is not the stream's end.
	stream := normalizeStream(cap.until(t, lastWindowFrame(t, want.stream), 30*time.Second))
	if strings.Contains(stream, "event: gap") {
		t.Fatal("gap frame on a stream that never lost partition coverage")
	}
	diffStrings(t, "chaos stream", want.stream, stream)
	gotKeys := httpGet(t, lc.URL()+"/v1/keys")
	diffStrings(t, "chaos keys", want.keys, gotKeys)
	diffStrings(t, "chaos batch", want.batch, httpPost(t, lc.URL()+"/v1/stale", batchBody(t, gotKeys)))
	diffStrings(t, "chaos stats", want.stats, httpGet(t, lc.URL()+"/v1/stats"))

	// Phase 4 — both replicas down: partitions replicated only on workers
	// {1, 2} go dark; exactly those are reported unavailable, everything
	// else keeps serving from worker 0.
	lc.Workers[1].StopHTTP()
	lc.Workers[2].StopHTTP()
	dark := darkPartitions(lc, 1, 2)
	if len(dark) == 0 {
		t.Fatal("no partition has both replicas on workers 1 and 2; ring geometry changed, rewrite the test")
	}
	var resp batchResp
	if err := json.Unmarshal([]byte(httpPost(t, lc.URL()+"/v1/stale", string(fullBatch))), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != len(all) {
		t.Fatalf("count = %d, want %d", resp.Count, len(all))
	}
	for i, v := range resp.Verdicts {
		p := lc.Ring.partitionOf(mustKey(t, v.Key))
		if dark[p] && v.Visibility != "unavailable" {
			t.Fatalf("verdict %d (dark partition %d): visibility %q, want unavailable", i, p, v.Visibility)
		}
		if !dark[p] && v.Visibility == "unavailable" {
			t.Fatalf("verdict %d (partition %d has a live replica) marked unavailable", i, p)
		}
	}
	for _, p := range resp.UnavailablePartitions {
		if !dark[p] {
			t.Fatalf("unavailablePartitions lists %d, which has a live replica", p)
		}
	}
	keysResp, err := http.Get(lc.URL() + "/v1/keys")
	if err != nil {
		t.Fatal(err)
	}
	keysBody, _ := io.ReadAll(keysResp.Body)
	keysResp.Body.Close()
	if keysResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET /v1/keys with dark partitions = %d, want 503", keysResp.StatusCode)
	}
	if !strings.Contains(string(keysBody), "unavailablePartitions") {
		t.Fatalf("dark-partition 503 without unavailablePartitions: %s", keysBody)
	}

	// Phase 5 — recovery: restart both workers; the router's readiness
	// sweep closes their breakers and the surfaces return byte-identical.
	if err := lc.Workers[1].StartHTTP(); err != nil {
		t.Fatal(err)
	}
	if err := lc.Workers[2].StartHTTP(); err != nil {
		t.Fatal(err)
	}
	pollReady(t, lc.URL(), 15*time.Second)
	gotKeys = httpGet(t, lc.URL()+"/v1/keys")
	diffStrings(t, "post-recovery keys", want.keys, gotKeys)
	diffStrings(t, "post-recovery batch", want.batch, httpPost(t, lc.URL()+"/v1/stale", batchBody(t, gotKeys)))
	diffStrings(t, "post-recovery stats", want.stats, httpGet(t, lc.URL()+"/v1/stats"))
}

// pollReady polls the router's /readyz until it reports "ready" — the
// probe sweep is also what closes recovered workers' breakers.
func pollReady(t *testing.T, url string, max time.Duration) {
	t.Helper()
	deadline := time.Now().Add(max)
	for {
		resp, err := http.Get(url + "/readyz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && strings.Contains(string(body), `"ready"`) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("router not ready after %v: status %d %s", max, resp.StatusCode, body)
			}
		} else if time.Now().After(deadline) {
			t.Fatalf("router not ready after %v: %v", max, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// lastWindowFrame is the last window marker frame of a normalized stream,
// up to its blank-line terminator.
func lastWindowFrame(t *testing.T, stream string) string {
	t.Helper()
	at := strings.LastIndex(stream, "event: window\n")
	if at < 0 {
		t.Fatal("reference stream has no window marker")
	}
	frame, _, _ := strings.Cut(stream[at:], "\n\n")
	return frame + "\n\n"
}

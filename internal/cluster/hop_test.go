package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rrr/internal/server"
)

// TestRouterDamagedFrameFailsOver damages one worker's framed sub-batch
// answers — a flipped byte, a frame cut short, a body that ends before its
// declared length — and requires what a dead worker gets: the attempt
// retried, the keys moved to their standbys, and the client's body
// byte-identical to the healthy cluster's.
func TestRouterDamagedFrameFailsOver(t *testing.T) {
	const bad = 1
	const (
		healthy int32 = iota
		flipByte
		shortFrame
		cutBody
	)
	var mode atomic.Int32
	mw := func(id int, h http.Handler) http.Handler {
		if id != bad {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			m := mode.Load()
			if m == healthy || r.Header.Get("Content-Type") != server.StaleFrameType {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			out := rec.Body.Bytes()
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			switch m {
			case flipByte:
				out[len(out)/2] ^= 0x20
			case shortFrame:
				out = out[:len(out)-5]
				w.Header().Set("Content-Length", strconv.Itoa(len(out)))
			case cutBody: // Content-Length still promises the whole frame
				out = out[:len(out)-5]
			}
			w.WriteHeader(rec.Code)
			w.Write(out)
		})
	}
	lc := startSmallCluster(t, mw)
	all, byWorker := clusterKeys(t, lc)
	if len(byWorker[bad]) == 0 {
		t.Fatalf("worker %d owns no keys; pick another corpus seed", bad)
	}
	body, _ := json.Marshal(map[string]any{"keys": all})
	want := httpPost(t, lc.URL()+"/v1/stale", string(body))

	for m, name := range map[int32]string{flipByte: "flipped byte", shortFrame: "short frame", cutBody: "cut body"} {
		mode.Store(m)
		failovers, retries, partial := metRouterFailovers.Value(), metRouterRetries.Value(), metRouterPartial.Value()
		got := httpPost(t, lc.URL()+"/v1/stale", string(body))
		diffStrings(t, "batch across a "+name, want, got)
		if n := metRouterFailovers.Value() - failovers; n != uint64(len(byWorker[bad])) {
			t.Errorf("%s: rrr_router_failovers_total moved by %d, want worker %d's %d keys", name, n, bad, len(byWorker[bad]))
		}
		if metRouterRetries.Value() == retries {
			t.Errorf("%s: the damaged answer was not retried before failing over", name)
		}
		if metRouterPartial.Value() != partial {
			t.Errorf("%s: counted as a partial response though every standby answered", name)
		}
	}
}

// persistConns counts the net/http client connection goroutines alive in
// this process.
func persistConns() int {
	buf := make([]byte, 4<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "net/http.(*persistConn).readLoop")
}

// TestRouterCloseEndsWorkerConnections: what the router dialled, Close hangs
// up. Idle sub-request connections used to sit in http.DefaultTransport
// after Close, one socket and two goroutines per worker per router.
func TestRouterCloseEndsWorkerConnections(t *testing.T) {
	before := persistConns()
	var open atomic.Int64 // connections the workers currently hold
	var urls []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/v1/signals":
				w.Header().Set("Content-Type", "text/event-stream")
				w.(http.Flusher).Flush()
				<-r.Context().Done()
			case "/readyz":
				server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
			default:
				http.NotFound(w, r)
			}
		}))
		ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			switch st {
			case http.StateNew:
				open.Add(1)
			case http.StateClosed:
				open.Add(-1)
			}
		}
		ts.Start()
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	rt, err := NewRouter(Options{Workers: urls, StreamBackoff: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); !rt.StreamConnected(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			rt.Close()
			t.Fatal("worker streams never attached")
		}
	}
	for i := 0; i < 3; i++ {
		rr := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		if rr.Code != http.StatusOK {
			rt.Close()
			t.Fatalf("GET /readyz = %d %s", rr.Code, rr.Body)
		}
	}
	if n := open.Load(); n < 4 {
		t.Errorf("%d worker connections before Close, want a stream and an idle sub-request connection to each of 2 workers", n)
	}

	rt.Close()
	deadline := time.Now().Add(5 * time.Second)
	for open.Load() > 0 || persistConns() > before {
		if time.Now().After(deadline) {
			t.Fatalf("after Router.Close the workers still hold %d connections from it, and %d client connection goroutines are alive against %d before the router was built",
				open.Load(), persistConns(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRoutedBatchAllocs is the allocation budget of the routed batch path:
// two workers, 64-key bodies over loopback, one persistent client
// connection, every malloc in the process (client, router, both workers)
// per request. The JSON hop read 972 here; the framed hop must stay under
// 500, so the count cannot creep back between benchmark runs.
func TestRoutedBatchAllocs(t *testing.T) {
	lc, err := StartLocal(LocalOptions{Workers: 2, Scale: diffScale(), StreamBackoff: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	if err := lc.WaitStreams(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	all, _ := clusterKeys(t, lc)
	bodies := make([][]byte, 16)
	for b := range bodies {
		keys := make([]string, 64)
		for i := range keys {
			keys[i] = all[(b*len(keys)+i)%len(all)]
		}
		bodies[b], _ = json.Marshal(map[string]any{"keys": keys})
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	post := func(i int) {
		resp, err := client.Post(lc.URL()+"/v1/stale", "application/json", bytes.NewReader(bodies[i%len(bodies)]))
		if err != nil {
			t.Fatal(err)
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || n == 0 {
			t.Fatalf("request %d: status %d, %d bytes", i, resp.StatusCode, n)
		}
	}
	const warmup, measured, budget = 500, 2000, 500
	for i := 0; i < warmup; i++ {
		post(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < measured; i++ {
		post(i)
	}
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / measured
	t.Logf("%.1f allocations per routed 64-key batch", per)
	if per > budget {
		t.Fatalf("%.1f allocations per routed 64-key batch, budget %d", per, budget)
	}
}

package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"rrr/internal/faultfeed"
)

// TestBreakerTransitions walks the full state machine with a pinned clock:
// closed survives threshold-1 failures, opens on the threshold-th, rejects
// during cooldown, grants exactly the probe right after it, re-opens on a
// failed probe, and closes on a successful one.
func TestBreakerTransitions(t *testing.T) {
	const cooldown = 50 * time.Millisecond
	b := newBreaker(0, 3, cooldown)
	now := time.Now()

	if ok, _ := b.allow(now); !ok {
		t.Fatal("fresh breaker rejects traffic")
	}
	// A success resets the failure streak: 2+success+2 never reaches 3.
	b.onFailure(now)
	b.onFailure(now)
	b.onSuccess()
	b.onFailure(now)
	if opened := b.onFailure(now); opened {
		t.Fatal("opened after 2 post-success failures; success did not clear the streak")
	}
	if ok, _ := b.allow(now); !ok {
		t.Fatal("breaker opened below threshold")
	}
	if opened := b.onFailure(now); !opened {
		t.Fatal("threshold-th consecutive failure did not report opening")
	}
	if got := b.snapshot(); got != "open" {
		t.Fatalf("state = %q, want open", got)
	}
	if ok, probe := b.allow(now.Add(cooldown / 2)); ok || probe {
		t.Fatalf("mid-cooldown allow = (%v, %v), want rejection without probe", ok, probe)
	}

	// Cooldown elapsed: the first allow wins the probe right, the next
	// keeps failing over.
	if ok, probe := b.allow(now.Add(cooldown)); ok || !probe {
		t.Fatalf("post-cooldown allow = (%v, %v), want probe grant", ok, probe)
	}
	if got := b.snapshot(); got != "half-open" {
		t.Fatalf("state = %q, want half-open", got)
	}
	if ok, probe := b.allow(now.Add(cooldown)); ok || probe {
		t.Fatalf("second post-cooldown allow = (%v, %v), want rejection without probe", ok, probe)
	}

	// Failed probe: back to open, cooldown restarts from the probe.
	probeTime := now.Add(cooldown)
	b.onProbe(false, probeTime)
	if got := b.snapshot(); got != "open" {
		t.Fatalf("state after failed probe = %q, want open", got)
	}
	if ok, probe := b.allow(probeTime.Add(cooldown / 2)); ok || probe {
		t.Fatal("failed probe did not restart the cooldown")
	}
	if _, probe := b.allow(probeTime.Add(cooldown)); !probe {
		t.Fatal("no second probe after the restarted cooldown")
	}

	// Successful probe closes and traffic flows again.
	b.onProbe(true, probeTime.Add(cooldown))
	if got := b.snapshot(); got != "closed" {
		t.Fatalf("state after successful probe = %q, want closed", got)
	}
	if ok, _ := b.allow(probeTime.Add(cooldown)); !ok {
		t.Fatal("closed breaker rejects traffic")
	}
}

// TestBreakerHalfOpenSingleProbe races many allow() calls at an open
// breaker whose cooldown has elapsed: exactly one caller may win the probe
// right, or concurrent requests would stampede a barely-recovering worker.
// Meaningful under -race.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	past := time.Now().Add(-time.Hour)
	b := newBreaker(1, 1, 50*time.Millisecond)
	b.onFailure(past) // opens immediately, cooldown long elapsed

	const callers = 100
	var wg sync.WaitGroup
	probes := make(chan bool, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok, probe := b.allow(time.Now())
			if ok {
				t.Error("half-open breaker admitted regular traffic")
			}
			probes <- probe
		}()
	}
	wg.Wait()
	close(probes)
	won := 0
	for p := range probes {
		if p {
			won++
		}
	}
	if won != 1 {
		t.Fatalf("%d callers won the probe right, want exactly 1", won)
	}
}

// TestRouterShedRecover wedges a worker under a MaxInFlight=1 router and
// checks the serve path sheds the overflow request with 429 + Retry-After
// instead of queueing, then serves normally once the wedge clears.
// Meaningful under -race: admission bookkeeping races with the shed path.
func TestRouterShedRecover(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	mw := func(id int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/stale" {
				select {
				case entered <- struct{}{}:
				default:
				}
				select {
				case <-release:
				case <-r.Context().Done():
					return
				}
			}
			h.ServeHTTP(w, r)
		})
	}
	lc, err := StartLocal(LocalOptions{
		Workers:           3,
		Scale:             diffScale(),
		RouterTimeout:     2 * time.Second,
		StreamBackoff:     20 * time.Millisecond,
		Middleware:        mw,
		RouterMaxInFlight: 1,
		// Breakers stay out of this test's way: the wedge would otherwise
		// open one and turn the recovery check into a failover check.
		BreakerThreshold: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	if err := lc.WaitStreams(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	all, _ := clusterKeys(t, lc)
	body, _ := json.Marshal(map[string]any{"keys": all[:1]})

	first := make(chan int, 1)
	go func() {
		resp, err := http.Post(lc.URL()+"/v1/stale", "application/json", strings.NewReader(string(body)))
		if err != nil {
			first <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	<-entered // the batch is wedged inside a worker, holding the router's only slot

	resp, err := http.Post(lc.URL()+"/v1/stale", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	shedBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request = %d (%s), want 429", resp.StatusCode, shedBody)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After; clients can't back off politely")
	}

	close(release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("wedged request finished %d, want 200 after release", code)
	}
	if got := faultfeed.Post(t, lc.URL()+"/v1/stale", string(body)); !strings.Contains(got, `"count":1`) {
		t.Fatalf("post-recovery batch = %s", got)
	}
}

// TestRouterMetricsExposition pins the router's scrape surface: the
// self-healing metric families from this layer are present with HELP
// text, so dashboards can alert on breaker flips and shed storms.
func TestRouterMetricsExposition(t *testing.T) {
	lc := startSmallCluster(t, nil)
	body := faultfeed.Get(t, lc.URL()+"/metrics")
	for _, fam := range []string{
		"rrr_router_breaker_state",
		"rrr_router_breaker_opens_total",
		"rrr_router_failovers_total",
		"rrr_router_shed_total",
		"rrr_router_inflight",
		"rrr_server_shed_total",
		"rrr_server_inflight",
	} {
		if !strings.Contains(body, "\n"+fam) && !strings.HasPrefix(body, fam) {
			t.Errorf("missing family %s", fam)
		}
		if !strings.Contains(body, "# HELP "+fam+" ") {
			t.Errorf("family %s has no HELP text", fam)
		}
	}
	// The per-worker breaker gauge carries a worker label per breaker.
	if !strings.Contains(body, `rrr_router_breaker_state{worker="0"}`) {
		t.Error("breaker state gauge is not labelled by worker")
	}
}

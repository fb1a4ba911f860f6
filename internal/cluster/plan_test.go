package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"rrr/internal/faultfeed"
)

type planResp struct {
	Keys    []string        `json:"keys"`
	Planned int             `json:"planned"`
	Plan    json.RawMessage `json:"plan"`
}

func parsePlan(t *testing.T, body string) planResp {
	t.Helper()
	var p planResp
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("plan response: %v", err)
	}
	return p
}

func planBody(budget int) string {
	return fmt.Sprintf(`{"budget":%d}`, budget)
}

// TestClusterRefreshPlanDifferential is the regression test for the
// router's old concatenate-then-truncate plan merge, which kept worker
// 0's whole plan and starved later workers regardless of signal
// priority. A budget-constrained plan from the router must be
// byte-identical to the single daemon's over the same feeds: the global
// top-budget selection in §4.3.1 priority order, interleaved across
// workers.
func TestClusterRefreshPlanDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential runs a full simulated day per topology")
	}

	// Single-daemon baseline, fed to EOF. No refresh measurements are
	// recorded, so calibration stays uninitialized and planning is the
	// deterministic Table-1 bootstrap — exact equality is well-defined.
	lw, err := StartLocalDaemon(diffScale())
	if err != nil {
		t.Fatal(err)
	}
	defer lw.StopHTTP()
	if err := lw.RunFeed(context.Background()); err != nil {
		t.Fatalf("baseline feed: %v", err)
	}
	full := parsePlan(t, faultfeed.Post(t, lw.URL()+"/v1/refresh/plan", planBody(1<<20)))
	if full.Planned < 6 {
		t.Fatalf("only %d plannable pairs; differential would be vacuous", full.Planned)
	}
	// A budget below the candidate count forces the truncation the old
	// merge got wrong.
	budget := full.Planned * 2 / 3
	want := faultfeed.Post(t, lw.URL()+"/v1/refresh/plan", planBody(budget))
	if got := parsePlan(t, want).Planned; got != budget {
		t.Fatalf("baseline planned %d of budget %d", got, budget)
	}

	// K=3 cluster over the same feeds.
	lc, err := StartLocal(LocalOptions{
		Workers:       3,
		Scale:         diffScale(),
		RouterTimeout: 30 * time.Second,
		StreamBackoff: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if err := lc.WaitStreams(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	lc.StartFeeds()
	if err := lc.WaitFeeds(); err != nil {
		t.Fatalf("cluster feeds: %v", err)
	}

	// Vacuity guards: the merge only matters if several workers hold
	// plannable pairs, and the priority interleave only matters if the
	// naive "worker 0 first" truncation would have picked a different
	// set or order.
	var workerKeys [][]string
	contributing := 0
	for _, w := range lc.Workers {
		p := parsePlan(t, faultfeed.Post(t, w.URL()+"/v1/refresh/plan", planBody(budget)))
		if p.Planned > 0 {
			contributing++
		}
		workerKeys = append(workerKeys, p.Keys)
	}
	if contributing < 2 {
		t.Fatalf("%d workers hold plannable pairs; merge would be vacuous", contributing)
	}
	var naive []string
	for _, keys := range workerKeys {
		naive = append(naive, keys...)
	}
	if len(naive) > budget {
		naive = naive[:budget]
	}

	got := faultfeed.Post(t, lc.URL()+"/v1/refresh/plan", planBody(budget))
	sides.Diff(t, "refresh plan", want, got)

	merged := parsePlan(t, got)
	naiveMatches := len(naive) == len(merged.Keys)
	if naiveMatches {
		for i := range naive {
			if naive[i] != merged.Keys[i] {
				naiveMatches = false
				break
			}
		}
	}
	if naiveMatches {
		t.Fatal("naive concatenation equals the priority merge; test does not exercise the interleave")
	}
}

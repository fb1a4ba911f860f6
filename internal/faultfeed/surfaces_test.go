package faultfeed

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// sseServer serves frames on /v1/signals, after a comment preamble, and
// then holds the stream open until the client leaves.
func sseServer(t *testing.T, frames ...string) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, ": preamble\n\n"+strings.Join(frames, ""))
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	}))
	t.Cleanup(ts.Close)
	return ts.URL + "/v1/signals"
}

// TestCaptureEndsAtMarker pins the capture's one way to end: the named
// frame. A stream that holds it comes back without its comments; one
// that never does fails, naming the marker and the last line it got.
func TestCaptureEndsAtMarker(t *testing.T) {
	signal := "event: signal\ndata: {\"windowStart\":0}\n\n"
	url := sseServer(t, signal, WindowMarker(0), WindowMarker(900))

	got := Subscribe(t, url).Until(t, WindowMarker(900), 5*time.Second)
	if want := "\n" + signal + WindowMarker(0) + WindowMarker(900); got != want {
		t.Fatalf("capture = %q, want %q", got, want)
	}

	_, err := Subscribe(t, url).until(WindowMarker(1800), 100*time.Millisecond)
	if err == nil {
		t.Fatal("a capture whose marker never arrived ended without an error")
	}
	for _, want := range []string{`data: {\"windowStart\":1800}`, `last line is "data: {\"windowStart\":900}"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

// TestSidesDiffNamesFirstDivergentLine pins the diff's report: the first
// line that differs, under each side's label.
func TestSidesDiffNamesFirstDivergentLine(t *testing.T) {
	sides := Sides{Want: "single", Got: "cluster"}
	if err := sides.diff("stats", "a\nb", "a\nb"); err != nil {
		t.Fatalf("equal bodies: %v", err)
	}
	err := sides.diff("stats", "a\nb\nc", "a\nx\nc\nd")
	if err == nil {
		t.Fatal("different bodies compared equal")
	}
	want := "stats diverges at line 2:\n single: \"b\"\ncluster: \"x\"\n(single 3 lines, cluster 4 lines)"
	if err.Error() != want {
		t.Fatalf("diff = %q, want %q", err, want)
	}
	if err := sides.diff("keys", "a", "a\n"); err == nil || !strings.Contains(err.Error(), "trailing newlines") {
		t.Fatalf("trailing newline: %v", err)
	}
}

// TestReadSurfaces pins what the reader asks for: the batch posts every
// key the key list names.
func TestReadSurfaces(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/keys", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"count":2,"keys":["1.0.0.1-2.0.0.2","3.0.0.3-4.0.0.4"]}`)
	})
	mux.HandleFunc("POST /v1/stale", func(w http.ResponseWriter, r *http.Request) {
		data, _ := io.ReadAll(r.Body)
		fmt.Fprintf(w, "%s %s", r.Header.Get("Content-Type"), data)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, "stats") })
	mux.HandleFunc("GET /v1/events", func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, "events") })
	ts := httptest.NewServer(mux)
	defer ts.Close()

	got := ReadSurfaces(t, ts.URL)
	want := Surfaces{
		Keys:   `{"count":2,"keys":["1.0.0.1-2.0.0.2","3.0.0.3-4.0.0.4"]}`,
		Batch:  `application/json {"keys":["1.0.0.1-2.0.0.2","3.0.0.3-4.0.0.4"]}`,
		Stats:  "stats",
		Events: "events",
	}
	if got != want {
		t.Fatalf("surfaces = %+v\nwant %+v", got, want)
	}
}

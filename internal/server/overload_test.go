package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rrr/internal/faultfeed"
)

// TestDeadlineHeaderShed pins the deadline-propagation contract: a request
// arriving with its router-side budget already spent is shed immediately
// with 503 + Retry-After (the worker must not compute verdicts the router
// has stopped waiting for), while a live budget and exempt paths pass.
func TestDeadlineHeaderShed(t *testing.T) {
	mon, _, _ := newStaleMonitor(t)
	srv := New(mon, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path, deadlineMs string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if deadlineMs != "" {
			req.Header.Set(DeadlineHeader, deadlineMs)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		io.Copy(io.Discard, resp.Body)
		return resp
	}

	if resp := get("/v1/keys", "0"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("spent deadline = %d, want 503", resp.StatusCode)
	} else if resp.Header.Get("Retry-After") == "" {
		t.Fatal("spent-deadline 503 without Retry-After")
	}
	if resp := get("/v1/keys", "-5"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("negative deadline = %d, want 503", resp.StatusCode)
	}
	if resp := get("/v1/keys", "30000"); resp.StatusCode != http.StatusOK {
		t.Fatalf("live deadline = %d, want 200", resp.StatusCode)
	}
	if resp := get("/v1/keys", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("no deadline = %d, want 200", resp.StatusCode)
	}
	// Probe endpoints are exempt from every admission check — a spent
	// deadline must not make the worker look unhealthy.
	if resp := get("/healthz", "0"); resp.StatusCode != http.StatusOK {
		t.Fatalf("exempt path with spent deadline = %d, want 200", resp.StatusCode)
	}
}

// TestOverloadShed drives the in-flight admission bound deterministically:
// a request wedged in the handler (its body arrives byte by byte) holds
// the single MaxInFlight slot, the next data request is shed with
// 503 + Retry-After, and once the wedge clears the serve path recovers.
func TestOverloadShed(t *testing.T) {
	mon, _, _ := newStaleMonitor(t)
	srv := New(mon, Config{MaxInFlight: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	pr, pw := io.Pipe()
	first := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/stale", "application/json", pr)
		if err != nil {
			first <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	// The handler is inside the admission gate once the inflight gauge
	// reads 1 (/metrics is exempt, so polling it cannot consume the slot).
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(string(body), "rrr_server_inflight 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first request never occupied the in-flight slot")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow request = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("overload 503 without Retry-After")
	}

	if _, err := pw.Write([]byte(`{"keys":["10.0.0.1-10.0.0.2"]}`)); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if code := <-first; code != http.StatusOK {
		t.Fatalf("wedged request finished %d, want 200", code)
	}
	faultfeed.Get(t, ts.URL+"/v1/stats") // the recovered server answers 200
}

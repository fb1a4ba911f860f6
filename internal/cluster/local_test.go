package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"rrr"
	"rrr/internal/daemon"
	"rrr/internal/experiments"
)

// LocalOptions configures an in-process cluster over simulated feeds.
type LocalOptions struct {
	Workers    int
	Partitions int
	Scale      experiments.Scale
	// RouterTimeout is the router's per-worker sub-request timeout.
	RouterTimeout time.Duration
	// StreamBackoff is the router's worker-stream reconnect delay.
	StreamBackoff time.Duration
	// Middleware, when set, wraps each worker's handler (by worker ID) —
	// failure tests inject latency or errors here.
	Middleware func(workerID int, h http.Handler) http.Handler
	// WorkerURL, when set, rewrites each worker's base URL before the
	// router sees it — chaos tests interpose a fault-injecting proxy here.
	WorkerURL func(workerID int, url string) string
	// RouterMaxInFlight bounds the router's concurrently-served requests
	// (0 = DefaultRouterMaxInFlight).
	RouterMaxInFlight int
	// BreakerThreshold / BreakerCooldown tune the router's per-worker
	// circuit breakers (0 = package defaults).
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

// LocalWorker is one in-process rrrd worker: the daemon rrrd assembles,
// tracking its ring slice, behind an HTTP listener whose address survives
// StopHTTP/StartHTTP cycles so the router (and its SSE reconnect path)
// can find a "restarted" worker at the same URL.
type LocalWorker struct {
	ID int
	*daemon.Daemon

	addr    string
	handler http.Handler
	mu      sync.Mutex
	httpSrv *http.Server
}

// URL is the worker's base URL.
func (lw *LocalWorker) URL() string { return "http://" + lw.addr }

// StartHTTP binds the worker's address — any free loopback port the first
// time, that same port on every restart — and serves until StopHTTP.
func (lw *LocalWorker) StartHTTP() error {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.httpSrv != nil {
		return nil
	}
	lis, err := net.Listen("tcp", lw.addr)
	if err != nil {
		return fmt.Errorf("cluster: worker %d listen %s: %w", lw.ID, lw.addr, err)
	}
	lw.addr = lis.Addr().String()
	lw.httpSrv = &http.Server{Handler: lw.handler}
	go lw.httpSrv.Serve(lis)
	return nil
}

// StopHTTP closes the worker's listener and in-flight connections,
// simulating a crash from the router's point of view.
func (lw *LocalWorker) StopHTTP() {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.httpSrv == nil {
		return
	}
	lw.httpSrv.Close()
	lw.httpSrv = nil
}

// LocalCluster is K in-process workers behind an in-process router, each
// worker ingesting the full simulated feed while tracking only its ring
// slice. Feeds start explicitly (StartFeeds) so tests can attach stream
// subscribers first.
type LocalCluster struct {
	Ring     *Ring
	Workers  []*LocalWorker
	Router   *Router
	RouterTS *httptest.Server

	cancel   context.CancelFunc
	feedErrs chan error
	started  bool
}

// startWorker assembles worker id of ring the way rrrd does and serves it on
// a fresh loopback address. A nil ring is the single-daemon baseline: full
// corpus, no worker identity. Workers track every pair their partitions
// replicate, as primary or standby; a standby sees the same full feed, so
// its verdicts are the primary's, byte for byte. No Health registry: the
// router prefixes merged feed names per worker, and the differentials compare
// merged stats with a single daemon's byte for byte.
func startWorker(sc experiments.Scale, ring *Ring, id int, wrap func(int, http.Handler) http.Handler) (*LocalWorker, error) {
	var opts daemon.Options
	if ring != nil {
		opts.Keep, opts.Server.Worker = ring.Worker(id)
	}
	d, err := daemon.New(sc, opts)
	if err != nil {
		return nil, err
	}
	d.Track()
	if _, _, err := d.Recover(nil); err != nil {
		return nil, err
	}
	lw := &LocalWorker{ID: id, Daemon: d, addr: "127.0.0.1:0", handler: d.Srv.Handler()}
	if wrap != nil {
		lw.handler = wrap(id, lw.handler)
	}
	return lw, lw.StartHTTP()
}

// StartLocalDaemon builds the single-node baseline the differential tests
// compare the cluster against: same scale, same feeds, full corpus, no
// worker identity.
func StartLocalDaemon(sc experiments.Scale) (*LocalWorker, error) {
	return startWorker(sc, nil, 0, nil)
}

// RunFeed drives the worker's pipeline — rrrd's, at default flags — to feed
// EOF, publishing signals and window markers to its SSE hub.
func (lw *LocalWorker) RunFeed(ctx context.Context) error {
	return rrr.RunPipeline(ctx, lw.Mon, lw.Pipeline(nil, daemon.DefaultRetry))
}

// StartLocal brings up the cluster: workers listening, router subscribed
// to their streams, feeds not yet flowing.
func StartLocal(opts LocalOptions) (*LocalCluster, error) {
	ring, err := NewRing(opts.Workers, opts.Partitions)
	if err != nil {
		return nil, err
	}
	lc := &LocalCluster{Ring: ring, feedErrs: make(chan error, opts.Workers)}
	urls := make([]string, opts.Workers)
	for w := 0; w < opts.Workers; w++ {
		lw, err := startWorker(opts.Scale, ring, w, opts.Middleware)
		if err != nil {
			lc.Close()
			return nil, err
		}
		lc.Workers = append(lc.Workers, lw)
		urls[w] = lw.URL()
		if opts.WorkerURL != nil {
			urls[w] = opts.WorkerURL(w, urls[w])
		}
	}
	rt, err := NewRouter(Options{
		Workers:          urls,
		Partitions:       opts.Partitions,
		Timeout:          opts.RouterTimeout,
		StreamBackoff:    opts.StreamBackoff,
		MaxInFlight:      opts.RouterMaxInFlight,
		BreakerThreshold: opts.BreakerThreshold,
		BreakerCooldown:  opts.BreakerCooldown,
	})
	if err != nil {
		lc.Close()
		return nil, err
	}
	lc.Router = rt
	lc.RouterTS = httptest.NewServer(rt.Handler())
	return lc, nil
}

// URL is the router's base URL.
func (lc *LocalCluster) URL() string { return lc.RouterTS.URL }

// WaitStreams blocks until the router has every worker stream attached
// (start feeds only after, or early signals are never seen by the
// merger).
func (lc *LocalCluster) WaitStreams(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for !lc.Router.merger.allConnected() {
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: worker streams not connected after %v", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// StartFeeds launches every worker's pipeline.
func (lc *LocalCluster) StartFeeds() {
	if lc.started {
		return
	}
	lc.started = true
	ctx, cancel := context.WithCancel(context.Background())
	lc.cancel = cancel
	for _, lw := range lc.Workers {
		go func(lw *LocalWorker) {
			lc.feedErrs <- lw.RunFeed(ctx)
		}(lw)
	}
}

// WaitFeeds blocks until every worker's feed reaches EOF, returning the
// first pipeline error.
func (lc *LocalCluster) WaitFeeds() error {
	var first error
	for range lc.Workers {
		if err := <-lc.feedErrs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close tears the cluster down.
func (lc *LocalCluster) Close() {
	if lc.cancel != nil {
		lc.cancel()
	}
	if lc.RouterTS != nil {
		lc.RouterTS.Close()
	}
	if lc.Router != nil {
		lc.Router.Close()
	}
	for _, lw := range lc.Workers {
		lw.StopHTTP()
	}
}

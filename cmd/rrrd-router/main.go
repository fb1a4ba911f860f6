// Command rrrd-router is the stateless front end for a partitioned rrrd
// cluster: it routes staleness queries to the worker owning each key's
// hash-ring partition, splices worker verdicts into single responses,
// merges /v1/keys and /v1/stats, and multiplexes the workers' SSE signal
// streams into one totally-ordered stream. It owns no monitor state —
// restart it freely.
//
//	rrrd -addr :8081 -worker-id 0 -workers 3 &
//	rrrd -addr :8082 -worker-id 1 -workers 3 &
//	rrrd -addr :8083 -worker-id 2 -workers 3 &
//	rrrd-router -addr :8080 -workers http://localhost:8081,http://localhost:8082,http://localhost:8083
//
// Try it:
//
//	curl localhost:8080/v1/stats              # merged counters
//	curl localhost:8080/v1/cluster            # per-worker identity + health
//	curl -N localhost:8080/v1/signals         # one ordered stream
//	curl localhost:8080/readyz                # 503 until every partition is ready
//
// Degradation: each worker sub-request gets a bounded timeout and one
// retry within that same deadline. Each partition has a standby replica
// (the next distinct worker on the hash ring), so a single dead worker is
// transparently failed over — responses stay complete and byte-identical.
// Per-worker circuit breakers (-breaker-threshold consecutive failures
// open; half-open /readyz probes after -breaker-cooldown) stop the router
// from burning its deadline on a dead primary. Only when every replica of
// a partition is down do responses carry an explicit
// unavailablePartitions field rather than silent holes. The router sheds
// load beyond -max-inflight with 429 + Retry-After.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rrr/internal/cluster"
	"rrr/internal/server"
)

func main() {
	var opts cluster.Options
	addr := flag.String("addr", ":8080", "HTTP listen address")
	workers := flag.String("workers", "", "comma-separated worker base URLs, ordered by worker ID")
	flag.IntVar(&opts.Partitions, "partitions", cluster.DefaultPartitions, "hash-ring partition count (must match the workers)")
	flag.DurationVar(&opts.Timeout, "timeout", 2*time.Second, "per-worker sub-request timeout (one retry before a partition is reported unavailable)")
	flag.IntVar(&opts.RingSize, "ring", server.DefaultRingSize, "per-SSE-subscriber frame buffer")
	flag.DurationVar(&opts.StreamBackoff, "stream-backoff", 100*time.Millisecond, "initial worker-stream reconnect delay")
	flag.IntVar(&opts.BreakerThreshold, "breaker-threshold", cluster.DefaultBreakerThreshold, "consecutive worker failures before the circuit breaker opens")
	flag.DurationVar(&opts.BreakerCooldown, "breaker-cooldown", cluster.DefaultBreakerCooldown, "open-breaker wait before a half-open /readyz probe")
	flag.IntVar(&opts.MaxInFlight, "max-inflight", cluster.DefaultRouterMaxInFlight, "in-flight data-request bound; excess requests are shed with 429 + Retry-After")
	flag.Parse()

	if err := run(*addr, *workers, opts); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(addr, workers string, opts cluster.Options) error {
	var urls []string
	for _, u := range strings.Split(workers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		return fmt.Errorf("rrrd-router: -workers needs at least one worker URL")
	}
	opts.Workers = urls

	rt, err := cluster.NewRouter(opts)
	if err != nil {
		return err
	}
	defer rt.Close()
	for w, u := range urls {
		log.Printf("rrrd-router: worker %d at %s owns %d of %d partitions (+%d as standby, rf=%d)",
			w, u, rt.Ring().OwnedPartitions(w), rt.Ring().Partitions(),
			len(rt.Ring().StandbyPartitions(w)), rt.Ring().ReplicaFactor())
	}

	httpSrv := &http.Server{Addr: addr, Handler: rt.Handler()}
	httpDone := make(chan error, 1)
	go func() {
		log.Printf("rrrd-router: serving on %s (%d workers)", addr, len(urls))
		httpDone <- httpSrv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		log.Printf("rrrd-router: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return httpSrv.Shutdown(shutCtx)
	case err := <-httpDone:
		return err
	}
}

// Command rrrfeedd is the feed server: it exposes the simulator's BGP
// update and public traceroute streams over TCP using the feed wire
// protocol (internal/feedwire), so one or more rrrd daemons can ingest
// over the network instead of in-process.
//
//	rrrfeedd -addr :9090                  # quick-scale feed, retain everything
//	rrrfeedd -pace 100ms                  # real-time-ish pacing
//	rrrfeedd -history-windows 8           # bound retained history (resume gaps
//	                                      #   past the horizon become explicit)
//
// Point a daemon at it:
//
//	rrrd -feed-addr localhost:9090
//
// The same scale + seed always generate the same feed, so a daemon
// ingesting over the wire is differentially comparable to one running the
// simulator in-process. Records are retained in memory (optionally
// bounded by -history-windows); clients resume from any retained point
// window-aligned, and slow clients exert TCP backpressure rather than
// growing server state per connection.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rrr/internal/experiments"
	"rrr/internal/feedwire"
)

func main() {
	var (
		addr           = flag.String("addr", ":9090", "TCP listen address")
		scale          = flag.String("scale", "quick", "feed scale: quick or paper")
		days           = flag.Int("days", 0, "virtual days of feed before EOF (0 keeps the scale default)")
		seed           = flag.Int64("seed", 0, "simulation seed (0 keeps the scale default)")
		pace           = flag.Duration("pace", 0, "wall-clock delay per virtual window (0 = full speed)")
		historyWindows = flag.Int("history-windows", 0, "windows of history to retain per stream (0 = everything)")
	)
	flag.Parse()

	if err := run(*addr, *scale, *days, *seed, *pace, *historyWindows); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(addr, scale string, days int, seed int64, pace time.Duration, historyWindows int) error {
	sc, err := experiments.ScaleByName(scale, days, seed)
	if err != nil {
		return err
	}

	log.Printf("rrrfeedd: building %s-scale environment (seed %d)", scale, sc.SimCfg.Seed)
	env := experiments.NewDaemonEnv(sc, pace)

	srv, err := feedwire.NewServer(feedwire.Config{
		WindowSec:      sc.WindowSec,
		HistoryWindows: historyWindows,
	})
	if err != nil {
		return err
	}
	srv.Pump(env.Updates, env.Traces)

	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("rrrfeedd: serving update+trace streams on %s (windowSec %d, history %s)",
		lis.Addr(), sc.WindowSec, historyDesc(historyWindows))

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-stop
		log.Printf("rrrfeedd: shutting down")
		srv.Close()
	}()

	return srv.Serve(lis)
}

func historyDesc(w int) string {
	if w <= 0 {
		return "unbounded"
	}
	return fmt.Sprintf("%d windows", w)
}

// Cluster crash-torture: kill one worker of a K=3 partitioned cluster at
// seeded WAL append points mid-ingest, recover it from its own on-disk
// log, and prove the cluster lost nothing — the recovered worker's signal
// stream, stale set, and log bytes match its never-crashed twin, and the
// router-merged /v1/keys, full-corpus /v1/stale, and /v1/stats are
// byte-identical to a cluster that never lost the worker. Lives beside
// the single-node torture harness because the crash-injection hooks are
// test-only exports of package wal.
package wal_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"rrr"
	"rrr/internal/cluster"
	"rrr/internal/daemon"
	"rrr/internal/experiments"
	"rrr/internal/wal"
)

const tortureWorkers = 3

// clusterTortureScale mirrors the cluster differential tests: one
// simulated day, small enough for CI, busy enough that every worker's
// slice emits signals.
func clusterTortureScale() experiments.Scale {
	sc := experiments.QuickScale()
	sc.Days = 1
	sc.PublicPerWindow = 5
	return sc
}

// clusterWalOptions: segments stay tiny so every run crosses rotations,
// but not so tiny that a day-long simulated feed shatters into thousands
// of files. The hour-long interval keeps FsyncInterval maximally lazy —
// the crash loses everything since the last window close.
func clusterWalOptions(dir string, policy wal.FsyncPolicy) wal.Options {
	return wal.Options{
		Dir:           dir,
		SegmentBytes:  4096,
		Fsync:         policy,
		FsyncInterval: time.Hour,
	}
}

// tortureWorker assembles worker w the way `rrrd -worker-id w -wal-dir …`
// does — ring-replica corpus slice, replication-aware identity, detector
// tapped, rrrd's pipeline — and brings it through startup recovery of wl.
// Every incarnation (baseline, crashed, recovered) is built here, so each
// starts from the identical primed state rrrd's restart guarantees. sink
// collects the signals of replayed and live windows alike.
func tortureWorker(t *testing.T, sc experiments.Scale, ring *cluster.Ring, w int, wl *wal.WAL, sink func(rrr.Signal)) (*daemon.Daemon, daemon.Replayed) {
	t.Helper()
	opts := daemon.Options{WAL: wl}
	opts.Keep, opts.Server.Worker = ring.Worker(w)
	d, err := daemon.New(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if tracked, _, _ := d.Track(); tracked == 0 {
		t.Fatalf("worker %d tracks no pairs; killing it would prove nothing", w)
	}
	rep, _, err := d.Recover(sink)
	if err != nil {
		t.Fatalf("worker %d recovery: %v", w, err)
	}
	return d, rep
}

// runFeed drives the worker's pipeline to feed EOF against its own
// write-ahead log. Workers ingest the full feeds (so the log carries every
// record) while the monitor reacts only to its tracked slice.
func runFeed(d *daemon.Daemon, sink func(rrr.Signal)) error {
	return rrr.RunPipeline(context.Background(), d.Mon, d.Pipeline(sink, daemon.DefaultRetry))
}

func clusterGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

func clusterPost(t *testing.T, url, body string) string {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, data)
	}
	return string(data)
}

// mergedSurfaces serves the given workers behind a fresh router and
// captures the merged comparison surfaces: the key list, a full-corpus
// batch verdict response, and merged stats.
func mergedSurfaces(t *testing.T, ds []*daemon.Daemon) (keys, batch, stats string) {
	t.Helper()
	urls := make([]string, len(ds))
	workers := make([]*httptest.Server, len(ds))
	for i, d := range ds {
		workers[i] = httptest.NewServer(d.Srv.Handler())
		urls[i] = workers[i].URL
	}
	rt, err := cluster.NewRouter(cluster.Options{
		Workers:       urls,
		Timeout:       30 * time.Second,
		StreamBackoff: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer func() {
		// Order matters: the router's SSE clients hold long-lived
		// connections into the workers; drop them before the worker
		// servers wait out their conns.
		front.Close()
		rt.Close()
		for _, ts := range workers {
			ts.Close()
		}
	}()

	keys = clusterGet(t, front.URL+"/v1/keys")
	var kr struct {
		Keys []string `json:"keys"`
	}
	if err := json.Unmarshal([]byte(keys), &kr); err != nil {
		t.Fatalf("keys response: %v", err)
	}
	if len(kr.Keys) == 0 {
		t.Fatal("merged key list is empty; the torture comparison would be vacuous")
	}
	body, _ := json.Marshal(map[string]any{"keys": kr.Keys})
	batch = clusterPost(t, front.URL+"/v1/stale", string(body))
	stats = clusterGet(t, front.URL+"/v1/stats")
	return keys, batch, stats
}

// mustMatch fails at the first divergent line instead of dumping two full
// bodies.
func mustMatch(t *testing.T, what, want, got string) {
	t.Helper()
	if want == got {
		return
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		wl, gl := "", ""
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			t.Fatalf("%s diverges at line %d:\n intact:    %q\n recovered: %q", what, i+1, wl, gl)
		}
	}
	t.Fatalf("%s differs only in trailing newlines", what)
}

// clusterWorkerBase is one worker's uninterrupted ground truth.
type clusterWorkerBase struct {
	d    *daemon.Daemon
	sigs []rrr.Signal
	recs uint64
	log  []byte
}

func workersOf(bases []*clusterWorkerBase) []*daemon.Daemon {
	ds := make([]*daemon.Daemon, len(bases))
	for w, wb := range bases {
		ds[w] = wb.d
	}
	return ds
}

// TestClusterCrashTorture is the cluster acceptance harness: for seeded
// crash points cycling all three fsync policies, a K=3 cluster whose
// middle worker dies mid-append and recovers from its own log ends
// byte-identical — per-worker and router-merged — to a cluster that never
// lost a process.
func TestClusterCrashTorture(t *testing.T) {
	sc := clusterTortureScale()
	ring, err := cluster.NewRing(tortureWorkers, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Uninterrupted baseline: every worker runs its full feed against its
	// own log.
	bases := make([]*clusterWorkerBase, tortureWorkers)
	for w := range bases {
		dir := t.TempDir()
		wl, err := wal.Open(clusterWalOptions(dir, wal.FsyncEveryRecord))
		if err != nil {
			t.Fatal(err)
		}
		wb := &clusterWorkerBase{}
		collect := func(s rrr.Signal) { wb.sigs = append(wb.sigs, s) }
		wb.d, _ = tortureWorker(t, sc, ring, w, wl, collect)
		if err := runFeed(wb.d, collect); err != nil {
			t.Fatalf("baseline worker %d: %v", w, err)
		}
		if len(wb.sigs) == 0 {
			t.Fatalf("baseline worker %d emitted no signals; its slice is dead weight", w)
		}
		wb.recs = wl.Status().Records
		if err := wl.Close(); err != nil {
			t.Fatal(err)
		}
		wb.log = dirBytes(t, dir)
		bases[w] = wb
	}
	baseKeys, baseBatch, baseStats := mergedSurfaces(t, workersOf(bases))

	const victim = 1
	policies := []wal.FsyncPolicy{wal.FsyncEveryRecord, wal.FsyncOnWindowClose, wal.FsyncInterval}
	points := len(policies)
	if testing.Short() {
		points = 1
	}
	rng := rand.New(rand.NewSource(43))
	total := int(bases[victim].recs)
	if total < 2 {
		t.Fatalf("victim logged only %d records; no interior crash point exists", total)
	}
	for i := 0; i < points; i++ {
		policy := policies[i%len(policies)]
		crashAt := 1 + rng.Intn(total-1)
		partial := rng.Intn(48)
		t.Run(fmt.Sprintf("%s/crashAt=%d", policy, crashAt), func(t *testing.T) {
			runClusterTorturePoint(t, sc, ring, bases, victim, policy, uint64(crashAt), partial,
				baseKeys, baseBatch, baseStats)
		})
	}
}

func runClusterTorturePoint(t *testing.T, sc experiments.Scale, ring *cluster.Ring,
	bases []*clusterWorkerBase, victim int, policy wal.FsyncPolicy, crashAt uint64, partial int,
	baseKeys, baseBatch, baseStats string) {
	dir := t.TempDir()

	// Incarnation 1: the victim ingests until the armed append kills it.
	// The other workers are untouched — their baseline state stands in for
	// processes that simply kept running.
	w1, err := wal.Open(clusterWalOptions(dir, policy))
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := tortureWorker(t, sc, ring, victim, w1, nil)
	w1.SetCrashAfterAppends(crashAt, partial)
	if err := runFeed(d1, nil); !errors.Is(err, wal.ErrSimulatedCrash) {
		t.Fatalf("crash-armed worker pipeline err = %v, want the simulated crash", err)
	}
	w1.Close() // post-crash no-op, like the dead process's kernel cleanup

	// Incarnation 2: recover — deterministic re-prime, replay the log
	// through the recovery path, resume from the re-opened feeds.
	w2, err := wal.Open(clusterWalOptions(dir, policy))
	if err != nil {
		t.Fatal(err)
	}
	var sigs []rrr.Signal
	collect := func(s rrr.Signal) { sigs = append(sigs, s) }
	d2, rep := tortureWorker(t, sc, ring, victim, w2, collect)
	if rep.Replay.Records > crashAt {
		t.Fatalf("recovered %d records but only %d were ever appended", rep.Replay.Records, crashAt)
	}
	if policy == wal.FsyncEveryRecord && rep.Replay.Records != crashAt {
		t.Fatalf("per-record durability recovered %d of %d acknowledged records", rep.Replay.Records, crashAt)
	}
	if err := runFeed(d2, collect); err != nil {
		t.Fatalf("resumed worker pipeline: %v", err)
	}

	// Worker-level: the recovered victim must be indistinguishable from
	// its never-crashed twin.
	base := bases[victim]
	if !reflect.DeepEqual(sigs, base.sigs) {
		t.Fatalf("crash at %d (partial %d): victim signal stream diverges (%d signals, want %d)",
			crashAt, partial, len(sigs), len(base.sigs))
	}
	if !reflect.DeepEqual(d2.Mon.StaleKeys(), base.d.Mon.StaleKeys()) {
		t.Fatalf("crash at %d: victim stale set = %v, want %v", crashAt, d2.Mon.StaleKeys(), base.d.Mon.StaleKeys())
	}
	if st := w2.Status(); st.Records != base.recs {
		t.Fatalf("crash at %d: victim log holds %d records, want %d (dup or loss)", crashAt, st.Records, base.recs)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := dirBytes(t, dir); !reflect.DeepEqual(got, base.log) {
		t.Fatalf("crash at %d: victim on-disk log diverges from uninterrupted run (%d vs %d bytes)",
			crashAt, len(got), len(base.log))
	}

	// Cluster-level: the router merging [intact, recovered, intact] must
	// be byte-identical to the never-killed cluster.
	workers := workersOf(bases)
	workers[victim] = d2
	keys, batch, stats := mergedSurfaces(t, workers)
	mustMatch(t, "merged /v1/keys", baseKeys, keys)
	mustMatch(t, "merged /v1/stale batch", baseBatch, batch)
	mustMatch(t, "merged /v1/stats", baseStats, stats)
}

package main

import (
	"bytes"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"rrr"
	"rrr/internal/bgp"
	"rrr/internal/cluster"
	"rrr/internal/corpus"
	"rrr/internal/feedwire"
	"rrr/internal/server"
	"rrr/internal/traceroute"
	"rrr/internal/trie"
)

// Layer probes: direct calls into public functions that the daemon only
// reaches indirectly (RIB.Apply inside ObserveBGP, the trie inside the
// mapper, Corpus.Add inside Track), made with the workload's own records
// so the figures are for this input, not for a synthetic one.

// probeSample bounds how many records a probe touches; the per-call cost
// is what is reported, so more would only take longer.
const probeSample = 20000

// mallocsDuring runs fn and returns its wall time and heap allocations.
func mallocsDuring(fn func()) (time.Duration, uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return d, m1.Mallocs - m0.Mallocs
}

// probeRIB applies the table dump, untimed, and then up to `windows`
// windows of the update feed to a fresh bgp.RIB.
func probeRIB(res *result, in *input, windows int) error {
	rib := bgp.NewRIB()
	for _, u := range in.dump {
		rib.Apply(u)
	}
	var total time.Duration
	var mallocs uint64
	var buf []bgp.Update
	n := 0
	for w := 0; w < windows && n < 50*probeSample; w++ {
		ups, err := in.windowUpdates(w, buf)
		if err != nil {
			return err
		}
		if in.slab != nil {
			buf = ups
		}
		d, m := mallocsDuring(func() {
			for _, u := range ups {
				rib.Apply(u)
			}
		})
		total += d
		mallocs += m
		n += len(ups)
	}
	if n > 0 {
		res.set("bgp.rib_apply_ns_per_update", float64(total)/float64(n), "ns")
		res.set("bgp.rib_apply_allocs_per_update", float64(mallocs)/float64(n), "count")
	}
	return nil
}

// probeTraces times the traceroute JSON decoder and the trie's
// longest-prefix match on the input's public traces.
func probeTraces(res *result, in *input) error {
	traces := in.traces
	if len(traces) > probeSample {
		traces = traces[:probeSample]
	}
	if len(traces) == 0 {
		return nil
	}
	var enc bytes.Buffer
	jw := traceroute.NewJSONWriter(&enc)
	for _, t := range traces {
		if err := jw.Write(t); err != nil {
			return err
		}
	}
	if err := jw.Flush(); err != nil {
		return err
	}
	jr := traceroute.NewJSONReader(&enc)
	t0 := time.Now()
	decoded := 0
	for {
		_, err := jr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		decoded++
	}
	res.set("traceroute.json_decode_ns_per_trace", float64(time.Since(t0))/float64(decoded), "ns")

	var tr trie.Trie[bgp.ASN]
	for _, u := range in.dump {
		if u.Type == bgp.Announce {
			tr.Insert(u.Prefix, u.ASPath.Origin())
		}
	}
	lookups, hits := 0, 0
	t0 = time.Now()
	for _, t := range traces {
		for _, h := range t.Hops {
			if _, ok := tr.Lookup(h.IP); ok {
				hits++
			}
			lookups++
		}
	}
	if lookups > 0 {
		res.set("trie.lpm_ns_per_lookup", float64(time.Since(t0))/float64(lookups), "ns")
	}
	res.detail("probe_lpm_hit_ratio", float64(hits)/float64(max(lookups, 1)), "ratio")
	return nil
}

// probeCorpus times Corpus.Add over the daemon's initial corpus traces.
func probeCorpus(res *result, d *daemon) {
	c := corpus.New(d.env.Mapper, d.env.Aliases)
	traces := d.env.Corpus
	if len(traces) > probeSample {
		traces = traces[:probeSample]
	}
	t0 := time.Now()
	for _, t := range traces {
		_, _ = c.Add(t) // AS-loop traces are rejected, as in Track
	}
	if len(traces) > 0 {
		res.set("corpus.add_ns_per_trace", float64(time.Since(t0))/float64(len(traces)), "ns")
	}
}

// probeMonitor times the Monitor's bulk read and snapshot paths on the
// state the traced pass left behind: PairStates over every tracked key,
// Snapshot, the on-disk snapshot size, and Restore into a fresh Monitor
// over the same services.
func probeMonitor(cfg runConfig, res *result, d *daemon) error {
	const rounds = 5
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		d.mon.PairStates(d.keys)
	}
	res.set("rrr.pairstates_ns_per_key", float64(time.Since(t0))/float64(rounds*len(d.keys)), "ns")

	t0 = time.Now()
	snap := d.mon.Snapshot()
	res.set("rrr.snapshot_ms", float64(time.Since(t0))/1e6, "ms")
	info, err := server.WriteSnapshot(filepath.Join(cfg.OutDir, "probe.snap"), d.mon)
	if err != nil {
		return err
	}
	res.set("rrr.snapshot_bytes_per_pair", float64(info.Bytes)/float64(len(d.keys)), "B")

	c := rrr.DefaultConfig()
	c.WindowSec = snap.WindowSec
	fresh, err := rrr.NewMonitor(rrr.Options{Config: c, Mapper: d.env.Mapper, Aliases: d.env.Aliases,
		Geo: d.env.Geo, Rel: d.env.Rel, IXPMembers: d.env.IXPMembers})
	if err != nil {
		return err
	}
	t0 = time.Now()
	if err := fresh.Restore(snap); err != nil {
		return err
	}
	res.set("rrr.restore_ms", float64(time.Since(t0))/1e6, "ms")
	return nil
}

// probeRing times the consistent-hash lookup the router does per key.
func probeRing(res *result, keys []rrr.Key) error {
	ring, err := cluster.NewRing(2, cluster.DefaultPartitions)
	if err != nil {
		return err
	}
	const rounds = 20
	sink := 0
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		for _, k := range keys {
			sink += ring.Owner(k)
		}
	}
	res.set("cluster.ring_lookup_ns_per_key", float64(time.Since(t0))/float64(rounds*len(keys)), "ns")
	runtime.KeepAlive(sink)
	return nil
}

// frameStage frames a window's records the way the feed server does and
// reads them back the way the connector does, as two stages of the traced
// loop. The decoded records are only counted: the loop ingests the
// originals, which the codec round-trips exactly (internal/feedwire's own
// tests hold it to that).
type frameStage struct {
	hooks *stageHooks
	buf   bytes.Buffer
	bytes int
	err   error
}

func (f *frameStage) prepare(ups []bgp.Update, trs []*traceroute.Traceroute) {
	n := len(ups) + len(trs)
	if n == 0 {
		return
	}
	f.buf.Reset()
	fw := feedwire.NewFrameWriter(&f.buf)
	f.hooks.runStage("feedwire.encode", n, func() {
		for _, u := range ups {
			if err := fw.WriteUpdate(u); err != nil && f.err == nil {
				f.err = err
			}
		}
		for _, t := range trs {
			if err := fw.WriteTrace(t); err != nil && f.err == nil {
				f.err = err
			}
		}
	})
	f.bytes += f.buf.Len()
	fr := feedwire.NewFrameReader(&f.buf)
	f.hooks.runStage("feedwire.decode", n, func() {
		for i := 0; i < n; i++ {
			if _, err := fr.Read(); err != nil && f.err == nil {
				f.err = err
			}
		}
	})
}

// probeDrain reads both streams of the rig's feed server to EOF through a
// Connector with no engine behind it: the wire's own ceiling.
func probeDrain(res *result, rig *wireRig) error {
	conn := feedwire.NewConnector(feedwire.ConnectorConfig{Addr: rig.addr, Policy: feedwire.PolicyBlock})
	defer conn.Close()
	us, err := conn.OpenUpdates(feedwire.ResumeAll)
	if err != nil {
		return err
	}
	ts, err := conn.OpenTraces(feedwire.ResumeAll)
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	var nu, nt int
	var eu, et error
	t0 := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			if _, eu = us.Read(); eu != nil {
				return
			}
			nu++
		}
	}()
	go func() {
		defer wg.Done()
		for {
			if _, et = ts.Read(); et != nil {
				return
			}
			nt++
		}
	}()
	wg.Wait()
	wall := time.Since(t0)
	if eu != io.EOF {
		return eu
	}
	if et != io.EOF {
		return et
	}
	res.set("feedwire.drain_records_per_s", float64(nu+nt)/wall.Seconds(), "1/s")
	return nil
}

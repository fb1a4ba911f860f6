package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"

	"rrr"
	"rrr/internal/bgp"
	"rrr/internal/experiments"
	"rrr/internal/server"
	"rrr/internal/traceroute"
	"rrr/internal/trie"
)

// sizes fixes every input dimension of a run. Only two exist: mid is what
// BENCHMARK.json measures; tiny keeps the package's own tests under a few
// seconds. Sizes never depend on the seed or on the machine.
type sizes struct {
	Name            string
	Probes          int
	Anchors         int
	PublicPerWindow int
	// Windows is the length of the full recording, in 15-minute windows.
	Windows int
	// PrimeWindows is how many windows a serve workload ingests, untimed,
	// before its load starts.
	PrimeWindows int
	// StormPerWindow synthetic updates are added to every storm window.
	StormPerWindow int
	// StormThin keeps every StormThin-th corpus pair and public trace on
	// the storm workloads: a small watch-list on a firehose.
	StormThin int
	// WireWindows / WirePerWindow size wire-durable's storm: the same
	// generator as replay-updates, thinner per window, because a record
	// costs about four times as much over the wire and through the WAL,
	// while the percentile floor still wants more than 200 windows.
	WireWindows   int
	WirePerWindow int
	// StepWindows is how many windows serve-ingest takes after priming,
	// one cycle each; StepRequests is how many batches it asks after each
	// close. Forty-eight batches of 64 uniformly drawn keys touch about a
	// quarter of the corpus, 85 % of them for the first time since the
	// close: the cycle is half ingest-and-close, half verdicts rendered on
	// a miss.
	StepWindows  int
	StepRequests int
	// WarmupRequests are issued, untimed, before every closed loop
	// (RoutedWarmup through the router, where a request costs ~5x).
	WarmupRequests int
	RoutedWarmup   int
	BatchKeys      int
	// Bodies is the number of distinct pre-rendered request bodies; the
	// closed loop cycles through them.
	Bodies int
	// RefWindows is the prefix an untraced ingest run re-drives through
	// the serial direct-call reference to check its signal stream.
	RefWindows int
	// TraceWindows / TraceRequests bound the traced passes of the ingest
	// and idle-feed workloads; serve-ingest's trace drives
	// TraceSerialWindows with spans and then steps TraceStepWindows.
	TraceWindows       int
	TraceRequests      int
	TraceSerialWindows int
	TraceStepWindows   int
	// MinTail is the percentile helper's floor on samples beyond a
	// reported percentile.
	MinTail int
}

func midSizes() sizes {
	return sizes{
		Name: "mid", Probes: 250, Anchors: 60, PublicPerWindow: 600,
		Windows: 256, PrimeWindows: 48,
		StormPerWindow: 10000, StormThin: 128, WireWindows: 208, WirePerWindow: 3000,
		StepWindows: 144, StepRequests: 48, WarmupRequests: 5000, RoutedWarmup: 2000,
		BatchKeys: 64, Bodies: 4096,
		RefWindows: 48, TraceWindows: 104, TraceRequests: 4000,
		TraceSerialWindows: 24, TraceStepWindows: 112,
		MinTail: 10,
	}
}

// scale is the simulator configuration behind every recording and every
// daemon: PaperScale (QuickScale at the tiny size) with the platform
// resized. The simulated Internet is the same on every run. The run's
// seed is deliberately kept out of it: with SimCfg.Seed = seed the
// topology, the event schedule and the corpus all change, and
// replay-pairs' throughput moved by ±18 % from seed to seed on one box —
// more than any regression bound could absorb. The seed instead drives
// what the benchmark itself samples (see record, amplify, buildRequests),
// where the law of large numbers keeps the amount of work steady.
func (z sizes) scale() experiments.Scale {
	sc := experiments.PaperScale()
	if z.Name == "tiny" {
		sc = experiments.QuickScale()
	}
	sc.PlatCfg.NumProbes = z.Probes
	sc.PlatCfg.NumAnchors = z.Anchors
	sc.PublicPerWindow = z.PublicPerWindow
	// Days only bounds the feed; recordings cut at a window count.
	sc.Days = z.Windows*int(sc.WindowSec)/86400 + 1
	return sc
}

// input is one pre-generated feed: a trace feed as a slice and an update
// feed either as a slice (mid) or as a bgp binary-codec slab (storm),
// both indexed by window so a phase can replay any window range.
type input struct {
	sc        experiments.Scale
	windows   int
	windowSec int64
	// thin keeps every thin-th corpus pair, starting at thinOff, on
	// daemons built for this input (1 keeps all).
	thin    int
	thinOff int

	dump   []bgp.Update
	traces []*traceroute.Traceroute
	tWin   []int // tWin[w] = index of window w's first trace; len windows+1

	updates []bgp.Update
	uWin    []int

	slab      []byte
	slabWin   []int // byte offset of window w's first update; len windows+1
	slabCount []int // updates in window w
	classes   [3]int
}

func (in *input) windowOf(t int64) int { return int(t / in.windowSec) }

// updatesIn / tracesIn count records in windows [from, to).
func (in *input) updatesIn(from, to int) int {
	if in.slab != nil {
		n := 0
		for w := from; w < to; w++ {
			n += in.slabCount[w]
		}
		return n
	}
	return in.uWin[to] - in.uWin[from]
}

func (in *input) tracesIn(from, to int) int { return in.tWin[to] - in.tWin[from] }

func (in *input) recordsIn(from, to int) int {
	return in.updatesIn(from, to) + in.tracesIn(from, to)
}

// updateSource replays windows [from, to) of the update feed: a slice
// source for mid, the binary decoder over the slab for storm — so on
// storm workloads decoding is part of what is measured.
func (in *input) updateSource(from, to int) bgp.UpdateSource {
	if in.slab != nil {
		return bgp.NewBinaryReader(bytes.NewReader(in.slab[in.slabWin[from]:in.slabWin[to]]))
	}
	return bgp.NewSliceSource(in.updates[in.uWin[from]:in.uWin[to]])
}

func (in *input) traceSource(from, to int) rrr.TraceSource {
	return rrr.NewTraceSliceSource(in.traces[in.tWin[from]:in.tWin[to]])
}

// windowUpdates returns window w's updates, decoding them from the slab
// into buf on storm inputs.
func (in *input) windowUpdates(w int, buf []bgp.Update) ([]bgp.Update, error) {
	if in.slab == nil {
		return in.updates[in.uWin[w]:in.uWin[w+1]], nil
	}
	buf = buf[:0]
	br := bgp.NewBinaryReader(bytes.NewReader(in.slab[in.slabWin[w]:in.slabWin[w+1]]))
	for {
		u, err := br.Read()
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, fmt.Errorf("storm slab window %d: %w", w, err)
		}
		buf = append(buf, u)
	}
}

func (in *input) windowTraces(w int) []*traceroute.Traceroute {
	return in.traces[in.tWin[w]:in.tWin[w+1]]
}

func updateEqual(a, b bgp.Update) bool {
	return a.Time == b.Time && a.PeerIP == b.PeerIP && a.PeerAS == b.PeerAS &&
		a.Type == b.Type && a.Prefix == b.Prefix && a.MED == b.MED &&
		a.ASPath.Equal(b.ASPath) && a.Communities.Equal(b.Communities)
}

func traceEqual(a, b *traceroute.Traceroute) bool {
	if a.MsmID != b.MsmID || a.ProbeID != b.ProbeID || a.Time != b.Time ||
		a.Src != b.Src || a.Dst != b.Dst || a.Reached != b.Reached || len(a.Hops) != len(b.Hops) {
		return false
	}
	for i := range a.Hops {
		if a.Hops[i] != b.Hops[i] {
			return false
		}
	}
	return true
}

// record drains `windows` windows of a fresh simulated daemon feed into
// slices. This is the only place the simulator steps; every timed phase
// replays the result. Adjacent identical updates are dropped here because
// the daemon's pipeline (DedupAdjacent, as cmd/rrrd sets it) would drop
// them anyway, and the direct-call reference must see the same stream.
// The seed orders the public traces that share a timestamp (the platform
// issues a window's traces at one instant), so each seed is a different
// feed of the same measurements.
func record(sc experiments.Scale, windows int, seed int64) (*input, error) {
	env := experiments.NewDaemonEnv(sc, 0)
	in := &input{sc: sc, windows: windows, windowSec: sc.WindowSec, thin: 1, dump: env.Dump}
	end := int64(windows) * sc.WindowSec

	in.uWin = make([]int, 1, windows+1)
	for {
		u, err := env.Updates.Read()
		if err == io.EOF || (err == nil && u.Time >= end) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("recording updates: %w", err)
		}
		if n := len(in.updates); n > 0 && updateEqual(in.updates[n-1], u) {
			continue
		}
		for len(in.uWin) <= in.windowOf(u.Time) {
			in.uWin = append(in.uWin, len(in.updates))
		}
		in.updates = append(in.updates, u)
	}
	for len(in.uWin) <= windows {
		in.uWin = append(in.uWin, len(in.updates))
	}

	var traces []*traceroute.Traceroute
	for {
		t, err := env.Traces.Read()
		if err == io.EOF || (err == nil && t.Time >= end) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("recording traces: %w", err)
		}
		traces = append(traces, t)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < len(traces); {
		j := i
		for j < len(traces) && traces[j].Time == traces[i].Time {
			j++
		}
		same := traces[i:j]
		rng.Shuffle(len(same), func(a, b int) { same[a], same[b] = same[b], same[a] })
		i = j
	}
	// A probe can be drawn twice for one destination in one window; the
	// shuffle may put the two identical traces side by side, where the
	// pipeline's adjacent dedup would take one for a transport repeat.
	in.tWin = make([]int, 1, windows+1)
	for _, t := range traces {
		if n := len(in.traces); n > 0 && traceEqual(in.traces[n-1], t) {
			continue
		}
		for len(in.tWin) <= in.windowOf(t.Time) {
			in.tWin = append(in.tWin, len(in.traces))
		}
		in.traces = append(in.traces, t)
	}
	for len(in.tWin) <= windows {
		in.tWin = append(in.tWin, len(in.traces))
	}
	return in, nil
}

// Storm update classes, in the order of input.classes.
const (
	stormDup = iota
	stormCommunity
	stormFlap
)

// stormRoute is one (vantage point, prefix) entry of the generator's
// shadow RIB.
type stormRoute struct {
	stormKey
	path  bgp.Path
	comms bgp.Communities
	med   uint32
	live  bool
	// base is the path before a generator prepend, nil when not flapped.
	base bgp.Path
}

type stormKey struct {
	peerIP uint32
	peerAS bgp.ASN
	prefix trie.Prefix
}

// stormTag is the low half of the community the generator toggles; the
// high half is the route's peer AS. Any value but the RFC 7999 blackhole
// (65535:666) the event detector keys on would do.
const stormTag = 0xbe00

// amplify turns a recording into the storm input. The seed picks which
// thin-th of the traces and corpus pairs are kept; every window keeps the
// simulator's updates and gains perWindow synthetic ones drawn, by the
// seed, from the live RIB (dump plus simulator updates so far): exact
// re-announcements, community add/remove toggles and prepend-then-revert
// path flaps at roughly 60/25/15, spread evenly over the window, merged
// in time order and encoded once with bgp.BinaryWriter. Driving the
// simulator itself to this update rate costs ~40 s of set-up per 120k
// updates, which is why the storm is amplified rather than simulated.
func amplify(rec *input, seed int64, perWindow, thin int) (*input, error) {
	rng := rand.New(rand.NewSource(seed))
	var routes []stormRoute
	index := make(map[stormKey]int)
	apply := func(u bgp.Update) {
		k := stormKey{u.PeerIP, u.PeerAS, u.Prefix}
		i, ok := index[k]
		if u.Type == bgp.Withdraw {
			if ok {
				routes[i].live = false
			}
			return
		}
		r := stormRoute{stormKey: k, path: u.ASPath, comms: u.Communities, med: u.MED, live: true}
		if ok {
			routes[i] = r
			return
		}
		index[k] = len(routes)
		routes = append(routes, r)
	}
	for _, u := range rec.dump {
		apply(u)
	}
	if len(routes) == 0 {
		return nil, fmt.Errorf("storm: empty table dump")
	}

	out := &input{sc: rec.sc, windows: rec.windows, windowSec: rec.windowSec, dump: rec.dump,
		thin: thin, thinOff: int((seed%int64(thin) + int64(thin)) % int64(thin))}
	for i := out.thinOff; i < len(rec.traces); i += thin {
		t := rec.traces[i]
		for len(out.tWin) <= out.windowOf(t.Time) {
			out.tWin = append(out.tWin, len(out.traces))
		}
		out.traces = append(out.traces, t)
	}
	for len(out.tWin) <= rec.windows {
		out.tWin = append(out.tWin, len(out.traces))
	}

	var slab bytes.Buffer
	slab.Grow(rec.windows * perWindow * 72)
	bw := bgp.NewBinaryWriter(&slab)
	var pending []int // routes awaiting their flap revert, oldest first
	var last bgp.Update
	haveLast := false
	emit := func(u bgp.Update, w int) error {
		if haveLast && updateEqual(last, u) {
			return nil
		}
		last, haveLast = u, true
		out.slabCount[w]++
		return bw.Write(u)
	}
	synth := func(t int64, w int) error {
		var i int
		for {
			if i = rng.Intn(len(routes)); routes[i].live {
				break
			}
		}
		r := &routes[i]
		class := stormDup
		switch p := rng.Intn(100); {
		case p >= 85:
			class = stormFlap
		case p >= 60:
			class = stormCommunity
		}
		switch class {
		case stormCommunity:
			tag := bgp.MakeCommunity(r.peerAS&0xffff, stormTag)
			next := make(bgp.Communities, 0, len(r.comms)+1)
			had := false
			for _, c := range r.comms {
				if c == tag {
					had = true
					continue
				}
				next = append(next, c)
			}
			if !had {
				next = bgp.NormalizeCommunities(append(next, tag))
			}
			r.comms = next
		case stormFlap:
			// Alternate prepend and revert: a revert is taken whenever a
			// flapped route is waiting, so each prepend is followed by its
			// own revert one flap slot later.
			if len(pending) > 0 {
				i = pending[0]
				pending = pending[1:]
				r = &routes[i]
				if r.base != nil && r.live {
					r.path, r.base = r.base, nil
				}
			} else if len(r.path) > 0 && r.base == nil {
				r.base = r.path
				r.path = append(bgp.Path{r.path[0]}, r.path...)
				pending = append(pending, i)
			}
		}
		out.classes[class]++
		return emit(bgp.Update{Time: t, PeerIP: r.peerIP, PeerAS: r.peerAS, Type: bgp.Announce,
			Prefix: r.prefix, ASPath: r.path, Communities: r.comms, MED: r.med}, w)
	}

	out.slabWin = make([]int, 0, rec.windows+1)
	out.slabCount = make([]int, rec.windows)
	for w := 0; w < rec.windows; w++ {
		if err := bw.Flush(); err != nil {
			return nil, err
		}
		out.slabWin = append(out.slabWin, slab.Len())
		ws := int64(w) * rec.windowSec
		real := rec.updates[rec.uWin[w]:rec.uWin[w+1]]
		for i := 0; i < perWindow; i++ {
			t := ws + int64(i)*rec.windowSec/int64(perWindow)
			for len(real) > 0 && real[0].Time <= t {
				apply(real[0])
				if err := emit(real[0], w); err != nil {
					return nil, err
				}
				real = real[1:]
			}
			if err := synth(t, w); err != nil {
				return nil, err
			}
		}
		for _, u := range real {
			apply(u)
			if err := emit(u, w); err != nil {
				return nil, err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	out.slabWin = append(out.slabWin, slab.Len())
	out.slab = slab.Bytes()
	return out, nil
}

// digest is the SHA-256 of the input's update and trace feeds, for the
// seed-determinism tests and the run header.
func (in *input) digest() string {
	h := sha256.New()
	if in.slab != nil {
		h.Write(in.slab)
	} else {
		bw := bgp.NewBinaryWriter(h)
		for _, u := range in.updates {
			bw.Write(u)
		}
		bw.Flush()
	}
	var b []byte
	for _, t := range in.traces {
		b = binary.BigEndian.AppendUint64(b[:0], uint64(t.Time))
		b = binary.BigEndian.AppendUint32(b, t.Src)
		b = binary.BigEndian.AppendUint32(b, t.Dst)
		for _, hop := range t.Hops {
			b = binary.BigEndian.AppendUint32(b, hop.IP)
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// requestSet is the client's pre-rendered POST /v1/stale bodies.
type requestSet struct {
	bodies [][]byte
}

// buildRequests renders the client's z.Bodies batches, each z.BatchKeys
// keys drawn uniformly from the tracked pairs with 2 % replaced by keys
// the daemon does not track.
func buildRequests(seed int64, keys []rrr.Key, z sizes) requestSet {
	formatted := make([]string, len(keys))
	for i, k := range keys {
		formatted[i] = server.FormatKey(k)
	}
	rng := rand.New(rand.NewSource(seed*31 + 1))
	set := requestSet{bodies: make([][]byte, z.Bodies)}
	for i := range set.bodies {
		var b bytes.Buffer
		b.WriteString(`{"keys":[`)
		for j := 0; j < z.BatchKeys; j++ {
			if j > 0 {
				b.WriteByte(',')
			}
			k := rng.Intn(len(keys))
			if rng.Intn(100) < 2 {
				// 240.0.0.0/4 is never allocated by the simulator.
				b.WriteString(`"` + server.FormatKey(rrr.Key{Src: keys[k].Src, Dst: 0xf0000000 | uint32(k)}) + `"`)
			} else {
				b.WriteString(`"` + formatted[k] + `"`)
			}
		}
		b.WriteString("]}")
		set.bodies[i] = b.Bytes()
	}
	return set
}

func requestsDigest(set requestSet) string {
	h := sha256.New()
	for _, b := range set.bodies {
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

package events

import (
	"slices"
	"sort"
	"sync/atomic"

	"rrr/internal/bgp"
	"rrr/internal/traceroute"
	"rrr/internal/trie"
)

// Config is NewDetector's argument; none of its fields has an effect.
type Config struct {
	// WindowSec is ignored: the detector closes whichever windows the
	// pipeline closes, and diurnal slots are window starts, so any window
	// length dividing a day works.
	//
	// Deprecated: kept only so existing callers compile; it has no effect.
	WindowSec int64
}

// Diurnal classification: a prefix is diurnal once it has churned in the
// same daily slot on diurnalDays consecutive days, with at most
// diurnalSparseMax *other* active windows in the trailing day — periodicity
// means the churn is concentrated in the repeating slot, not constant.
const (
	diurnalDays      = 3
	diurnalSparseMax = 3
	day              = 86400
)

// BlackholeCommunity is RFC 7999's well-known BLACKHOLE community.
var BlackholeCommunity = bgp.MakeCommunity(65535, 666)

// Detector consumes the ingested record stream (via the Pipeline's record
// tap) and classifies routing events against a baseline learned from the
// priming table dump. The goroutine that ingests (the pipeline's merge
// loop, or a WAL replay before it starts) owns it and makes every other
// call; Events and Filtered, from any goroutine, read the published log.
type Detector struct {
	sink func(Event)

	// The ASes the priming dump showed providing transit (mid-path).
	transit map[bgp.ASN]bool
	// One record per prefix seen, primed or streamed; touched lists the
	// ones the open window has updates for, which are all a close reads.
	prefixes map[trie.Prefix]*prefixState
	touched  []*prefixState

	// One record per pair traced in the open window. Its distinct hop
	// sequences chain through winSigs, whose entries span winSigHops. The
	// map, the slab and the entries are reused from window to window.
	winTraces  map[traceroute.Key]traceWin
	winSigs    []sigSpan
	winSigHops []uint32

	// emitted is every event so far; each close that appends to it
	// publishes it in log. A reader reads up to the published length, and
	// later appends write past it or into a new array.
	emitted []Event
	log     atomic.Pointer[[]Event]
}

// prefixState is all the detector knows of one prefix. Its route and
// window slices hold about one entry per session (a few dozen) and are
// reused across windows, so a linear scan beats a map.
type prefixState struct {
	prefix trie.Prefix
	// baseline holds the origins the priming dump showed (several for
	// anycast, hence benign MOAS); empty for a prefix first seen streamed.
	baseline []bgp.ASN
	// routes holds each session's current route, in no particular order.
	routes []route

	// The open window: how many updates it has seen, each session that
	// announced a non-baseline origin (once per origin), and the sessions
	// that announced the blackhole community with the origin of the first.
	churn           int
	newOrigins      []sessionOrigin
	blackholes      []bgp.VPKey
	blackholeOrigin bgp.ASN

	// slots holds the window starts, ascending, whose close found the
	// prefix churning, pruned to the diurnal horizon at each such close.
	slots []int64
}

// route is one session's current route to a prefix. A vantage point is a
// BGP session, (peer IP, peer AS), as in bgp.RIB: two sessions on one IP
// hold two routes.
type route struct {
	vp     bgp.VPKey
	origin bgp.ASN
	leaker bgp.ASN // non-transit AS observed mid-path; 0 when clean
}

type sessionOrigin struct {
	vp     bgp.VPKey
	origin bgp.ASN
}

// traceWin is one pair's record of the open window: its distinct hop
// sequences (the newest's index in Detector.winSigs, and how many), and
// the first loop and the first cycle its traces showed.
type traceWin struct {
	head, count int32
	loop, cycle hopRepeat
}

// hopRepeat is a responsive hop repeating an earlier one of its trace: its
// index and address. Index 0 means none, as a repeat is never the first hop.
type hopRepeat struct {
	at int32
	ip uint32
}

// sigSpan is one hop sequence, winSigHops[off:off+n], chained to the
// previous distinct sequence of the same pair (-1 ends the chain).
type sigSpan struct {
	off, n int32
	prev   int32
}

// NewDetector builds a detector with an empty baseline; feed the priming
// table dump through Prime before streaming.
func NewDetector(Config) *Detector {
	return &Detector{
		transit:   make(map[bgp.ASN]bool),
		prefixes:  make(map[trie.Prefix]*prefixState),
		winTraces: make(map[traceroute.Key]traceWin),
	}
}

// SetSink sets the callback that receives every emitted event in canonical
// order at window close, on the tapping goroutine. Set it once the sink (an
// SSE hub, say) exists, which may be after the detector is built, but
// before the first tap: it is an unguarded field of the owner's.
func (d *Detector) SetSink(fn func(Event)) { d.sink = fn }

// state returns p's record, creating it on first sight.
func (d *Detector) state(p trie.Prefix) *prefixState {
	st := d.prefixes[p]
	if st == nil {
		st = &prefixState{prefix: p}
		d.prefixes[p] = st
	}
	return st
}

// Prime learns the baseline from one table-dump update: legitimate origin
// sets per prefix and the transit AS population. Priming also seeds the
// live routing view so MOAS classification starts from the full table.
func (d *Detector) Prime(u bgp.Update) {
	if u.Type != bgp.Announce || len(u.ASPath) == 0 {
		return
	}
	origin := u.ASPath.Origin()
	st := d.state(u.Prefix)
	if !slices.Contains(st.baseline, origin) {
		st.baseline = append(st.baseline, origin)
	}
	for _, as := range interior(u.ASPath) {
		d.transit[as] = true
	}
	st.setRoute(route{vp: vpOf(u), origin: origin})
	metEventsPrimed.Inc()
}

// setRoute installs r as its session's route.
func (st *prefixState) setRoute(r route) {
	for i := range st.routes {
		if st.routes[i].vp == r.vp {
			st.routes[i] = r
			return
		}
	}
	st.routes = append(st.routes, r)
}

// dropRoute removes vp's route, if it has one.
func (st *prefixState) dropRoute(vp bgp.VPKey) {
	for i := range st.routes {
		if st.routes[i].vp == vp {
			last := len(st.routes) - 1
			st.routes[i] = st.routes[last]
			st.routes = st.routes[:last]
			return
		}
	}
}

// vpOf is the vantage point (BGP session) that sent u.
func vpOf(u bgp.Update) bgp.VPKey { return bgp.VPKey{PeerIP: u.PeerIP, PeerAS: u.PeerAS} }

// interior returns the hops of p in the interior positions of its
// compacted form — every hop but the leading and the trailing run of
// prepends — as a subslice of p, where Compact would allocate. A repeat
// of an interior hop is harmless to its callers, which ask whether some
// interior hop is (or mark every one as) transit.
func interior(p bgp.Path) bgp.Path {
	if len(p) == 0 {
		return nil
	}
	lo, hi := 1, len(p)-1
	for lo < len(p) && p[lo] == p[0] {
		lo++
	}
	for hi > lo && p[hi-1] == p[len(p)-1] {
		hi--
	}
	if lo >= hi {
		return nil
	}
	return p[lo:hi]
}

// TapUpdate ingests one streamed BGP update (rrr.RecordTap). On a route
// the detector already holds, announced again in a window that has seen
// its prefix, it allocates nothing.
func (d *Detector) TapUpdate(u bgp.Update) {
	metEventsUpdates.Inc()
	st := d.state(u.Prefix)
	if st.churn == 0 {
		d.touched = append(d.touched, st)
	}
	st.churn++
	vp := vpOf(u)
	if u.Type == bgp.Withdraw {
		st.dropRoute(vp)
		return
	}
	if len(u.ASPath) == 0 {
		return
	}
	origin := u.ASPath.Origin()
	var leaker bgp.ASN
	for _, as := range interior(u.ASPath) {
		if !d.transit[as] {
			leaker = as
			break
		}
	}
	st.setRoute(route{vp: vp, origin: origin, leaker: leaker})
	if !slices.Contains(st.baseline, origin) {
		if so := (sessionOrigin{vp: vp, origin: origin}); !slices.Contains(st.newOrigins, so) {
			st.newOrigins = append(st.newOrigins, so)
		}
	}
	if slices.Contains(u.Communities, BlackholeCommunity) {
		if len(st.blackholes) == 0 {
			st.blackholeOrigin = origin
		}
		if !slices.Contains(st.blackholes, vp) {
			st.blackholes = append(st.blackholes, vp)
		}
	}
}

// TapTrace ingests one streamed public traceroute (rrr.RecordTap),
// scanning for per-flow load-balancing artifacts.
func (d *Detector) TapTrace(tr *traceroute.Traceroute) {
	if tr == nil {
		return
	}
	metEventsTraces.Inc()
	key := tr.Key()
	w, seen := d.winTraces[key]
	if !seen {
		w.head = -1
	}
	// The first responsive hop that repeats an earlier one: a trace is tens
	// of hops, so looking back over them beats building a set.
	for i, h := range tr.Hops {
		if !h.Responsive() {
			continue
		}
		for j := i - 1; j >= 0; j-- {
			if tr.Hops[j].IP != h.IP {
				continue
			}
			r := &w.cycle
			if j == i-1 {
				r = &w.loop
			}
			if r.at == 0 { // the window's first loop (cycle) of the pair wins
				*r = hopRepeat{at: int32(i), ip: h.IP}
				d.winTraces[key] = w
			}
			return // a looping trace's hop signature is not a diamond variant
		}
	}
	// Record the hop sequence unless the pair already showed it this window.
	for at := w.head; at >= 0; at = d.winSigs[at].prev {
		if sp := d.winSigs[at]; sameHops(d.winSigHops[sp.off:sp.off+sp.n], tr.Hops) {
			return
		}
	}
	off := int32(len(d.winSigHops))
	for _, h := range tr.Hops {
		d.winSigHops = append(d.winSigHops, h.IP)
	}
	d.winSigs = append(d.winSigs, sigSpan{off: off, n: int32(len(tr.Hops)), prev: w.head})
	w.head, w.count = int32(len(d.winSigs)-1), w.count+1
	d.winTraces[key] = w
}

func sameHops(ips []uint32, hops []traceroute.Hop) bool {
	if len(ips) != len(hops) {
		return false
	}
	for i, ip := range ips {
		if hops[i].IP != ip {
			return false
		}
	}
	return true
}

// TapWindowClose classifies the closing window and emits its events in
// canonical EventLess order (rrr.RecordTap). The pipeline invokes it after
// the window's staleness signals have been published and before the
// window-close marker, so on an SSE stream each window reads:
// signals, routing events, marker.
func (d *Detector) TapWindowClose(ws int64) {
	var evs []Event
	for _, st := range d.touched {
		d.classifyHijacks(ws, st, &evs)
		classifyLeaks(ws, st, &evs)
		if len(st.blackholes) > 0 {
			evs = append(evs, Event{
				Class: Blackhole, WindowStart: ws,
				Prefix: st.prefix, AS: st.blackholeOrigin,
				Detail:  "RFC7999 65535:666",
				Score:   float64(len(st.blackholes)),
				VPCount: len(st.blackholes),
			})
		}
		classifyDiurnal(ws, st, &evs)
		st.churn = 0
		st.newOrigins = st.newOrigins[:0]
		st.blackholes = st.blackholes[:0]
	}
	d.touched = d.touched[:0]
	d.classifyArtifacts(ws, &evs)
	sort.Slice(evs, func(i, j int) bool { return EventLess(evs[i], evs[j]) })
	clear(d.winTraces)
	d.winSigs = d.winSigs[:0]
	d.winSigHops = d.winSigHops[:0]
	if len(evs) > 0 {
		d.emitted = append(d.emitted, evs...)
		log := d.emitted
		d.log.Store(&log)
	}
	metEventsWindows.Inc()
	for _, ev := range evs {
		metEventsEmitted(ev.Class).Inc()
		if d.sink != nil {
			d.sink(ev)
		}
	}
}

// coveringBaseline finds the longest baseline prefix strictly covering p,
// for sub-prefix hijack classification; nil when there is none.
func (d *Detector) coveringBaseline(p trie.Prefix) *prefixState {
	for l := int(p.Len) - 1; l >= 1; l-- {
		if st := d.prefixes[trie.MakePrefix(p.Addr, uint8(l))]; st != nil && len(st.baseline) > 0 {
			return st
		}
	}
	return nil
}

// classifyHijacks emits one event per non-baseline origin announced in
// the window, counting the sessions that announced it.
func (d *Detector) classifyHijacks(ws int64, st *prefixState, evs *[]Event) {
	for i, o := range st.newOrigins {
		if slices.ContainsFunc(st.newOrigins[:i], func(q sessionOrigin) bool { return q.origin == o.origin }) {
			continue
		}
		n := 0
		for _, q := range st.newOrigins[i:] {
			if q.origin == o.origin {
				n++
			}
		}
		ev := Event{
			Class: HijackOrigin, WindowStart: ws,
			Prefix: st.prefix, AS: o.origin,
			Detail:  "baseline origin displaced",
			Score:   float64(n),
			VPCount: n,
		}
		switch {
		case len(st.baseline) == 0:
			// Unknown prefix: a more-specific of a baseline prefix
			// originated by a foreign AS is a sub-prefix hijack; the
			// covering origin announcing its own more-specific (or a
			// genuinely new prefix) is not an event.
			anc := d.coveringBaseline(st.prefix)
			if anc == nil || slices.Contains(anc.baseline, o.origin) {
				continue
			}
			ev.Class, ev.Detail = HijackSubprefix, "more-specific of covered baseline prefix"
		case slices.ContainsFunc(st.routes, func(r route) bool { return slices.Contains(st.baseline, r.origin) }):
			// Known prefix, foreign origin: MOAS while any vantage point
			// still routes to a baseline origin, full origin hijack once
			// none does. Stable baseline multi-origin (anycast) never
			// reaches here — those origins are in the baseline set.
			ev.Class, ev.Detail = HijackMOAS, "foreign origin alongside baseline"
		}
		*evs = append(*evs, ev)
	}
}

// classifyLeaks emits one event per leaker over the routes held at close:
// a leak announced and healed within one window self-heals and stays
// silent by design.
func classifyLeaks(ws int64, st *prefixState, evs *[]Event) {
	for i, r := range st.routes {
		if r.leaker == 0 || slices.ContainsFunc(st.routes[:i], func(q route) bool { return q.leaker == r.leaker }) {
			continue
		}
		n := 0
		for _, q := range st.routes[i:] {
			if q.leaker == r.leaker {
				n++
			}
		}
		*evs = append(*evs, Event{
			Class: RouteLeak, WindowStart: ws,
			Prefix: st.prefix, AS: r.leaker,
			Detail:  "non-transit AS in transit position",
			Score:   float64(n),
			VPCount: n,
		})
	}
}

// classifyArtifacts emits each traced pair's first loop and first cycle of
// the window, and a diamond when the pair showed two or more hop sequences.
func (d *Detector) classifyArtifacts(ws int64, evs *[]Event) {
	for key, w := range d.winTraces {
		w.loop.emit(evs, TraceLoop, ws, key)
		w.cycle.emit(evs, TraceCycle, ws, key)
		if w.count >= 2 {
			*evs = append(*evs, Event{
				Class: TraceDiamond, WindowStart: ws,
				Key:    key,
				Detail: "divergent same-pair hop sequences",
				Score:  float64(w.count),
			})
		}
	}
}

// emit appends r, unless it is none, to evs as pair key's event of class c.
// Its detail is built here, once per event rather than once per trace.
func (r hopRepeat) emit(evs *[]Event, c Class, ws int64, key traceroute.Key) {
	if r.at != 0 {
		*evs = append(*evs, Event{Class: c, WindowStart: ws, Key: key,
			Detail: "repeated hop " + trie.FormatIP(r.ip), Score: float64(r.at)})
	}
}

// classifyDiurnal records ws as one of the churning prefix's slots and
// emits a diurnal event when the same daily slot churned on each of the
// last diurnalDays days while the rest of the trailing day stayed mostly
// quiet. Slots before the horizon can decide nothing any more.
func classifyDiurnal(ws int64, st *prefixState, evs *[]Event) {
	horizon, _ := slices.BinarySearch(st.slots, ws-(diurnalDays+1)*day)
	st.slots = slices.Delete(st.slots, 0, horizon)
	if at, found := slices.BinarySearch(st.slots, ws); !found {
		st.slots = slices.Insert(st.slots, at, ws)
	}
	for dd := int64(1); dd < diurnalDays; dd++ {
		if _, found := slices.BinarySearch(st.slots, ws-dd*day); !found {
			return
		}
	}
	lo, _ := slices.BinarySearch(st.slots, ws-day+1)
	hi, _ := slices.BinarySearch(st.slots, ws)
	if hi-lo <= diurnalSparseMax {
		*evs = append(*evs, Event{
			Class: Diurnal, WindowStart: ws,
			Prefix: st.prefix,
			Detail: "daily-slot churn recurrence",
			Score:  diurnalDays,
		})
	}
}

// published is the log as the last close that emitted events left it.
func (d *Detector) published() []Event {
	if log := d.log.Load(); log != nil {
		return *log
	}
	return nil
}

// Events returns a copy of every event emitted so far, in emission order
// (windows ascending, EventLess within each window).
func (d *Detector) Events() []Event {
	log := d.published()
	out := make([]Event, len(log))
	copy(out, log)
	return out
}

// Filter selects events by class set and window range for POST /v1/events
// queries; nil classes means every class, and a zero bound disables that
// side of the range.
type Filter struct {
	Classes    []Class
	FromWindow int64
	ToWindow   int64
}

// Filtered returns the emitted events matching f, preserving order.
func (d *Detector) Filtered(f Filter) []Event {
	want := make(map[Class]bool, len(f.Classes))
	for _, c := range f.Classes {
		want[c] = true
	}
	var out []Event
	for _, ev := range d.published() {
		if len(want) > 0 && !want[ev.Class] {
			continue
		}
		if f.FromWindow != 0 && ev.WindowStart < f.FromWindow {
			continue
		}
		if f.ToWindow != 0 && ev.WindowStart > f.ToWindow {
			continue
		}
		out = append(out, ev)
	}
	return out
}

package events

import (
	"sort"
	"sync"

	"rrr/internal/bgp"
	"rrr/internal/traceroute"
	"rrr/internal/trie"
)

// Config tunes the Detector.
type Config struct {
	// WindowSec is the emission window length (must match the engine's;
	// 900 if zero). Diurnal slot arithmetic requires 86400 % WindowSec == 0,
	// which every deployed window length satisfies.
	WindowSec int64
	// DiurnalDays is how many consecutive days a prefix must churn in the
	// same daily slot before it is classified diurnal (3 if zero).
	DiurnalDays int
	// DiurnalSparseMax caps how many *other* active windows the prefix may
	// have had in the trailing day: periodicity means the churn is
	// concentrated in the repeating slot, not constant (3 if zero).
	DiurnalSparseMax int
	// OnEvent, when set, receives every emitted event in canonical order
	// at window close, on the tapping goroutine. Wire it to the serving
	// hub's event publisher.
	OnEvent func(Event)
}

// BlackholeCommunity is RFC 7999's well-known BLACKHOLE community.
var BlackholeCommunity = bgp.MakeCommunity(65535, 666)

// routeKey identifies one vantage point's route to one prefix. A vantage
// point is a BGP session, (peer IP, peer AS), as in bgp.RIB: two sessions
// on one IP hold two routes.
type routeKey struct {
	vp     bgp.VPKey
	prefix trie.Prefix
}

// routeVal is the current state of one (vp, prefix) route.
type routeVal struct {
	origin bgp.ASN
	leaker bgp.ASN // non-transit AS observed mid-path; 0 when clean
}

// Detector consumes the ingested record stream (via the Pipeline's record
// tap) and classifies routing events against a baseline learned from the
// priming table dump. All Tap* methods are called on the pipeline's merge
// goroutine; Events/Filtered may be called concurrently from HTTP
// handlers.
type Detector struct {
	mu  sync.Mutex
	cfg Config

	// Baseline learned during priming: per-prefix legitimate origin sets
	// (multi-origin baselines are anycast, hence benign MOAS) and the set
	// of ASes observed providing transit (mid-path).
	baseline map[trie.Prefix]map[bgp.ASN]bool
	transit  map[bgp.ASN]bool

	// Live routing view: per-(vp, prefix) current route plus per-prefix
	// tallies of VPs per origin and per leaker, kept incrementally so
	// window close classifies in O(touched prefixes).
	cur       map[routeKey]routeVal
	originCnt map[trie.Prefix]map[bgp.ASN]int
	leakCnt   map[trie.Prefix]map[bgp.ASN]int

	// Per-window accumulators, reset at each close.
	winTouched   map[trie.Prefix]bool
	winNewOrigin map[trie.Prefix]map[bgp.ASN]int // non-baseline origins seen: VP count
	winBlackhole map[trie.Prefix]*blackholeObs
	winChurn     map[trie.Prefix]int
	winArtifacts map[artifactKey]*artifactObs
	// Distinct hop sequences seen per pair this window: winTraceSigs heads
	// a chain through winSigs, whose entries span winSigHops. The slab and
	// the entries are reused from window to window.
	winTraceSigs map[traceroute.Key]traceSigs
	winSigs      []sigSpan
	winSigHops   []uint32

	// Diurnal slot activity: prefix -> set of window starts with churn,
	// pruned past the detection horizon.
	activity map[trie.Prefix]map[int64]bool

	emitted []Event
}

type blackholeObs struct {
	origin bgp.ASN
	vps    map[bgp.VPKey]bool
}

// traceSigs is one pair's distinct hop sequences in the open window: the
// index of the newest in Detector.winSigs, and how many there are.
type traceSigs struct {
	head  int32
	count int32
}

// sigSpan is one hop sequence, winSigHops[off:off+n], chained to the
// previous distinct sequence of the same pair (-1 ends the chain).
type sigSpan struct {
	off, n int32
	prev   int32
}

type artifactKey struct {
	class Class
	key   traceroute.Key
}

type artifactObs struct {
	detail string
	score  float64
	count  int
}

// NewDetector builds a detector with an empty baseline; feed the priming
// table dump through Prime before streaming.
func NewDetector(cfg Config) *Detector {
	if cfg.WindowSec <= 0 {
		cfg.WindowSec = 900
	}
	if cfg.DiurnalDays <= 0 {
		cfg.DiurnalDays = 3
	}
	if cfg.DiurnalSparseMax <= 0 {
		cfg.DiurnalSparseMax = 3
	}
	d := &Detector{
		cfg:       cfg,
		baseline:  make(map[trie.Prefix]map[bgp.ASN]bool),
		transit:   make(map[bgp.ASN]bool),
		cur:       make(map[routeKey]routeVal),
		originCnt: make(map[trie.Prefix]map[bgp.ASN]int),
		leakCnt:   make(map[trie.Prefix]map[bgp.ASN]int),
		activity:  make(map[trie.Prefix]map[int64]bool),

		winTouched:   make(map[trie.Prefix]bool),
		winNewOrigin: make(map[trie.Prefix]map[bgp.ASN]int),
		winBlackhole: make(map[trie.Prefix]*blackholeObs),
		winChurn:     make(map[trie.Prefix]int),
		winArtifacts: make(map[artifactKey]*artifactObs),
		winTraceSigs: make(map[traceroute.Key]traceSigs),
	}
	return d
}

// SetSink replaces the emission callback. Useful when the sink (an SSE
// hub, say) is constructed after the detector it subscribes to.
func (d *Detector) SetSink(fn func(Event)) {
	d.mu.Lock()
	d.cfg.OnEvent = fn
	d.mu.Unlock()
}

// resetWindow empties the per-window accumulators, keeping their storage:
// a window's maps are about the size of the last one's.
func (d *Detector) resetWindow() {
	clear(d.winTouched)
	clear(d.winNewOrigin)
	clear(d.winBlackhole)
	clear(d.winChurn)
	clear(d.winArtifacts)
	clear(d.winTraceSigs)
	d.winSigs = d.winSigs[:0]
	d.winSigHops = d.winSigHops[:0]
}

// Prime learns the baseline from one table-dump update: legitimate origin
// sets per prefix and the transit AS population. Priming also seeds the
// live routing view so MOAS classification starts from the full table.
func (d *Detector) Prime(u bgp.Update) {
	if u.Type != bgp.Announce || len(u.ASPath) == 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	origin := u.ASPath.Origin()
	set := d.baseline[u.Prefix]
	if set == nil {
		set = make(map[bgp.ASN]bool)
		d.baseline[u.Prefix] = set
	}
	set[origin] = true
	for _, as := range interior(u.ASPath) {
		d.transit[as] = true
	}
	d.setRoute(routeKey{vp: vpOf(u), prefix: u.Prefix}, routeVal{origin: origin})
	metEventsPrimed.Inc()
}

// setRoute installs (or with zero val, removes) one vp route, maintaining
// the per-prefix origin and leaker tallies.
func (d *Detector) setRoute(rk routeKey, val routeVal) {
	if old, ok := d.cur[rk]; ok {
		if m := d.originCnt[rk.prefix]; m != nil {
			if m[old.origin]--; m[old.origin] <= 0 {
				delete(m, old.origin)
			}
		}
		if old.leaker != 0 {
			if m := d.leakCnt[rk.prefix]; m != nil {
				if m[old.leaker]--; m[old.leaker] <= 0 {
					delete(m, old.leaker)
				}
			}
		}
	}
	if val == (routeVal{}) {
		delete(d.cur, rk)
		return
	}
	d.cur[rk] = val
	m := d.originCnt[rk.prefix]
	if m == nil {
		m = make(map[bgp.ASN]int)
		d.originCnt[rk.prefix] = m
	}
	m[val.origin]++
	if val.leaker != 0 {
		lm := d.leakCnt[rk.prefix]
		if lm == nil {
			lm = make(map[bgp.ASN]int)
			d.leakCnt[rk.prefix] = lm
		}
		lm[val.leaker]++
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
	d.mu.Lock()
	defer d.mu.Unlock()
	metEventsUpdates.Inc()
	d.winChurn[u.Prefix]++
	d.winTouched[u.Prefix] = true
	rk := routeKey{vp: vpOf(u), prefix: u.Prefix}
	if u.Type == bgp.Withdraw {
		d.setRoute(rk, routeVal{})
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
	d.setRoute(rk, routeVal{origin: origin, leaker: leaker})
	if set, known := d.baseline[u.Prefix]; !known || !set[origin] {
		m := d.winNewOrigin[u.Prefix]
		if m == nil {
			m = make(map[bgp.ASN]int)
			d.winNewOrigin[u.Prefix] = m
		}
		m[origin]++
	}
	for _, c := range u.Communities {
		if c == BlackholeCommunity {
			obs := d.winBlackhole[u.Prefix]
			if obs == nil {
				obs = &blackholeObs{origin: origin, vps: make(map[bgp.VPKey]bool)}
				d.winBlackhole[u.Prefix] = obs
			}
			obs.vps[rk.vp] = true
			break
		}
	}
}

// TapTrace ingests one streamed public traceroute (rrr.RecordTap),
// scanning for per-flow load-balancing artifacts.
func (d *Detector) TapTrace(tr *traceroute.Traceroute) {
	if tr == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	metEventsTraces.Inc()
	key := tr.Key()
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
			cls := TraceCycle
			if j == i-1 {
				cls = TraceLoop
			}
			ak := artifactKey{class: cls, key: key}
			obs := d.winArtifacts[ak]
			if obs == nil {
				obs = &artifactObs{detail: trie.FormatIP(h.IP), score: float64(i)}
				d.winArtifacts[ak] = obs
			}
			obs.count++
			return // a looping trace's hop signature is not a diamond variant
		}
	}
	// Record the hop sequence unless the pair already showed it this window.
	sigs, seen := d.winTraceSigs[key]
	if !seen {
		sigs.head = -1
	}
	for at := sigs.head; at >= 0; at = d.winSigs[at].prev {
		if sp := d.winSigs[at]; sameHops(d.winSigHops[sp.off:sp.off+sp.n], tr.Hops) {
			return
		}
	}
	off := int32(len(d.winSigHops))
	for _, h := range tr.Hops {
		d.winSigHops = append(d.winSigHops, h.IP)
	}
	d.winSigs = append(d.winSigs, sigSpan{off: off, n: int32(len(tr.Hops)), prev: sigs.head})
	d.winTraceSigs[key] = traceSigs{head: int32(len(d.winSigs) - 1), count: sigs.count + 1}
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
	d.mu.Lock()
	var evs []Event
	d.classifyHijacks(ws, &evs)
	d.classifyLeaks(ws, &evs)
	d.classifyBlackholes(ws, &evs)
	d.classifyArtifacts(ws, &evs)
	d.classifyDiurnal(ws, &evs)
	sort.Slice(evs, func(i, j int) bool { return EventLess(evs[i], evs[j]) })
	d.emitted = append(d.emitted, evs...)
	d.resetWindow()
	metEventsWindows.Inc()
	sink := d.cfg.OnEvent
	d.mu.Unlock()
	for _, ev := range evs {
		metEventsEmitted(ev.Class).Inc()
		if sink != nil {
			sink(ev)
		}
	}
}

// coveringBaseline finds the longest baseline prefix strictly covering p,
// for sub-prefix hijack classification.
func (d *Detector) coveringBaseline(p trie.Prefix) (trie.Prefix, map[bgp.ASN]bool, bool) {
	for l := int(p.Len) - 1; l >= 1; l-- {
		anc := trie.MakePrefix(p.Addr, uint8(l))
		if set, ok := d.baseline[anc]; ok {
			return anc, set, true
		}
	}
	return trie.Prefix{}, nil, false
}

func (d *Detector) classifyHijacks(ws int64, evs *[]Event) {
	for prefix, origins := range d.winNewOrigin {
		baseline, known := d.baseline[prefix]
		for origin, vps := range origins {
			if !known {
				// Unknown prefix: a more-specific of a baseline prefix
				// originated by a foreign AS is a sub-prefix hijack; the
				// covering origin announcing its own more-specific (or a
				// genuinely new prefix) is not an event.
				_, ancSet, covered := d.coveringBaseline(prefix)
				if covered && !ancSet[origin] {
					*evs = append(*evs, Event{
						Class: HijackSubprefix, WindowStart: ws,
						Prefix: prefix, AS: origin,
						Detail:  "more-specific of covered baseline prefix",
						Score:   float64(vps),
						VPCount: vps,
					})
				}
				continue
			}
			// Known prefix, foreign origin: MOAS while any vantage point
			// still routes to a baseline origin, full origin hijack once
			// none does. Stable baseline multi-origin (anycast) never
			// reaches here — those origins are in the baseline set.
			baselineVisible := 0
			for bOrigin := range baseline {
				baselineVisible += d.originCnt[prefix][bOrigin]
			}
			cls := HijackOrigin
			detail := "baseline origin displaced"
			if baselineVisible > 0 {
				cls = HijackMOAS
				detail = "foreign origin alongside baseline"
			}
			*evs = append(*evs, Event{
				Class: cls, WindowStart: ws,
				Prefix: prefix, AS: origin,
				Detail:  detail,
				Score:   float64(vps),
				VPCount: vps,
			})
		}
	}
}

func (d *Detector) classifyLeaks(ws int64, evs *[]Event) {
	// A leak is flagged only while the leaked path is still the current
	// route at window close: a leak announced and healed within one window
	// self-heals and stays silent by design.
	for prefix := range d.winTouched {
		for leaker, n := range d.leakCnt[prefix] {
			if n <= 0 {
				continue
			}
			*evs = append(*evs, Event{
				Class: RouteLeak, WindowStart: ws,
				Prefix: prefix, AS: leaker,
				Detail:  "non-transit AS in transit position",
				Score:   float64(n),
				VPCount: n,
			})
		}
	}
}

func (d *Detector) classifyBlackholes(ws int64, evs *[]Event) {
	for prefix, obs := range d.winBlackhole {
		*evs = append(*evs, Event{
			Class: Blackhole, WindowStart: ws,
			Prefix: prefix, AS: obs.origin,
			Detail:  "RFC7999 65535:666",
			Score:   float64(len(obs.vps)),
			VPCount: len(obs.vps),
		})
	}
}

func (d *Detector) classifyArtifacts(ws int64, evs *[]Event) {
	for ak, obs := range d.winArtifacts {
		*evs = append(*evs, Event{
			Class: ak.class, WindowStart: ws,
			Key:    ak.key,
			Detail: "repeated hop " + obs.detail,
			Score:  obs.score,
		})
	}
	for key, sigs := range d.winTraceSigs {
		if sigs.count < 2 {
			continue
		}
		*evs = append(*evs, Event{
			Class: TraceDiamond, WindowStart: ws,
			Key:    key,
			Detail: "divergent same-pair hop sequences",
			Score:  float64(sigs.count),
		})
	}
}

func (d *Detector) classifyDiurnal(ws int64, evs *[]Event) {
	const day = 86400
	horizon := ws - int64(d.cfg.DiurnalDays+1)*day
	for prefix, n := range d.winChurn {
		if n == 0 {
			continue
		}
		slots := d.activity[prefix]
		if slots == nil {
			slots = make(map[int64]bool)
			d.activity[prefix] = slots
		}
		slots[ws] = true
		// Same daily slot active for DiurnalDays consecutive days, with
		// the rest of the trailing day mostly quiet.
		periodic := true
		for dd := 1; dd < d.cfg.DiurnalDays; dd++ {
			if !slots[ws-int64(dd)*day] {
				periodic = false
				break
			}
		}
		if periodic {
			others := 0
			for at := range slots {
				if at > ws-day && at < ws {
					others++
				}
			}
			if others <= d.cfg.DiurnalSparseMax {
				*evs = append(*evs, Event{
					Class: Diurnal, WindowStart: ws,
					Prefix: prefix,
					Detail: "daily-slot churn recurrence",
					Score:  float64(d.cfg.DiurnalDays),
				})
			}
		}
	}
	// Prune stale slots so long runs stay bounded.
	for prefix, slots := range d.activity {
		for at := range slots {
			if at < horizon {
				delete(slots, at)
			}
		}
		if len(slots) == 0 {
			delete(d.activity, prefix)
		}
	}
}

// Events returns every emitted event so far, in emission order (windows
// ascending, EventLess within each window).
func (d *Detector) Events() []Event {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Event, len(d.emitted))
	copy(out, d.emitted)
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
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []Event
	for _, ev := range d.emitted {
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

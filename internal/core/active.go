package core

import (
	"cmp"
	"slices"

	"rrr/internal/bgp"
	"rrr/internal/traceroute"
)

// A pair's active signals are kept as records, not Signal values. A record
// holds what changes from one firing of a monitor to the next (the window
// and the score) and points at a prototype holding the rest. The pair is
// the active map's key, so neither keeps it. A monitor that fires window
// after window with the same fields (a border-router series during a shift,
// say) adds 24 bytes per firing rather than a 112-byte Signal with its own
// Detail string. Readers rebuild Signal values with signal.

// sigProto is the part of an active signal that repeats across a monitor's
// firings on a pair: every Signal field but Key, WindowStart and Score.
// Prototypes are immutable; records share them.
type sigProto struct {
	technique            Technique
	monitorID            int
	borders              []int
	detail               string
	vpCount              int
	ipOverlap, asOverlap int
	comm                 bgp.Community
	sameASVP, sameCityVP bool
}

// activeSig is one active signal of a pair.
type activeSig struct {
	proto       *sigProto
	windowStart int64
	score       float64
}

func newProto(s *Signal) *sigProto {
	return &sigProto{
		monitorID:  s.MonitorID,
		borders:    s.Borders,
		detail:     s.Detail,
		vpCount:    s.VPCount,
		ipOverlap:  s.IPOverlap,
		asOverlap:  s.ASOverlap,
		comm:       s.Comm,
		technique:  s.Technique,
		sameASVP:   s.SameASVP,
		sameCityVP: s.SameCityVP,
	}
}

// matches reports whether s carries exactly the prototype's fields. A nil
// border list and an empty one differ: they encode differently.
func (p *sigProto) matches(s *Signal) bool {
	return p.monitorID == s.MonitorID && p.technique == s.Technique &&
		p.detail == s.Detail && p.vpCount == s.VPCount &&
		p.ipOverlap == s.IPOverlap && p.asOverlap == s.ASOverlap &&
		p.comm == s.Comm && p.sameASVP == s.SameASVP && p.sameCityVP == s.SameCityVP &&
		(p.borders == nil) == (s.Borders == nil) && slices.Equal(p.borders, s.Borders)
}

// signal rebuilds the record as pair k's Signal.
func (r *activeSig) signal(k traceroute.Key) Signal {
	p := r.proto
	return Signal{
		Technique:   p.technique,
		Key:         k,
		MonitorID:   p.monitorID,
		WindowStart: r.windowStart,
		Borders:     p.borders,
		Detail:      p.detail,
		Score:       r.score,
		VPCount:     p.vpCount,
		IPOverlap:   p.ipOverlap,
		ASOverlap:   p.asOverlap,
		SameASVP:    p.sameASVP,
		SameCityVP:  p.sameCityVP,
		Comm:        p.comm,
	}
}

// protoFor returns the prototype of s among a pair's records: the newest
// one whose fields s carries, or a new one. The scan skips runs of records
// sharing a prototype, so a monitor that fired last window is found after
// one comparison per distinct prototype fired since.
func protoFor(recs []activeSig, s *Signal) *sigProto {
	var seen *sigProto
	for i := len(recs) - 1; i >= 0; i-- {
		p := recs[i].proto
		if p == seen {
			continue
		}
		if p.matches(s) {
			return p
		}
		seen = p
	}
	return newProto(s)
}

// track appends sigs to their pairs' active records, each pair's in sigs
// order. A pair whose records do not fit their slice is copied, once per
// call, into one of their new length rounded up to its allocation size
// class: the list carries no append slack beyond what the allocator
// rounds up to anyway, and a later call may fill that room in place.
func (s *pairState) track(sigs []Signal) {
	order := s.trackBuf[:0]
	for i := range sigs {
		order = append(order, int32(i))
	}
	slices.SortStableFunc(order, func(a, b int32) int {
		ka, kb := sigs[a].Key, sigs[b].Key
		if c := cmp.Compare(ka.Src, kb.Src); c != 0 {
			return c
		}
		return cmp.Compare(ka.Dst, kb.Dst)
	})
	for i := 0; i < len(order); {
		k := sigs[order[i]].Key
		j := i + 1
		for j < len(order) && sigs[order[j]].Key == k {
			j++
		}
		recs := s.active[k]
		if need := len(recs) + j - i; need > cap(recs) {
			// Appending need zeroes to a nil slice allocates exactly need
			// records, rounded up to the size class (and no temporary).
			grown := append([]activeSig(nil), make([]activeSig, need)...)
			recs = grown[:copy(grown, recs)]
		}
		for _, x := range order[i:j] {
			sig := &sigs[x]
			recs = append(recs, activeSig{proto: protoFor(recs, sig), windowStart: sig.WindowStart, score: sig.Score})
		}
		s.active[k] = recs
		i = j
	}
	s.trackBuf = order
}

// ActiveCount counts the pair's active signals: len(Active(k)) without
// building them.
func (e *Engine) ActiveCount(k traceroute.Key) int {
	return len(e.active[k])
}

// Active returns the currently-active (unrevoked) signals for a pair, in
// the order they were raised, in a new slice; nil when there are none.
func (e *Engine) Active(k traceroute.Key) []Signal {
	return e.AppendActive(nil, k)
}

// AppendActive appends the pair's active signals to dst, as Active lists
// them, and returns the extended slice.
func (e *Engine) AppendActive(dst []Signal, k traceroute.Key) []Signal {
	recs := e.active[k]
	if len(recs) == 0 {
		return dst
	}
	dst = slices.Grow(dst, len(recs))
	for i := range recs {
		dst = append(dst, recs[i].signal(k))
	}
	return dst
}

// RestoreActive re-injects previously-generated signals into the active
// set, used when a Monitor is rebuilt from a snapshot: the signals keep
// flagging their pairs as stale across a restart without replaying the
// feed history that produced them. Restored signals carry MonitorIDs from
// the previous process generation, which is fine for staleness queries and
// refresh planning; no monitor stands behind their records, which take
// prototypes of their own. §4.3.2 revocation is suspended for a restored
// pair: its monitors were registered by this process against whatever
// routes the restart found, so "back at baseline" is trivially true. The
// pair rejoins revocation once it raises a signal here (its monitors then
// hold an observed baseline); re-registration and removal drop the mark.
func (e *Engine) RestoreActive(sigs []Signal) {
	if len(sigs) == 0 {
		return
	}
	if e.restored == nil {
		e.restored = make(map[traceroute.Key]bool)
	}
	for i := range sigs {
		e.restored[sigs[i].Key] = true
	}
	e.track(sigs)
}

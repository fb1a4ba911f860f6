// Package iplane reimplements the path-splicing core of iPlane (Madhyastha
// et al., OSDI 2006) at PoP granularity, as used in the paper's Appendix D:
// the predicted path from s to d is assembled from a measured traceroute
// (s, d') and a measured traceroute (s', d) that intersect at an
// intermediate PoP p. Staleness pruning removes corpus traceroutes flagged
// by staleness prediction signals and re-adds them on revocation.
package iplane

import (
	"sort"

	"rrr/internal/traceroute"
)

// PoP is an opaque point-of-presence identity (an ⟨AS, city⟩ tuple in the
// paper's processing; IPs that cannot be geolocated are their own PoP).
type PoP int64

// entry is one corpus traceroute at PoP granularity.
type entry struct {
	Key  traceroute.Key
	PoPs []PoP
}

// Splice is a predicted path: Left measured (src → p), Right measured
// (p → dst).
type Splice struct {
	Left  traceroute.Key
	Right traceroute.Key
	Via   PoP
}

// Service is the splicing index.
type Service struct {
	entries map[traceroute.Key]*entry
	bySrc   map[uint32][]*entry
	byPoP   map[PoP]map[uint32][]*entry // PoP → dst → entries through it
	pruned  map[traceroute.Key]bool
}

// New returns an empty service.
func New() *Service {
	return &Service{
		entries: make(map[traceroute.Key]*entry),
		bySrc:   make(map[uint32][]*entry),
		byPoP:   make(map[PoP]map[uint32][]*entry),
		pruned:  make(map[traceroute.Key]bool),
	}
}

// Len returns the number of stored traceroutes (pruned included).
func (s *Service) Len() int { return len(s.entries) }

// Add stores a PoP-level traceroute.
func (s *Service) Add(key traceroute.Key, pops []PoP) {
	if _, ok := s.entries[key]; ok {
		s.remove(key)
	}
	e := &entry{Key: key, PoPs: pops}
	s.entries[key] = e
	s.bySrc[key.Src] = append(s.bySrc[key.Src], e)
	for _, p := range e.PoPs {
		m := s.byPoP[p]
		if m == nil {
			m = make(map[uint32][]*entry)
			s.byPoP[p] = m
		}
		m[key.Dst] = append(m[key.Dst], e)
	}
}

func (s *Service) remove(key traceroute.Key) {
	e, ok := s.entries[key]
	if !ok {
		return
	}
	delete(s.entries, key)
	s.bySrc[key.Src] = filterEntries(s.bySrc[key.Src], key)
	for _, p := range e.PoPs {
		if m := s.byPoP[p]; m != nil {
			m[key.Dst] = filterEntries(m[key.Dst], key)
		}
	}
	delete(s.pruned, key)
}

func filterEntries(es []*entry, key traceroute.Key) []*entry {
	out := es[:0]
	for _, e := range es {
		if e.Key != key {
			out = append(out, e)
		}
	}
	return out
}

// Prune marks a traceroute stale: it no longer participates in splicing.
func (s *Service) Prune(key traceroute.Key) { s.pruned[key] = true }

// Unprune restores a traceroute whose staleness signals were revoked.
func (s *Service) Unprune(key traceroute.Key) { delete(s.pruned, key) }

// Predict returns a splice for src → dst, or false if no pair of usable
// traceroutes intersects. Among candidates it prefers the intersection
// closest to the destination side of the left path (a deterministic stand-in
// for iPlane's latency-based ranking).
func (s *Service) Predict(src, dst uint32) (Splice, bool) {
	var best Splice
	bestRank := -1
	for _, left := range s.bySrc[src] {
		if s.pruned[left.Key] || left.Key.Dst == dst {
			continue
		}
		for li, p := range left.PoPs {
			m := s.byPoP[p]
			if m == nil {
				continue
			}
			for _, right := range m[dst] {
				if s.pruned[right.Key] || right.Key == left.Key {
					continue
				}
				if li > bestRank {
					bestRank = li
					best = Splice{Left: left.Key, Right: right.Key, Via: p}
				}
			}
		}
	}
	return best, bestRank >= 0
}

// Valid checks a splice against current ground-truth PoP paths: it holds
// when both underlying paths still traverse the splice PoP (the Appendix D
// validity criterion: the paths still intersect).
func (sp Splice) Valid(current map[traceroute.Key][]PoP) bool {
	return contains(current[sp.Left], sp.Via) && contains(current[sp.Right], sp.Via)
}

func contains(pops []PoP, p PoP) bool {
	for _, x := range pops {
		if x == p {
			return true
		}
	}
	return false
}

// Keys lists stored pairs deterministically.
func (s *Service) Keys() []traceroute.Key {
	out := make([]traceroute.Key, 0, len(s.entries))
	for k := range s.entries {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

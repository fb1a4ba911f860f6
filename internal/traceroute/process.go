package traceroute

// Patcher implements Appendix A's unresponsive-hop patching: for each
// unresponsive hop with responsive hops on both sides, if across the corpus
// only a single responsive IP has ever been observed between that pair of
// neighbors, patch the hole with it. Remaining holes stay as wildcards.
type Patcher struct {
	// between maps (prev, next) neighbor pairs to the single responsive IP
	// observed between them, or to 0 once conflicting IPs are seen.
	between map[[2]uint32]uint32
}

// NewPatcher returns an empty Patcher.
func NewPatcher() *Patcher {
	return &Patcher{between: make(map[[2]uint32]uint32)}
}

// Observe records evidence from one traceroute: every responsive hop that
// sits directly between two responsive neighbors.
func (p *Patcher) Observe(t *Traceroute) {
	for i := 1; i+1 < len(t.Hops); i++ {
		prev, mid, next := t.Hops[i-1], t.Hops[i], t.Hops[i+1]
		if !prev.Responsive() || !mid.Responsive() || !next.Responsive() {
			continue
		}
		key := [2]uint32{prev.IP, next.IP}
		if cur, ok := p.between[key]; !ok {
			p.between[key] = mid.IP
		} else if cur != mid.IP {
			p.between[key] = 0 // conflicting evidence: never patch
		}
	}
}

// Patch fills single-hop holes in t in place when the corpus evidence is
// unambiguous. It returns the number of hops patched.
func (p *Patcher) Patch(t *Traceroute) int {
	patched := 0
	for i := 1; i+1 < len(t.Hops); i++ {
		if t.Hops[i].Responsive() {
			continue
		}
		prev, next := t.Hops[i-1], t.Hops[i+1]
		if !prev.Responsive() || !next.Responsive() {
			continue
		}
		if ip, ok := p.between[[2]uint32{prev.IP, next.IP}]; ok && ip != 0 {
			t.Hops[i].IP = ip
			patched++
		}
	}
	return patched
}

// TraversesVia reports whether path visits from and later to (not
// necessarily adjacent), returning the two indices. Used by §4.2.1's
// T^intersect set: traceroutes that go through ι_m on the way to ι_n.
func TraversesVia(path []uint32, from, to uint32) (int, int, bool) {
	fi := -1
	for i, ip := range path {
		if ip == from {
			fi = i
			break
		}
	}
	if fi < 0 {
		return -1, -1, false
	}
	for j := fi + 1; j < len(path); j++ {
		if path[j] == to {
			return fi, j, true
		}
	}
	return -1, -1, false
}

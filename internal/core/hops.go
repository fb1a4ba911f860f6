package core

import (
	"rrr/internal/bordermap"
	"rrr/internal/traceroute"
)

// generational is the optional method of a mapping service whose answers
// can change while the engine runs: the value changes whenever any answer
// may have changed (see traceroute.Mapper).
type generational interface {
	Generation() uint64
}

// hopTable interns public-trace hop IPs into dense hop IDs and keeps, in a
// slice indexed by hop ID, each IP's answers from the mapping services
// (origin AS, IXP, IXP member, router) and its unresponsive-hop patching
// evidence. A known IP costs one map probe per hop; the services are asked
// only about an IP new to the current generation. Hop ID 0 is the
// unresponsive hop, IP 0, which never maps.
//
// The IDs never change: a new service generation only invalidates the kept
// answers (the epoch moves), so what is indexed by hop ID (the patching
// evidence, the subpath index) survives it.
type hopTable struct {
	mapper  traceroute.Mapper
	aliases bordermap.AliasOracle
	// gens are the services that implement generational, and seen their
	// generations as of the last sync.
	gens []generational
	seen []uint64
	// epoch counts the generations the table has seen; an entry's answers
	// are current when its epoch equals the table's.
	epoch uint32

	ids  map[uint32]uint32
	hops []hopEntry
	// slab is carved into the first afterChunk slots of each hop's after
	// list, so recording a hop's first evidence does not allocate.
	slab []hopPair
}

// hopEntry is one interned IP.
type hopEntry struct {
	// hop holds the IP and, when mapped, its answers as of epoch (Idx
	// unused).
	hop    bordermap.MappedHop
	mapped bool // bordermap.MapHop's ok
	epoch  uint32
	// after is Appendix A's patching evidence for the hops that follow this
	// one: for each next hop seen two hops later with a responsive hop in
	// between, that middle hop, or 0 once two different ones were seen.
	after []hopPair
}

type hopPair struct{ next, mid uint32 }

func newHopTable(m traceroute.Mapper, aliases bordermap.AliasOracle) *hopTable {
	ht := &hopTable{
		mapper:  m,
		aliases: aliases,
		epoch:   1,
		ids:     make(map[uint32]uint32),
		hops:    make([]hopEntry, 1),
	}
	for _, svc := range []any{m, aliases} {
		if g, ok := svc.(generational); ok {
			ht.gens = append(ht.gens, g)
			ht.seen = append(ht.seen, g.Generation())
		}
	}
	return ht
}

// sync reads the services' generations and, if any moved, invalidates
// every kept answer. The engine calls it once per traceroute.
func (ht *hopTable) sync() {
	moved := false
	for i, g := range ht.gens {
		if v := g.Generation(); v != ht.seen[i] {
			ht.seen[i], moved = v, true
		}
	}
	if moved {
		ht.epoch++
	}
}

// intern returns ip's hop ID, assigning the next one to an IP not seen
// before. It does not ask the services anything.
func (ht *hopTable) intern(ip uint32) uint32 {
	if ip == 0 {
		return 0
	}
	id, ok := ht.ids[ip]
	if !ok {
		id = uint32(len(ht.hops))
		ht.ids[ip] = id
		ht.hops = append(ht.hops, hopEntry{hop: bordermap.MappedHop{IP: ip}})
	}
	return id
}

// resolve returns hop id's entry with answers current for the epoch,
// asking the services only when the kept ones predate it.
func (ht *hopTable) resolve(id uint32) *hopEntry {
	h := &ht.hops[id]
	if id != 0 && h.epoch != ht.epoch {
		h.hop, h.mapped = bordermap.MapHop(h.hop.IP, ht.mapper, ht.aliases)
		h.epoch = ht.epoch
	}
	return h
}

// observeGaps records the patching evidence of one traceroute's hop IDs,
// as traceroute.Patcher.Observe does by IP: every responsive hop that sits
// directly between two responsive neighbors.
func (ht *hopTable) observeGaps(ids []uint32) {
	for i := 1; i+1 < len(ids); i++ {
		prev, mid, next := ids[i-1], ids[i], ids[i+1]
		if prev == 0 || mid == 0 || next == 0 {
			continue
		}
		h := &ht.hops[prev]
		if p := findPair(h.after, next); p == nil {
			if h.after == nil {
				h.after = ht.carve()
			}
			h.after = append(h.after, hopPair{next: next, mid: mid})
		} else if p.mid != mid {
			p.mid = 0 // conflicting evidence: never patch
		}
	}
}

// patchGaps fills single-hop holes in ids in place when the evidence is
// unambiguous, as traceroute.Patcher.Patch does by IP.
func (ht *hopTable) patchGaps(ids []uint32) {
	for i := 1; i+1 < len(ids); i++ {
		if ids[i] != 0 || ids[i-1] == 0 || ids[i+1] == 0 {
			continue
		}
		if p := findPair(ht.hops[ids[i-1]].after, ids[i+1]); p != nil && p.mid != 0 {
			ids[i] = p.mid
		}
	}
}

// afterChunk is the capacity a hop's after list starts with.
const afterChunk = 8

// carve returns an empty after list with afterChunk slots from the slab.
func (ht *hopTable) carve() []hopPair {
	if len(ht.slab) < afterChunk {
		ht.slab = make([]hopPair, 512*afterChunk)
	}
	out := ht.slab[:0:afterChunk]
	ht.slab = ht.slab[afterChunk:]
	return out
}

// findPair returns the evidence for next in after, or nil. A hop is
// followed two hops later by a handful of distinct hops, so a scan beats a
// map probe.
func findPair(after []hopPair, next uint32) *hopPair {
	for i := range after {
		if after[i].next == next {
			return &after[i]
		}
	}
	return nil
}

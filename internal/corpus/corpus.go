// Package corpus maintains the monitored set of traceroutes: for every
// (source, destination) pair, the most recent measurement with its AS-level
// and border-router-level representations, plus change classification
// between measurements at the granularities of §3.
package corpus

import (
	"fmt"
	"sort"

	"rrr/internal/bgp"
	"rrr/internal/bordermap"
	"rrr/internal/traceroute"
)

// Entry is one corpus traceroute with processed representations.
type Entry struct {
	Key        traceroute.Key
	Trace      *traceroute.Traceroute
	ASPath     bgp.Path
	Borders    []bordermap.BorderHop
	MeasuredAt int64
}

// Corpus is the monitored traceroute set.
type Corpus struct {
	mapper  traceroute.Mapper
	aliases bordermap.AliasOracle
	entries map[traceroute.Key]*Entry
	keys    []traceroute.Key
	sorted  bool
}

// New returns an empty corpus using the given processing services.
func New(m traceroute.Mapper, aliases bordermap.AliasOracle) *Corpus {
	return &Corpus{
		mapper:  m,
		aliases: aliases,
		entries: make(map[traceroute.Key]*Entry),
	}
}

// MaxBorders bounds an entry's border path: the signal engine keeps a
// border index in 32 bits, so every index must be below 1<<31.
const MaxBorders = 1 << 31

// checkBorders rejects a border path of n crossings longer than
// MaxBorders.
func checkBorders(n int) error {
	if n > MaxBorders {
		return fmt.Errorf("corpus: %d border crossings, more than %d", n, MaxBorders)
	}
	return nil
}

// Process converts a raw traceroute into an Entry; traceroutes with AS
// loops are rejected (Appendix A), as are border paths longer than
// MaxBorders.
func (c *Corpus) Process(t *traceroute.Traceroute) (*Entry, error) {
	hops, err := traceroute.ASPath(t, c.mapper)
	if err != nil {
		return nil, err
	}
	borders := bordermap.BorderPath(t, c.mapper, c.aliases)
	if err := checkBorders(len(borders)); err != nil {
		return nil, err
	}
	return &Entry{
		Key:        t.Key(),
		Trace:      t,
		ASPath:     traceroute.ASNs(hops),
		Borders:    borders,
		MeasuredAt: t.Time,
	}, nil
}

// Add processes and stores a traceroute, replacing any previous entry for
// its (src, dst) pair. It returns the stored entry.
func (c *Corpus) Add(t *traceroute.Traceroute) (*Entry, error) {
	e, err := c.Process(t)
	if err != nil {
		return nil, err
	}
	c.Put(e)
	return e, nil
}

// Put stores an already-processed entry, replacing any previous entry for
// its pair in place: a replacement leaves the key index as it was.
func (c *Corpus) Put(e *Entry) {
	if _, existed := c.entries[e.Key]; !existed {
		c.keys = append(c.keys, e.Key)
		c.sorted = false
	}
	c.entries[e.Key] = e
}

// Get returns the entry for a pair.
func (c *Corpus) Get(k traceroute.Key) (*Entry, bool) {
	e, ok := c.entries[k]
	return e, ok
}

// Remove deletes a pair from the corpus.
func (c *Corpus) Remove(k traceroute.Key) {
	if _, ok := c.entries[k]; ok {
		delete(c.entries, k)
		c.sorted = false
		for i, key := range c.keys {
			if key == k {
				c.keys = append(c.keys[:i], c.keys[i+1:]...)
				break
			}
		}
	}
}

// Len returns the number of monitored pairs.
func (c *Corpus) Len() int { return len(c.entries) }

// Keys returns the monitored pairs in a new slice, sorted for
// deterministic iteration. It only reads the corpus (a dirty key index is
// sorted in the copy), so concurrent readers may call it.
func (c *Corpus) Keys() []traceroute.Key {
	out := make([]traceroute.Key, len(c.keys))
	copy(out, c.keys)
	if !c.sorted {
		sortKeys(out)
	}
	return out
}

// Each calls fn on every entry in sorted (Src, Dst) order, walking the key
// index without copying it. It sorts a dirty index in place, so the caller
// must hold the corpus exclusively; fn must not add or remove entries.
func (c *Corpus) Each(fn func(*Entry)) {
	if !c.sorted {
		sortKeys(c.keys)
		c.sorted = true
	}
	for _, k := range c.keys {
		fn(c.entries[k])
	}
}

// sortKeys sorts keys in (Src, Dst) order.
func sortKeys(keys []traceroute.Key) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Src != keys[j].Src {
			return keys[i].Src < keys[j].Src
		}
		return keys[i].Dst < keys[j].Dst
	})
}

// Classify compares a new measurement of a monitored pair against the
// stored entry without replacing it.
func (c *Corpus) Classify(t *traceroute.Traceroute) (bordermap.ChangeClass, error) {
	old, ok := c.entries[t.Key()]
	if !ok {
		return bordermap.Unchanged, nil
	}
	fresh, err := c.Process(t)
	if err != nil {
		return bordermap.Unchanged, err
	}
	return bordermap.Classify(old.ASPath, fresh.ASPath, old.Borders, fresh.Borders), nil
}

// ClassifyEntry compares two processed entries.
func ClassifyEntry(old, new *Entry) bordermap.ChangeClass {
	return bordermap.Classify(old.ASPath, new.ASPath, old.Borders, new.Borders)
}

// Refresh replaces the stored entry with a new measurement, returning the
// change class relative to the previous entry.
func (c *Corpus) Refresh(t *traceroute.Traceroute) (bordermap.ChangeClass, error) {
	cls, err := c.Classify(t)
	if err != nil {
		return cls, err
	}
	if _, err := c.Add(t); err != nil {
		return cls, err
	}
	return cls, nil
}

// BorderIPCensus counts, per border interface address, the adjacent AS
// pairs using it (Appendix C, Fig 14) and the number of distinct (src,dst)
// paths crossing it (Fig 15).
type BorderIPCensus struct {
	ASPairs map[uint32]map[[2]bgp.ASN]bool
	Paths   map[uint32]map[traceroute.Key]bool
}

// Census walks the corpus and tallies border-IP sharing.
func (c *Corpus) Census() *BorderIPCensus {
	out := &BorderIPCensus{
		ASPairs: make(map[uint32]map[[2]bgp.ASN]bool),
		Paths:   make(map[uint32]map[traceroute.Key]bool),
	}
	for _, e := range c.entries {
		for _, b := range e.Borders {
			pair := [2]bgp.ASN{b.FromAS, b.ToAS}
			if out.ASPairs[b.FarIP] == nil {
				out.ASPairs[b.FarIP] = make(map[[2]bgp.ASN]bool)
				out.Paths[b.FarIP] = make(map[traceroute.Key]bool)
			}
			out.ASPairs[b.FarIP][pair] = true
			out.Paths[b.FarIP][e.Key] = true
		}
	}
	return out
}

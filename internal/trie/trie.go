// Package trie implements a binary prefix trie over IPv4 prefixes with
// longest-prefix-match lookups. It is the substrate for IP-to-AS mapping and
// for finding the most specific BGP prefix covering a traceroute destination
// (paper §4.1.1 and Appendix A).
package trie

import (
	"fmt"
	"sort"
	"strings"
)

// Prefix is an IPv4 prefix in host byte order. Addr must have all bits below
// the mask length cleared.
type Prefix struct {
	Addr uint32
	Len  uint8
}

// MakePrefix masks addr to plen bits and returns the canonical prefix.
func MakePrefix(addr uint32, plen uint8) Prefix {
	return Prefix{Addr: addr & mask(plen), Len: plen}
}

// mask returns the network mask for a prefix length.
func mask(plen uint8) uint32 {
	if plen == 0 {
		return 0
	}
	if plen >= 32 {
		return ^uint32(0)
	}
	return ^uint32(0) << (32 - plen)
}

// Contains reports whether ip falls inside the prefix.
func (p Prefix) Contains(ip uint32) bool {
	return ip&mask(p.Len) == p.Addr
}

// String renders the prefix in dotted-quad/len notation.
func (p Prefix) String() string {
	return fmt.Sprintf("%d.%d.%d.%d/%d",
		byte(p.Addr>>24), byte(p.Addr>>16), byte(p.Addr>>8), byte(p.Addr), p.Len)
}

// ParsePrefix parses "a.b.c.d/len". It canonicalizes the address to the mask.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("trie: bad prefix %q: missing /len", s)
	}
	addr, err := ParseIP(s[:slash])
	if err != nil {
		return Prefix{}, fmt.Errorf("trie: bad prefix %q: %w", s, err)
	}
	l, ok := parseUint8(s[slash+1:])
	if !ok || l > 32 {
		return Prefix{}, fmt.Errorf("trie: bad prefix %q: invalid length", s)
	}
	return MakePrefix(addr, uint8(l)), nil
}

// FormatIP renders an IPv4 address in dotted-quad notation.
func FormatIP(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// ParseIP parses a dotted-quad IPv4 address: four dot-separated runs of one
// or more ASCII digits, each at most 255 (leading zeros allowed, no signs).
// One pass, no allocation on success — it runs twice per key on every
// /v1/stale request.
func ParseIP(s string) (uint32, error) {
	var ip, octet uint32
	dots, digits, ok := 0, 0, true
	for i := 0; i < len(s); i++ {
		if s[i] == '.' {
			ok = ok && digits > 0
			ip, octet, digits = ip<<8|octet, 0, 0
			dots++
			continue
		}
		d := uint32(s[i] - '0') // a non-digit byte wraps past 9
		if octet = octet*10 + d; d > 9 || octet > 255 {
			ok, octet = false, 0
		}
		digits++
	}
	if dots != 3 {
		return 0, fmt.Errorf("trie: bad ip %q: want 4 octets", s)
	}
	if !ok || digits == 0 {
		return 0, fmt.Errorf("trie: bad ip %q: octet out of range", s)
	}
	return ip<<8 | octet, nil
}

// parseUint8 parses one or more ASCII digits with a value of at most 255.
// Unlike strconv.Atoi it takes no sign: these strings arrive from outside.
func parseUint8(s string) (uint32, bool) {
	var v uint32
	for i := 0; i < len(s); i++ {
		d := uint32(s[i] - '0') // a non-digit byte wraps past 9
		if v = v*10 + d; d > 9 || v > 255 {
			return 0, false
		}
	}
	return v, s != ""
}

type node[V any] struct {
	child [2]*node[V]
	val   V
	set   bool
}

// Trie maps IPv4 prefixes to values of type V with longest-prefix-match
// semantics. The zero value is ready to use. Trie is not safe for concurrent
// mutation; concurrent lookups without writers are safe.
type Trie[V any] struct {
	root node[V]
	n    int
}

// Len returns the number of prefixes stored.
func (t *Trie[V]) Len() int { return t.n }

// Insert stores v under p, replacing any previous value.
func (t *Trie[V]) Insert(p Prefix, v V) {
	cur := &t.root
	for i := 0; i < int(p.Len); i++ {
		bit := (p.Addr >> (31 - i)) & 1
		if cur.child[bit] == nil {
			cur.child[bit] = &node[V]{}
		}
		cur = cur.child[bit]
	}
	if !cur.set {
		t.n++
	}
	cur.val, cur.set = v, true
}

// Delete removes the exact prefix p. It reports whether p was present.
// Interior nodes are retained; deletion is rare in our workloads.
func (t *Trie[V]) Delete(p Prefix) bool {
	cur := &t.root
	for i := 0; i < int(p.Len); i++ {
		bit := (p.Addr >> (31 - i)) & 1
		if cur.child[bit] == nil {
			return false
		}
		cur = cur.child[bit]
	}
	if !cur.set {
		return false
	}
	var zero V
	cur.val, cur.set = zero, false
	t.n--
	return true
}

// Get returns the value stored under the exact prefix p.
func (t *Trie[V]) Get(p Prefix) (V, bool) {
	cur := &t.root
	for i := 0; i < int(p.Len); i++ {
		bit := (p.Addr >> (31 - i)) & 1
		if cur.child[bit] == nil {
			var zero V
			return zero, false
		}
		cur = cur.child[bit]
	}
	return cur.val, cur.set
}

// Lookup returns the value of the longest prefix containing ip.
func (t *Trie[V]) Lookup(ip uint32) (V, bool) {
	var (
		best  V
		found bool
		cur   = &t.root
		i     int
	)
	for {
		if cur.set {
			best, found = cur.val, true
		}
		if i == 32 {
			break
		}
		bit := (ip >> (31 - i)) & 1
		if cur.child[bit] == nil {
			break
		}
		cur = cur.child[bit]
		i++
	}
	return best, found
}

// Walk visits every stored prefix in lexicographic (address, length) order.
// The walk stops early if fn returns false.
func (t *Trie[V]) Walk(fn func(Prefix, V) bool) {
	t.walk(&t.root, 0, 0, fn)
}

func (t *Trie[V]) walk(n *node[V], addr uint32, depth uint8, fn func(Prefix, V) bool) bool {
	if n.set && !fn(Prefix{Addr: addr, Len: depth}, n.val) {
		return false
	}
	if depth == 32 {
		return true
	}
	if n.child[0] != nil && !t.walk(n.child[0], addr, depth+1, fn) {
		return false
	}
	if n.child[1] != nil && !t.walk(n.child[1], addr|1<<(31-depth), depth+1, fn) {
		return false
	}
	return true
}

// Prefixes returns all stored prefixes sorted by address then length.
func (t *Trie[V]) Prefixes() []Prefix {
	out := make([]Prefix, 0, t.n)
	t.Walk(func(p Prefix, _ V) bool {
		out = append(out, p)
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr != out[j].Addr {
			return out[i].Addr < out[j].Addr
		}
		return out[i].Len < out[j].Len
	})
	return out
}

package trie

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mustPrefix(t *testing.T, s string) Prefix {
	t.Helper()
	p, err := ParsePrefix(s)
	if err != nil {
		t.Fatalf("ParsePrefix(%q): %v", s, err)
	}
	return p
}

func mustIP(t *testing.T, s string) uint32 {
	t.Helper()
	ip, err := ParseIP(s)
	if err != nil {
		t.Fatalf("ParseIP(%q): %v", s, err)
	}
	return ip
}

func TestParseFormatRoundTrip(t *testing.T) {
	cases := []string{"0.0.0.0/0", "10.0.0.0/8", "192.168.1.0/24", "203.0.113.7/32", "100.64.0.0/10"}
	for _, s := range cases {
		p := mustPrefix(t, s)
		if p.String() != s {
			t.Errorf("round trip %q got %q", s, p.String())
		}
	}
}

func TestParsePrefixCanonicalizes(t *testing.T) {
	p := mustPrefix(t, "10.1.2.3/8")
	if p.String() != "10.0.0.0/8" {
		t.Errorf("want canonical 10.0.0.0/8, got %s", p)
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"", "10.0.0.0", "10.0.0.0/33", "256.0.0.0/8", "a.b.c.d/8", "10.0.0.0/+8", "10.0.0.0/-0", "+10.0.0.0/8"} {
		if _, err := ParsePrefix(s); err == nil {
			t.Errorf("ParsePrefix(%q): want error", s)
		}
	}
	for _, s := range []string{"", "10.0.0", "256.1.1.1", "1.2.3.4.5",
		"+1.2.3.4", "-0.0.0.0", "1.2.3.+4", "1.-0.3.4", "1..3.4", "1.2.3.4 ", "1.2.3.99999999999999999999"} {
		if _, err := ParseIP(s); err == nil {
			t.Errorf("ParseIP(%q): want error", s)
		}
	}
}

// parseIPSplit is ParseIP as it was while it split the string first; the
// one-pass parser must accept and refuse exactly what it did, in its words.
func parseIPSplit(s string) (uint32, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("trie: bad ip %q: want 4 octets", s)
	}
	var ip uint32
	for _, p := range parts {
		o, ok := parseUint8(p)
		if !ok {
			return 0, fmt.Errorf("trie: bad ip %q: octet out of range", s)
		}
		ip = ip<<8 | o
	}
	return ip, nil
}

func TestParseIPMatchesSplit(t *testing.T) {
	cases := []string{
		"", ".", "...", "....", "1.2.3", "1.2.3.4", "1.2.3.4.5", "1.2.3.4.", ".1.2.3", ".1.2.3.4",
		"1..2.3", "1..3.4", "1.2..4", "1.2.3.", "0.0.0.0", "255.255.255.255", "256.1.1.1", "1.256.1.1",
		"1.1.1.256", "999.1.1.1", "01.02.03.04", "001.1.1.1", "0000000001.1.1.1", "0255.1.1.1", "0256.1.1.1",
		"+1.2.3.4", "-0.0.0.0", "1.2.3.+4", "1.-0.3.4", "1.2.3.4 ", " 1.2.3.4", "1.2.3.4\n", "a.b.c.d",
		"1.2.3.4a", "1.2.3.99999999999999999999", "4294967296.0.0.0", "1.2.3.4294967297", "1,2,3,4",
		"10.3.0.1-10.9.0.9", "１.2.3.4", "1.2.3.\x00",
	}
	rng := rand.New(rand.NewSource(16))
	octets := []string{"0", "7", "42", "199", "255", "007", "0255", "256", "1000", "", "+1", "-0", "a", "1 "}
	for i := 0; i < 5000; i++ {
		parts := make([]string, []int{4, 4, 4, 4, 4, 4, 3, 5}[rng.Intn(8)])
		for j := range parts {
			// Mostly the well-formed head of the pool, so both sides of the
			// accept/refuse line are exercised.
			parts[j] = octets[rng.Intn(7+rng.Intn(2)*7)]
		}
		cases = append(cases, strings.Join(parts, "."))
	}
	accepted := 0
	for _, s := range cases {
		want, wantErr := parseIPSplit(s)
		got, err := ParseIP(s)
		if got != want || (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Errorf("ParseIP(%q) = %d, %v; the split parser gave %d, %v", s, got, err, want, wantErr)
		}
		if err == nil {
			accepted++
		}
	}
	if accepted < 500 || accepted > len(cases)-500 {
		t.Fatalf("%d of %d cases parse; the table exercises one side", accepted, len(cases))
	}
	if n := testing.AllocsPerRun(100, func() { ParseIP("203.0.113.77") }); n != 0 {
		t.Errorf("ParseIP allocates %v times per address", n)
	}
}

func TestContains(t *testing.T) {
	p := mustPrefix(t, "192.0.2.0/24")
	if !p.Contains(mustIP(t, "192.0.2.200")) {
		t.Error("192.0.2.0/24 should contain 192.0.2.200")
	}
	if p.Contains(mustIP(t, "192.0.3.1")) {
		t.Error("192.0.2.0/24 should not contain 192.0.3.1")
	}
}

func TestContainsPrefix(t *testing.T) {
	p8 := mustPrefix(t, "10.0.0.0/8")
	p24 := mustPrefix(t, "10.1.1.0/24")
	if !p8.ContainsPrefix(p24) {
		t.Error("/8 should contain /24 within it")
	}
	if p24.ContainsPrefix(p8) {
		t.Error("/24 should not contain its covering /8")
	}
	if !p8.ContainsPrefix(p8) {
		t.Error("prefix should contain itself")
	}
}

func TestLongestPrefixMatch(t *testing.T) {
	var tr Trie[int]
	tr.Insert(mustPrefix(t, "0.0.0.0/0"), 1)
	tr.Insert(mustPrefix(t, "10.0.0.0/8"), 2)
	tr.Insert(mustPrefix(t, "10.1.0.0/16"), 3)
	tr.Insert(mustPrefix(t, "10.1.2.0/24"), 4)

	cases := []struct {
		ip   string
		want int
	}{
		{"10.1.2.3", 4},
		{"10.1.9.9", 3},
		{"10.9.9.9", 2},
		{"8.8.8.8", 1},
	}
	for _, c := range cases {
		got, ok := tr.Lookup(mustIP(t, c.ip))
		if !ok || got != c.want {
			t.Errorf("Lookup(%s) = %d,%v; want %d", c.ip, got, ok, c.want)
		}
	}
}

func TestLookupMissEmptyTrie(t *testing.T) {
	var tr Trie[string]
	if _, ok := tr.Lookup(mustIP(t, "1.2.3.4")); ok {
		t.Error("lookup on empty trie should miss")
	}
}

func TestLookupMissNoDefault(t *testing.T) {
	var tr Trie[int]
	tr.Insert(mustPrefix(t, "10.0.0.0/8"), 1)
	if _, ok := tr.Lookup(mustIP(t, "11.0.0.1")); ok {
		t.Error("lookup outside only prefix should miss")
	}
}

func TestLookupPrefix(t *testing.T) {
	var tr Trie[int]
	tr.Insert(mustPrefix(t, "10.0.0.0/8"), 1)
	tr.Insert(mustPrefix(t, "10.1.0.0/16"), 2)
	p, v, ok := tr.LookupPrefix(mustIP(t, "10.1.200.1"))
	if !ok || v != 2 || p.String() != "10.1.0.0/16" {
		t.Errorf("LookupPrefix = %s,%d,%v; want 10.1.0.0/16,2,true", p, v, ok)
	}
}

func TestInsertReplace(t *testing.T) {
	var tr Trie[int]
	p := mustPrefix(t, "10.0.0.0/8")
	tr.Insert(p, 1)
	tr.Insert(p, 2)
	if tr.Len() != 1 {
		t.Fatalf("Len = %d; want 1", tr.Len())
	}
	if v, _ := tr.Get(p); v != 2 {
		t.Errorf("Get = %d; want 2", v)
	}
}

func TestDelete(t *testing.T) {
	var tr Trie[int]
	p8 := mustPrefix(t, "10.0.0.0/8")
	p16 := mustPrefix(t, "10.1.0.0/16")
	tr.Insert(p8, 1)
	tr.Insert(p16, 2)
	if !tr.Delete(p16) {
		t.Fatal("Delete existing should return true")
	}
	if tr.Delete(p16) {
		t.Fatal("double Delete should return false")
	}
	if v, ok := tr.Lookup(mustIP(t, "10.1.2.3")); !ok || v != 1 {
		t.Errorf("after delete, Lookup = %d,%v; want 1,true", v, ok)
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d; want 1", tr.Len())
	}
}

func TestDeleteAbsent(t *testing.T) {
	var tr Trie[int]
	if tr.Delete(mustPrefix(t, "10.0.0.0/8")) {
		t.Error("Delete on empty trie should be false")
	}
}

func TestZeroLengthPrefixDefaultRoute(t *testing.T) {
	var tr Trie[string]
	tr.Insert(Prefix{}, "default")
	v, ok := tr.Lookup(0xffffffff)
	if !ok || v != "default" {
		t.Errorf("default route lookup = %q,%v", v, ok)
	}
}

func TestHostRoute(t *testing.T) {
	var tr Trie[int]
	ip := mustIP(t, "203.0.113.5")
	tr.Insert(MakePrefix(ip, 32), 7)
	if v, ok := tr.Lookup(ip); !ok || v != 7 {
		t.Errorf("host route lookup = %d,%v", v, ok)
	}
	if _, ok := tr.Lookup(ip + 1); ok {
		t.Error("adjacent address should miss")
	}
}

func TestWalkOrderAndEarlyStop(t *testing.T) {
	var tr Trie[int]
	ps := []string{"10.0.0.0/8", "10.0.0.0/16", "192.0.2.0/24", "0.0.0.0/0"}
	for i, s := range ps {
		tr.Insert(mustPrefix(t, s), i)
	}
	var seen []string
	tr.Walk(func(p Prefix, _ int) bool {
		seen = append(seen, p.String())
		return true
	})
	want := []string{"0.0.0.0/0", "10.0.0.0/8", "10.0.0.0/16", "192.0.2.0/24"}
	if len(seen) != len(want) {
		t.Fatalf("walked %d prefixes; want %d", len(seen), len(want))
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("walk[%d] = %s; want %s", i, seen[i], want[i])
		}
	}
	var count int
	tr.Walk(func(Prefix, int) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("early-stop walk visited %d; want 1", count)
	}
}

func TestPrefixesSorted(t *testing.T) {
	var tr Trie[int]
	tr.Insert(mustPrefix(t, "192.0.2.0/24"), 0)
	tr.Insert(mustPrefix(t, "10.0.0.0/8"), 0)
	got := tr.Prefixes()
	if len(got) != 2 || got[0].String() != "10.0.0.0/8" || got[1].String() != "192.0.2.0/24" {
		t.Errorf("Prefixes() = %v", got)
	}
}

// Property: LPM result agrees with a linear scan over all inserted prefixes.
func TestLookupMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var tr Trie[int]
	type entry struct {
		p Prefix
		v int
	}
	var entries []entry
	for i := 0; i < 500; i++ {
		p := MakePrefix(rng.Uint32(), uint8(rng.Intn(33)))
		tr.Insert(p, i)
		// Keep only the latest value per canonical prefix, as Insert replaces.
		replaced := false
		for j := range entries {
			if entries[j].p == p {
				entries[j].v = i
				replaced = true
				break
			}
		}
		if !replaced {
			entries = append(entries, entry{p, i})
		}
	}
	for i := 0; i < 2000; i++ {
		ip := rng.Uint32()
		bestLen := -1
		bestVal := 0
		for _, e := range entries {
			if e.p.Contains(ip) && int(e.p.Len) > bestLen {
				bestLen, bestVal = int(e.p.Len), e.v
			}
		}
		got, ok := tr.Lookup(ip)
		if bestLen == -1 {
			if ok {
				t.Fatalf("ip %s: trie found %d, linear scan found nothing", FormatIP(ip), got)
			}
			continue
		}
		if !ok || got != bestVal {
			t.Fatalf("ip %s: trie %d,%v; linear %d", FormatIP(ip), got, ok, bestVal)
		}
	}
}

// Property: parse(format(p)) == p for arbitrary prefixes.
func TestQuickParseFormatRoundTrip(t *testing.T) {
	f := func(addr uint32, plen uint8) bool {
		p := MakePrefix(addr, plen%33)
		q, err := ParsePrefix(p.String())
		return err == nil && q == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: mask invariants — Mask(l) has exactly l leading ones.
func TestQuickMaskBits(t *testing.T) {
	f := func(plen uint8) bool {
		l := plen % 33
		m := Mask(l)
		ones := 0
		for i := 31; i >= 0; i-- {
			if m&(1<<uint(i)) != 0 {
				ones++
			} else {
				break
			}
		}
		rest := m << uint(ones)
		return ones == int(l) && rest == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkTrieLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var tr Trie[int]
	for i := 0; i < 100000; i++ {
		tr.Insert(MakePrefix(rng.Uint32(), uint8(8+rng.Intn(17))), i)
	}
	ips := make([]uint32, 1024)
	for i := range ips {
		ips[i] = rng.Uint32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Lookup(ips[i&1023])
	}
}

func BenchmarkTrieInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	prefixes := make([]Prefix, 4096)
	for i := range prefixes {
		prefixes[i] = MakePrefix(rng.Uint32(), uint8(8+rng.Intn(17)))
	}
	b.ResetTimer()
	var tr Trie[int]
	for i := 0; i < b.N; i++ {
		tr.Insert(prefixes[i&4095], i)
	}
}

func TestLookupPrefixCanonical(t *testing.T) {
	var tr Trie[int]
	p := mustPrefix(t, "10.128.0.0/9")
	tr.Insert(p, 1)
	got, v, ok := tr.LookupPrefix(mustIP(t, "10.200.0.1"))
	if !ok || v != 1 || got != p {
		t.Fatalf("LookupPrefix = %v,%d,%v; want %v,1,true", got, v, ok, p)
	}
}

func TestDeleteDoesNotAffectSiblings(t *testing.T) {
	var tr Trie[int]
	a := mustPrefix(t, "10.0.0.0/9")
	b := mustPrefix(t, "10.128.0.0/9")
	tr.Insert(a, 1)
	tr.Insert(b, 2)
	tr.Delete(a)
	if v, ok := tr.Lookup(mustIP(t, "10.200.0.1")); !ok || v != 2 {
		t.Fatalf("sibling lost: %d,%v", v, ok)
	}
	if _, ok := tr.Lookup(mustIP(t, "10.1.0.1")); ok {
		t.Fatal("deleted branch still resolves")
	}
}

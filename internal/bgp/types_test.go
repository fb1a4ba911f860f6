package bgp

import (
	"testing"
	"testing/quick"
)

func TestCommunityParts(t *testing.T) {
	c := MakeCommunity(13030, 51701)
	if c.AS() != 13030 || c.Value() != 51701 {
		t.Errorf("got AS=%d value=%d", c.AS(), c.Value())
	}
	if c.String() != "13030:51701" {
		t.Errorf("String = %q", c.String())
	}
}

func TestParseCommunity(t *testing.T) {
	c, err := parseCommunity("13030:2")
	if err != nil || c != MakeCommunity(13030, 2) {
		t.Errorf("parseCommunity = %v, %v", c, err)
	}
	for _, bad := range []string{"", "13030", "x:2", "13030:y", "70000:1", "1:70000"} {
		if _, err := parseCommunity(bad); err == nil {
			t.Errorf("parseCommunity(%q): want error", bad)
		}
	}
}

func TestQuickCommunityRoundTrip(t *testing.T) {
	f := func(as uint16, v uint16) bool {
		c := MakeCommunity(ASN(as), v)
		q, err := parseCommunity(c.String())
		return err == nil && q == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPathEqualCloneContains(t *testing.T) {
	p := Path{1, 2, 3}
	q := p.Clone()
	if !p.Equal(q) {
		t.Error("clone should equal original")
	}
	q[0] = 9
	if p.Equal(q) {
		t.Error("mutated clone should differ")
	}
	if !p.Contains(2) || p.Contains(4) {
		t.Error("Contains wrong")
	}
	if p.Index(3) != 2 || p.Index(7) != -1 {
		t.Error("Index wrong")
	}
	if p.Origin() != 3 || (Path{}).Origin() != 0 {
		t.Error("Origin wrong")
	}
}

func TestPathCompact(t *testing.T) {
	p := Path{1, 1, 1, 2, 3, 3}
	got := p.Compact()
	if !got.Equal(Path{1, 2, 3}) {
		t.Errorf("Compact = %v", got)
	}
	if (Path{}).Compact() != nil {
		t.Error("Compact of empty path should be nil")
	}
}

func TestPathHasLoop(t *testing.T) {
	if (Path{1, 2, 3, 2}).HasLoop() != true {
		t.Error("loop not detected")
	}
	if (Path{1, 1, 2, 3}).HasLoop() {
		t.Error("prepending is not a loop")
	}
	if (Path{1, 2, 3}).HasLoop() {
		t.Error("clean path flagged as loop")
	}
}

func TestPathSuffix(t *testing.T) {
	p := Path{1, 2, 3, 4}
	if !p.Suffix(3).Equal(Path{3, 4}) {
		t.Errorf("Suffix(3) = %v", p.Suffix(3))
	}
	if p.Suffix(9) != nil {
		t.Error("Suffix of absent AS should be nil")
	}
}

func TestPathStringParseRoundTrip(t *testing.T) {
	p := Path{13030, 1299, 2914, 18747}
	got, err := parsePath(p.String())
	if err != nil || !got.Equal(p) {
		t.Errorf("round trip = %v, %v", got, err)
	}
	if _, err := parsePath("1 x 3"); err == nil {
		t.Error("want error for bad path")
	}
	empty, err := parsePath("")
	if err != nil || len(empty) != 0 {
		t.Errorf("empty path parse = %v, %v", empty, err)
	}
}

func TestNormalizeCommunities(t *testing.T) {
	cs := Communities{3, 1, 2, 1}
	got := NormalizeCommunities(cs)
	if !got.Equal(Communities{1, 2, 3}) {
		t.Errorf("Normalize = %v", got)
	}
}

func TestCommunitiesDiff(t *testing.T) {
	a := NormalizeCommunities(Communities{1, 2, 3, 5})
	b := NormalizeCommunities(Communities{2, 3, 4})
	got := a.Diff(nil, b)
	if !got.Equal(Communities{1, 5}) {
		t.Errorf("Diff = %v", got)
	}
	if d := (Communities{}).Diff(nil, b); len(d) != 0 {
		t.Errorf("empty Diff = %v", d)
	}
}

// Property: Diff(a,b) ∪ (a ∩ b) == a for normalized sets.
func TestQuickCommunitiesDiffPartition(t *testing.T) {
	f := func(xs, ys []uint32) bool {
		var a, b Communities
		for _, x := range xs {
			a = append(a, Community(x%50))
		}
		for _, y := range ys {
			b = append(b, Community(y%50))
		}
		a = NormalizeCommunities(a)
		b = NormalizeCommunities(b)
		onlyA := a.Diff(nil, b)
		// every element of onlyA is in a and not in b
		inB := make(map[Community]bool)
		for _, c := range b {
			inB[c] = true
		}
		for _, c := range onlyA {
			if inB[c] {
				return false
			}
		}
		// every element of a is either in onlyA or in b
		inOnlyA := make(map[Community]bool)
		for _, c := range onlyA {
			inOnlyA[c] = true
		}
		for _, c := range a {
			if !inOnlyA[c] && !inB[c] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

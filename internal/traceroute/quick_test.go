package traceroute

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// arbitraryTrace builds a structurally valid traceroute from fuzz inputs.
func arbitraryTrace(src, dst uint32, hopSeed []byte) *Traceroute {
	if src == 0 {
		src = 1
	}
	if dst == 0 {
		dst = 2
	}
	tr := &Traceroute{Src: src, Dst: dst, Time: 42, ProbeID: 7}
	for i, b := range hopSeed {
		if i >= 24 {
			break
		}
		h := Hop{TTL: i + 1}
		if b != 0 { // 0 byte → unresponsive hop
			h.IP = uint32(b) << 16
			h.RTT = float64(b) / 7
		}
		tr.Hops = append(tr.Hops, h)
	}
	if n := len(tr.Hops); n > 0 && tr.Hops[n-1].IP == dst {
		tr.Reached = true
	}
	return tr
}

// Property: JSON round trip preserves every field for arbitrary traces.
func TestQuickJSONRoundTrip(t *testing.T) {
	f := func(src, dst uint32, hopSeed []byte) bool {
		in := arbitraryTrace(src, dst, hopSeed)
		data, err := json.Marshal(in)
		if err != nil {
			return false
		}
		out := &Traceroute{}
		if err := json.Unmarshal(data, out); err != nil {
			return false
		}
		// Reached is recomputed on decode; align before comparing, and
		// normalize nil vs empty hop slices (Clone always allocates).
		in2 := in.Clone()
		in2.Reached = out.Reached
		if len(in2.Hops) == 0 {
			in2.Hops = nil
		}
		if len(out.Hops) == 0 {
			out.Hops = nil
		}
		return reflect.DeepEqual(in2, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: text round trip preserves the hop IP sequence.
func TestQuickTextRoundTrip(t *testing.T) {
	f := func(src, dst uint32, hopSeed []byte) bool {
		in := arbitraryTrace(src, dst, hopSeed)
		out, err := ParseText(FormatText(in))
		if err != nil {
			return false
		}
		a, b := in.IPPath(), out.IPPath()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return out.Src == in.Src && out.Dst == in.Dst && out.Time == in.Time
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: patching only fills holes and never alters responsive hops.
func TestQuickPatcherOnlyFillsHoles(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := NewPatcher()
	mk := func() *Traceroute {
		tr := &Traceroute{Src: 1, Dst: 99}
		for i := 0; i < 8; i++ {
			h := Hop{TTL: i + 1}
			if rng.Intn(5) != 0 {
				h.IP = uint32(rng.Intn(6) + 1)
			}
			tr.Hops = append(tr.Hops, h)
		}
		return tr
	}
	for i := 0; i < 200; i++ {
		p.Observe(mk())
	}
	for i := 0; i < 200; i++ {
		tr := mk()
		before := tr.IPPath()
		p.Patch(tr)
		after := tr.IPPath()
		for k := range before {
			if before[k] != 0 && after[k] != before[k] {
				t.Fatalf("patch altered responsive hop %d: %v -> %v", k, before, after)
			}
		}
	}
}

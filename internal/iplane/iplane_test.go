package iplane

import (
	"testing"

	"rrr/internal/traceroute"
)

func k(src, dst uint32) traceroute.Key { return traceroute.Key{Src: src, Dst: dst} }

func TestPredictBasicSplice(t *testing.T) {
	s := New()
	// src 1 → dst 100 via PoP 7 (left), src 2 → dst 200 via PoP 7 (right).
	s.Add(k(1, 100), []PoP{10, 7, 100})
	s.Add(k(2, 200), []PoP{20, 7, 200})
	sp, ok := s.Predict(1, 200)
	if !ok {
		t.Fatal("no splice found")
	}
	if sp.Left != k(1, 100) || sp.Right != k(2, 200) || sp.Via != 7 {
		t.Fatalf("splice = %+v", sp)
	}
}

func TestPredictNoIntersection(t *testing.T) {
	s := New()
	s.Add(k(1, 100), []PoP{10, 11, 100})
	s.Add(k(2, 200), []PoP{20, 21, 200})
	if _, ok := s.Predict(1, 200); ok {
		t.Fatal("splice without intersection")
	}
	if _, ok := s.Predict(9, 200); ok {
		t.Fatal("splice from unknown source")
	}
}

func TestPredictPrefersLaterIntersection(t *testing.T) {
	s := New()
	s.Add(k(1, 100), []PoP{10, 7, 8, 100})
	s.Add(k(2, 200), []PoP{7, 200})
	s.Add(k(3, 200), []PoP{8, 200})
	sp, ok := s.Predict(1, 200)
	if !ok || sp.Via != 8 {
		t.Fatalf("splice = %+v; want via PoP 8 (closest to destination)", sp)
	}
}

func TestPruneExcludesAndUnpruneRestores(t *testing.T) {
	s := New()
	s.Add(k(1, 100), []PoP{10, 7, 100})
	s.Add(k(2, 200), []PoP{20, 7, 200})
	s.Prune(k(1, 100))
	if _, ok := s.Predict(1, 200); ok {
		t.Fatal("pruned left path used in splice")
	}
	if len(s.pruned) != 1 {
		t.Fatalf("pruned = %d", len(s.pruned))
	}
	s.Unprune(k(1, 100))
	if _, ok := s.Predict(1, 200); !ok {
		t.Fatal("unpruned path not restored")
	}
}

func TestAddReplaces(t *testing.T) {
	s := New()
	s.Add(k(1, 100), []PoP{10, 7, 100})
	s.Add(k(1, 100), []PoP{10, 9, 100}) // rerouted: no longer via 7
	s.Add(k(2, 200), []PoP{20, 7, 200})
	if _, ok := s.Predict(1, 200); ok {
		t.Fatal("stale index entry used after replacement")
	}
	s.Add(k(3, 300), []PoP{9, 300})
	if sp, ok := s.Predict(1, 300); !ok || sp.Via != 9 {
		t.Fatalf("replacement path not indexed: %+v, %v", sp, ok)
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestSpliceValidAgainstCurrentPaths(t *testing.T) {
	sp := Splice{Left: k(1, 100), Right: k(2, 200), Via: 7}
	current := map[traceroute.Key][]PoP{
		k(1, 100): {10, 7, 100},
		k(2, 200): {20, 7, 200},
	}
	if !sp.Valid(current) {
		t.Fatal("intact splice reported invalid")
	}
	current[k(1, 100)] = []PoP{10, 9, 100} // left path moved off PoP 7
	if sp.Valid(current) {
		t.Fatal("broken splice reported valid")
	}
}

func TestKeysDeterministic(t *testing.T) {
	s := New()
	s.Add(k(2, 5), []PoP{1})
	s.Add(k(1, 9), []PoP{2})
	s.Add(k(1, 5), []PoP{3})
	keys := s.Keys()
	want := []traceroute.Key{k(1, 5), k(1, 9), k(2, 5)}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v", keys)
		}
	}
}

func TestRemoveCleansIndexes(t *testing.T) {
	s := New()
	s.Add(k(1, 100), []PoP{10, 7, 100})
	s.Add(k(2, 200), []PoP{20, 7, 200})
	s.Prune(k(1, 100))
	// Replacing via Add clears prune state and old index entries.
	s.Add(k(1, 100), []PoP{10, 8, 100})
	if len(s.pruned) != 0 {
		t.Fatal("Add did not clear prune state")
	}
	if _, ok := s.Predict(1, 200); ok {
		t.Fatal("stale PoP index survived replacement")
	}
	s.Add(k(3, 300), []PoP{8, 300})
	if sp, ok := s.Predict(1, 300); !ok || sp.Via != 8 {
		t.Fatalf("replacement not predictable: %+v %v", sp, ok)
	}
}

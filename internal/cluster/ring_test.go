package cluster

import (
	"testing"

	"rrr"
)

// primaryPartitions counts the partitions whose primary is worker w.
func primaryPartitions(r *Ring, w int) int {
	n := 0
	for p := 0; p < r.Partitions(); p++ {
		if r.ownerOfPartition(p) == w {
			n++
		}
	}
	return n
}

func TestRingDeterministicAndComplete(t *testing.T) {
	a, err := NewRing(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewRing(3, 0)
	if a.Partitions() != DefaultPartitions {
		t.Fatalf("partitions = %d, want default %d", a.Partitions(), DefaultPartitions)
	}
	total := 0
	for w := 0; w < 3; w++ {
		if a.OwnedPartitions(w) == 0 {
			t.Fatalf("worker %d owns no partitions; vnode spread failed", w)
		}
		if got := primaryPartitions(a, w); got != a.OwnedPartitions(w) {
			t.Fatalf("worker %d is primary of %d partitions, OwnedPartitions says %d", w, got, a.OwnedPartitions(w))
		}
		total += a.OwnedPartitions(w)
	}
	if total != a.Partitions() {
		t.Fatalf("owned partitions sum to %d, want %d", total, a.Partitions())
	}
	for p := 0; p < a.Partitions(); p++ {
		if a.ownerOfPartition(p) != b.ownerOfPartition(p) {
			t.Fatalf("partition %d placement differs between identical rings", p)
		}
	}
	for i := 0; i < 1000; i++ {
		k := rrr.Key{Src: uint32(i * 2654435761), Dst: uint32(i*40503 + 7)}
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("key %v routed differently by identical rings", k)
		}
		if a.Owner(k) != a.ownerOfPartition(a.partitionOf(k)) {
			t.Fatal("Owner disagrees with partitionOf composition")
		}
	}
}

// TestRingPartitionStability pins the rebalance property consistent
// hashing buys: adding a worker moves only partitions the new worker
// takes over — no partition shuffles between surviving workers.
func TestRingPartitionStability(t *testing.T) {
	small, _ := NewRing(3, 128)
	big, _ := NewRing(4, 128)
	moved := 0
	for p := 0; p < 128; p++ {
		was, now := small.ownerOfPartition(p), big.ownerOfPartition(p)
		if was == now {
			continue
		}
		if now != 3 {
			t.Fatalf("partition %d moved from worker %d to surviving worker %d; only the new worker may gain", p, was, now)
		}
		moved++
	}
	if moved == 0 {
		t.Fatal("new worker took nothing; ring is not spreading")
	}
}

func TestRingSingleWorkerOwnsAll(t *testing.T) {
	r, _ := NewRing(1, 0)
	for i := 0; i < 100; i++ {
		if w := r.Owner(rrr.Key{Src: uint32(i), Dst: uint32(i + 1)}); w != 0 {
			t.Fatalf("single-worker ring routed to %d", w)
		}
	}
	if _, err := NewRing(0, 0); err == nil {
		t.Fatal("zero workers must be rejected")
	}
}

// TestRingStandbyPlacement pins the replication geometry: every partition
// has a standby distinct from its primary (K >= 2), placement is
// deterministic, and Replicas/IsReplica agree with the primary+standby
// pair.
func TestRingStandbyPlacement(t *testing.T) {
	a, err := NewRing(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewRing(3, 0)
	if rf := a.ReplicaFactor(); rf != 2 {
		t.Fatalf("ReplicaFactor() = %d, want 2 for 3 workers", rf)
	}
	for p := 0; p < a.Partitions(); p++ {
		pri, sb := a.ownerOfPartition(p), a.standby[p]
		if sb == pri {
			t.Fatalf("partition %d standby == primary %d; replication buys nothing", p, pri)
		}
		if sb < 0 || sb >= 3 {
			t.Fatalf("partition %d standby %d out of range", p, sb)
		}
		if b.standby[p] != sb {
			t.Fatalf("partition %d standby differs between identical rings", p)
		}
		reps := a.Replicas(p)
		if len(reps) != 2 || reps[0] != pri || reps[1] != sb {
			t.Fatalf("Replicas(%d) = %v, want [%d %d]", p, reps, pri, sb)
		}
	}
	// The router asks once per key of every batch.
	if n := testing.AllocsPerRun(100, func() { a.Replicas(7) }); n != 0 {
		t.Fatalf("Replicas allocates %v times per call", n)
	}
	for i := 0; i < 1000; i++ {
		k := rrr.Key{Src: uint32(i * 2654435761), Dst: uint32(i*40503 + 7)}
		p := a.partitionOf(k)
		for w := 0; w < 3; w++ {
			want := w == a.ownerOfPartition(p) || w == a.standby[p]
			if got := a.IsReplica(k, w); got != want {
				t.Fatalf("IsReplica(%v, %d) = %v, want %v", k, w, got, want)
			}
		}
	}
}

// TestRingStandbyCoverage checks the bookkeeping views: StandbyPartitions
// lists exactly the partitions a worker backs up, every partition appears
// in exactly one worker's standby list, and ReplicaPartitions is the union
// of owned and standby slices.
func TestRingStandbyCoverage(t *testing.T) {
	r, _ := NewRing(4, 128)
	seen := make(map[int]int)
	for w := 0; w < 4; w++ {
		for _, p := range r.StandbyPartitions(w) {
			if r.standby[p] != w {
				t.Fatalf("worker %d lists partition %d but its standby is %d", w, p, r.standby[p])
			}
			seen[p]++
		}
		owned := primaryPartitions(r, w)
		standby := len(r.StandbyPartitions(w))
		if got := r.ReplicaPartitions(w); got != owned+standby {
			t.Fatalf("worker %d ReplicaPartitions = %d, want owned %d + standby %d", w, got, owned, standby)
		}
	}
	if len(seen) != 128 {
		t.Fatalf("standby lists cover %d of 128 partitions", len(seen))
	}
	for p, n := range seen {
		if n != 1 {
			t.Fatalf("partition %d appears in %d standby lists", p, n)
		}
	}
}

// TestRingSingleWorkerNoReplication: with one worker there is nowhere to
// replicate — standby collapses to the primary and RF stays 1, so the
// single-node path is untouched by replication.
func TestRingSingleWorkerNoReplication(t *testing.T) {
	r, _ := NewRing(1, 0)
	if rf := r.ReplicaFactor(); rf != 1 {
		t.Fatalf("ReplicaFactor() = %d, want 1 for a single worker", rf)
	}
	for p := 0; p < r.Partitions(); p++ {
		if sb := r.standby[p]; sb != 0 {
			t.Fatalf("partition %d standby %d, want 0", p, sb)
		}
		if reps := r.Replicas(p); len(reps) != 1 || reps[0] != 0 {
			t.Fatalf("Replicas(%d) = %v, want [0]", p, reps)
		}
	}
	if n := len(r.StandbyPartitions(0)); n != 0 {
		t.Fatalf("single worker lists %d standby partitions, want 0", n)
	}
}

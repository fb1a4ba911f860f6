// Package cluster partitions a traceroute corpus across rrrd workers and
// merges their responses back into one coherent API.
//
// Topology: the key space is first folded onto a fixed set of partitions
// (hash(key) mod P), and partitions are placed on workers with a
// consistent-hash ring of virtual nodes. Queries route by key hash; a
// stateless router (see Router) fans batches out to partition owners,
// splices their pre-rendered verdict JSON into one response, merges
// /v1/keys and /v1/stats, and multiplexes the workers' SSE signal streams
// into one totally-ordered stream.
//
// Workers ingest the full BGP and traceroute feeds but Track only the
// corpus pairs their ring slice owns: shared series (subpath registrations,
// border series) are established at Track time, so per-pair signals come
// out identical to a single daemon tracking everything — the property the
// differential tests pin down.
package cluster

import (
	"fmt"
	"sort"

	"rrr"
	"rrr/internal/server"
)

// Defaults for ring geometry. Partition count bounds rebalance granularity
// (a worker joining or leaving moves whole partitions); vnode count
// smooths the per-worker partition spread.
const (
	DefaultPartitions = 64
	vnodesPerWorker   = 64
)

// fnv64 is FNV-1a, the same family the engine uses for content-derived
// monitor IDs, finished with a murmur3-style avalanche: raw FNV of short
// sequential names ("worker-0/vnode-1", "worker-0/vnode-2", ...) differs
// mostly in low bits, which clusters the circle badly enough that a
// 3-worker ring can leave a worker with zero partitions.
func fnv64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

type vnode struct {
	hash   uint64
	worker int
}

// Ring is an immutable placement of P partitions onto K workers. Both the
// router and every worker build the same Ring from (workers, partitions),
// so ownership is agreed upon without coordination.
//
// Replication: with K >= 2 every partition is placed on two distinct
// workers — the primary (the partition point's successor vnode) and a
// standby (the next distinct worker clockwise on the vnode circle). Every
// worker ingests the full feed, so a standby's monitor is a deterministic
// replica of the primary's over the shared slice and its verdicts are
// byte-identical by construction; the router fails partitions over to the
// standby when the primary's circuit breaker opens. A single-worker ring
// has no distinct standby (RF collapses to 1).
type Ring struct {
	workers    int
	partitions int
	owner      []int   // partition -> primary worker
	standby    []int   // partition -> standby worker (== owner when K == 1)
	reps       [][]int // partition -> its distinct replicas, primary first
	owned      []int   // worker -> primary partition count
	replicas   []int   // worker -> primary+standby partition count
}

// NewRing places `partitions` partitions onto `workers` workers
// (partitions <= 0 selects DefaultPartitions).
func NewRing(workers, partitions int) (*Ring, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("cluster: ring needs at least 1 worker, got %d", workers)
	}
	if partitions <= 0 {
		partitions = DefaultPartitions
	}
	vnodes := make([]vnode, 0, workers*vnodesPerWorker)
	for w := 0; w < workers; w++ {
		for v := 0; v < vnodesPerWorker; v++ {
			vnodes = append(vnodes, vnode{
				hash:   fnv64(fmt.Sprintf("worker-%d/vnode-%d", w, v)),
				worker: w,
			})
		}
	}
	sort.Slice(vnodes, func(i, j int) bool {
		if vnodes[i].hash != vnodes[j].hash {
			return vnodes[i].hash < vnodes[j].hash
		}
		// Hash ties (vanishingly rare) break by worker index so every
		// builder of the same ring agrees.
		return vnodes[i].worker < vnodes[j].worker
	})
	r := &Ring{
		workers:    workers,
		partitions: partitions,
		owner:      make([]int, partitions),
		standby:    make([]int, partitions),
		reps:       make([][]int, partitions),
		owned:      make([]int, workers),
		replicas:   make([]int, workers),
	}
	for p := 0; p < partitions; p++ {
		h := fnv64(fmt.Sprintf("partition-%d", p))
		// Successor vnode clockwise from the partition's point.
		i := sort.Search(len(vnodes), func(i int) bool { return vnodes[i].hash >= h })
		if i == len(vnodes) {
			i = 0
		}
		w := vnodes[i].worker
		r.owner[p] = w
		r.owned[w]++
		r.replicas[w]++
		// Standby: keep walking clockwise to the first vnode held by a
		// different worker. With one worker there is none; the standby
		// degenerates to the primary and RF to 1.
		s := w
		for j := 1; j < len(vnodes); j++ {
			cand := vnodes[(i+j)%len(vnodes)].worker
			if cand != w {
				s = cand
				break
			}
		}
		r.standby[p] = s
		r.reps[p] = []int{w}
		if s != w {
			r.replicas[s]++
			r.reps[p] = []int{w, s}
		}
	}
	return r, nil
}

// Workers reports K.
func (r *Ring) Workers() int { return r.workers }

// Partitions reports P.
func (r *Ring) Partitions() int { return r.partitions }

// partitionOf folds a pair onto its partition. The fold ignores ring
// geometry, so a key's partition survives worker joins and leaves.
func (r *Ring) partitionOf(k rrr.Key) int {
	var b [8]byte
	b[0] = byte(k.Src >> 24)
	b[1] = byte(k.Src >> 16)
	b[2] = byte(k.Src >> 8)
	b[3] = byte(k.Src)
	b[4] = byte(k.Dst >> 24)
	b[5] = byte(k.Dst >> 16)
	b[6] = byte(k.Dst >> 8)
	b[7] = byte(k.Dst)
	return int(fnv64(string(b[:])) % uint64(r.partitions))
}

// Owner maps a pair to its primary worker.
func (r *Ring) Owner(k rrr.Key) int { return r.owner[r.partitionOf(k)] }

// ownerOfPartition maps a partition to its primary worker.
func (r *Ring) ownerOfPartition(p int) int { return r.owner[p] }

// Replicas lists the distinct workers tracking partition p, primary first.
// The slice is the ring's own, shared by every caller: read it, never
// write to it.
func (r *Ring) Replicas(p int) []int { return r.reps[p] }

// IsReplica reports whether worker w tracks pair k (as primary or standby).
func (r *Ring) IsReplica(k rrr.Key, w int) bool {
	p := r.partitionOf(k)
	return r.owner[p] == w || r.standby[p] == w
}

// ReplicaFactor reports how many distinct workers track each partition:
// 2 for any multi-worker ring, 1 for a single worker.
func (r *Ring) ReplicaFactor() int {
	if r.workers >= 2 {
		return 2
	}
	return 1
}

// Worker is what makes a daemon worker w of this ring: the corpus filter
// (every pair w replicates, as primary or standby) and the identity its
// /v1/stats reports, RF included so the router can de-duplicate sums.
func (r *Ring) Worker(w int) (keep func(rrr.Key) bool, id *server.WorkerIdentity) {
	return func(k rrr.Key) bool { return r.IsReplica(k, w) },
		&server.WorkerIdentity{ID: w, Workers: r.workers, Partitions: r.owned[w], RF: r.ReplicaFactor()}
}

// OwnedPartitions reports how many partitions worker w owns as primary.
func (r *Ring) OwnedPartitions(w int) int { return r.owned[w] }

// ReplicaPartitions reports how many partitions worker w tracks in total
// (primary plus standby).
func (r *Ring) ReplicaPartitions(w int) int { return r.replicas[w] }

// StandbyPartitions lists the partitions worker w covers as standby,
// ascending. Empty on a single-worker ring.
func (r *Ring) StandbyPartitions(w int) []int {
	var out []int
	for p, s := range r.standby {
		if s == w && r.owner[p] != w {
			out = append(out, p)
		}
	}
	return out
}

package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"sync"

	"rrr"
	"rrr/internal/server"
)

// The batch path: POST /v1/stale split into framed sub-batches
// (server.StaleFrameType) for the fewest live replicas that hold every key,
// and spliced back in request order.

// hop is one sub-batch's working memory, pooled across requests: the
// request positions a worker is asked for, their keys framed, and the framed
// answer — read once — that the response's verdicts are spliced from.
type hop struct {
	idxs      []int
	req, resp []byte
	slab      server.StaleSlab
}

var hopPool = sync.Pool{New: func() any { return new(hop) }}

// subBatch asks worker for the verdicts of the keys dest assigns it, over
// the framed form of POST /v1/stale (server.StaleFrameType). A frame that
// does not decode, or answers a different number of keys, fails the attempt
// like a transport error: retried once, then reported so the caller asks the
// keys' other replicas. The hop is the caller's to put back either way.
func (rt *Router) subBatch(ctx context.Context, worker int, keys []rrr.Key, dest []int) (*hop, error) {
	h := hopPool.Get().(*hop)
	h.idxs = h.idxs[:0]
	for i, d := range dest {
		if d == worker {
			h.idxs = append(h.idxs, i)
		}
	}
	h.req = server.AppendStaleRequest(h.req[:0], len(h.idxs), func(j int) rrr.Key { return keys[h.idxs[j]] })
	wr, err := rt.send(ctx, http.MethodPost, worker, "/v1/stale", server.StaleFrameType, h.req, func(resp *http.Response) (_ []byte, err error) {
		h.resp, err = server.ReadStaleFrame(h.resp, resp.Body, resp.ContentLength)
		if err == nil && resp.StatusCode == http.StatusOK {
			if h.slab, err = server.DecodeStaleResponse(h.resp); err == nil && h.slab.Len() != len(h.idxs) {
				err = fmt.Errorf("%d verdicts for %d keys", h.slab.Len(), len(h.idxs))
			}
		}
		return h.resp, err
	})
	if err == nil && wr.status != http.StatusOK {
		err = fmt.Errorf("worker %d: status %d", worker, wr.status)
	}
	return h, err
}

func (rt *Router) handleStaleBatch(w http.ResponseWriter, r *http.Request) {
	batch, ok := server.DecodeStaleBatch(w, r)
	if !ok {
		return
	}
	defer batch.Release()
	keys := batch.Keys
	// One breaker reading per worker per request, not one per key. A worker
	// that fails this request stops being live for it.
	live := make([]bool, len(rt.all))
	for worker := range live {
		live[worker] = rt.workerUp(worker)
	}
	// parts[i] is key i's partition; dest[i] the worker to ask for it,
	// negative when none is to be asked this round.
	parts := make([]int, len(keys))
	dest := make([]int, len(keys))
	todo := make([]int, len(keys))
	for i, k := range keys {
		parts[i] = rt.ring.partitionOf(k)
		todo[i] = i
	}
	// A key no live worker holds is asked of its primary all the same, and
	// lost with that worker's error if it fails.
	for _, i := range rt.cover(todo, parts, dest, live) {
		dest[i] = rt.ring.ownerOfPartition(parts[i])
	}
	verdicts := make([][]byte, len(keys))
	stale := 0
	var workerErrs map[int]string // failed workers, either round
	var lost []int                // request indices with no live replica left to try
	var hops []*hop               // verdicts alias their answer frames until written
	defer func() {
		for _, h := range hops {
			hopPool.Put(h)
		}
	}()
	for round := 0; ; round++ {
		var workers []int
		for _, worker := range rt.all {
			if slices.Contains(dest, worker) {
				workers = append(workers, worker)
			}
		}
		answers, errs := scatter(workers, func(worker int) (*hop, error) {
			return rt.subBatch(r.Context(), worker, keys, dest)
		})
		hops = append(hops, answers...)
		failed := false
		for n, h := range answers {
			if errs[n] != nil {
				if workerErrs == nil {
					workerErrs = map[int]string{}
				}
				workerErrs[workers[n]] = errs[n].Error()
				live[workers[n]] = false
				failed = true
				continue
			}
			for j, i := range h.idxs {
				verdicts[i] = h.slab.Verdict(j)
			}
			stale += h.slab.Stale
		}
		if !failed {
			break
		}
		// The keys whose worker failed are covered again by the workers
		// still live; a standby's verdicts are byte-identical to the
		// primary's (same full feed, same tracked slice), so a failover is
		// invisible in the response. A key with no live replica left to ask
		// is lost, as is every key of a worker that fails the second round.
		todo = todo[:0]
		for i, worker := range dest {
			dest[i] = -1
			if _, gone := workerErrs[worker]; gone {
				todo = append(todo, i)
			}
		}
		if round == 1 {
			lost = append(lost, todo...)
			break
		}
		left := rt.cover(todo, parts, dest, live)
		lost = append(lost, left...)
		if len(left) == len(todo) {
			break
		}
		metRouterFailovers.Add(uint64(len(todo) - len(left)))
	}
	var extra []byte
	if len(lost) > 0 {
		metRouterPartial.Inc()
		extra = rt.lostVerdicts(lost, batch, verdicts, workerErrs)
	}
	batch.WriteVerdicts(w, stale, len(verdicts), func(i int) []byte { return verdicts[i] }, extra)
}

// cover assigns the keys at request indices todo to as few live workers as
// it can, writing each one's worker to dest. Until every key is assigned it
// takes the live worker that holds the most of the keys left; on a tie, the
// one designated for more of them (see designated); on a further tie, the
// lower ID. With RF=2 that is one worker at K=2 and two at K=3. It returns
// the keys no live worker holds, as a prefix of todo, whose order it does
// not keep.
func (rt *Router) cover(todo, parts, dest []int, live []bool) []int {
	k := len(rt.all)
	held := make([]int, 2*k) // per worker: keys held, then keys designated
	for {
		clear(held)
		for _, i := range todo {
			reps := rt.ring.Replicas(parts[i])
			for _, worker := range reps {
				if live[worker] {
					held[worker]++
				}
			}
			if d := designated(reps, live); live[d] {
				held[k+d]++
			}
		}
		best := -1
		for worker := range k {
			if held[worker] > 0 && (best < 0 || held[worker] > held[best] ||
				held[worker] == held[best] && held[k+worker] > held[k+best]) {
				best = worker
			}
		}
		if best < 0 {
			return todo
		}
		n := 0
		for _, i := range todo {
			if slices.Contains(rt.ring.Replicas(parts[i]), best) {
				dest[i] = best
			} else {
				todo[n] = i
				n++
			}
		}
		todo = todo[:n]
	}
}

// designated is the replica a partition's keys are meant for: its primary,
// or its standby while the primary is not live (its breaker is open, or it
// failed this request) and the standby is.
func designated(reps []int, live []bool) int {
	if len(reps) == 2 && !live[reps[0]] && live[reps[1]] {
		return reps[1]
	}
	return reps[0]
}

// lostVerdicts fills the verdicts no live replica could answer with
// positional placeholders, keeping count == len(keys) and the response order
// aligned with the request; visibility "unavailable" is the partition-down
// analogue of "untracked". It returns the degradation members that precede
// the verdicts: the partitions lost, ascending, and each failed worker's
// error, keyed by worker ID in ascending numeric order. A lost key's text
// becomes a string here, and only here.
func (rt *Router) lostVerdicts(lost []int, batch *server.StaleBatch, verdicts [][]byte, workerErrs map[int]string) []byte {
	unavailSet := map[int]bool{}
	for _, i := range lost {
		unavailSet[rt.ring.partitionOf(batch.Keys[i])] = true
		verdicts[i], _ = json.Marshal(server.Verdict{Key: batch.Name(i), Visibility: "unavailable"})
	}
	unavailParts := make([]int, 0, len(unavailSet))
	for p := range unavailSet {
		unavailParts = append(unavailParts, p)
	}
	sort.Ints(unavailParts)
	workers := make([]int, 0, len(workerErrs))
	for worker := range workerErrs {
		workers = append(workers, worker)
	}
	sort.Ints(workers)

	enc, _ := json.Marshal(unavailParts)
	extra := append([]byte(`,"unavailablePartitions":`), enc...)
	extra = append(extra, `,"workerErrors":{`...)
	for j, worker := range workers {
		if j > 0 {
			extra = append(extra, ',')
		}
		enc, _ := json.Marshal(workerErrs[worker])
		extra = fmt.Appendf(extra, `"%d":%s`, worker, enc)
	}
	return append(extra, '}')
}

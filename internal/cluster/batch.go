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

// The batch path: POST /v1/stale split by owner into framed sub-batches
// (server.StaleFrameType) and spliced back in request order.

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
// like a transport error: retried once, then reported so the caller moves
// the keys to their standby. The hop is the caller's to put back either way.
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
	names, keys, ok := server.DecodeStaleBatch(w, r)
	if !ok {
		return
	}
	// One breaker reading per worker per request, not one per key.
	up := make([]bool, len(rt.all))
	for worker := range up {
		up[worker] = rt.workerUp(worker)
	}
	// dest[i] is the worker to ask for key i, negative once there is none.
	// Each key first routes to its partition's designated replica: the
	// primary, unless the primary's breaker is open and the standby's isn't.
	dest := make([]int, len(keys))
	for i, k := range keys {
		reps := rt.ring.Replicas(rt.ring.PartitionOf(k))
		dest[i] = reps[0]
		if len(reps) == 2 && !up[reps[0]] && up[reps[1]] {
			dest[i] = reps[1]
		}
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
		for n, h := range answers {
			if errs[n] != nil {
				if workerErrs == nil {
					workerErrs = map[int]string{}
				}
				workerErrs[workers[n]] = errs[n].Error()
				continue
			}
			for j, i := range h.idxs {
				verdicts[i] = h.slab.Verdict(j)
			}
			stale += h.slab.Stale
		}
		if len(workerErrs) == 0 {
			break
		}
		// Keys whose round-one worker failed are regrouped onto their
		// alternate replica for a second round; a standby's verdicts are
		// byte-identical to the primary's (same full feed, same tracked
		// slice), so a failover is invisible in the response. A key whose
		// worker failed with no replica left to ask is lost.
		moved := 0
		for i, worker := range dest {
			dest[i] = -1
			if _, failed := workerErrs[worker]; !failed {
				continue
			}
			for _, cand := range rt.ring.Replicas(rt.ring.PartitionOf(keys[i])) {
				if _, failed := workerErrs[cand]; round == 0 && !failed && up[cand] {
					dest[i] = cand
					moved++
					break
				}
			}
			if dest[i] < 0 {
				lost = append(lost, i)
			}
		}
		if moved == 0 {
			break
		}
		metRouterFailovers.Add(uint64(moved))
	}
	var extra []byte
	if len(lost) > 0 {
		metRouterPartial.Inc()
		extra = rt.lostVerdicts(lost, names, keys, verdicts, workerErrs)
	}
	server.WriteStaleBatch(w, stale, len(verdicts), func(i int) []byte { return verdicts[i] }, extra)
}

// lostVerdicts fills the verdicts no live replica could answer with
// positional placeholders, keeping count == len(keys) and the response order
// aligned with the request; visibility "unavailable" is the partition-down
// analogue of "untracked". It returns the degradation members that precede
// the verdicts: the partitions lost, ascending, and each failed worker's
// error, keyed by worker ID in ascending numeric order.
func (rt *Router) lostVerdicts(lost []int, names []string, keys []rrr.Key, verdicts [][]byte, workerErrs map[int]string) []byte {
	unavailSet := map[int]bool{}
	for _, i := range lost {
		unavailSet[rt.ring.PartitionOf(keys[i])] = true
		verdicts[i], _ = json.Marshal(server.Verdict{Key: names[i], Visibility: "unavailable"})
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

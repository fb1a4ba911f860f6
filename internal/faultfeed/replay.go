package faultfeed

import (
	"fmt"
	"sort"
	"sync"

	"rrr/internal/bgp"
)

// ReplayConfig describes how a replayable feed misbehaves across
// incarnations. A replayable feed models an upstream archive or broker
// that supports resuming from a timestamp: each Open(since) returns a
// fresh source over the records at or after since.
type ReplayConfig struct {
	// FailOpens makes each of the first FailOpens opened sources return
	// a transient error after every FailAfter delivered records. Opens
	// beyond FailOpens are clean, so a consumer with a retry budget >
	// FailOpens recovers.
	FailOpens int
	FailAfter int

	// OpenErrs makes the first OpenErrs Open calls themselves fail with
	// a transient error before any source is built.
	OpenErrs int
}

// ReplayableUpdates is a restartable BGP feed over a fixed, time-sorted
// update slice. It is safe for concurrent Open calls (the pipeline opens
// from its merge goroutine, tests from others).
type ReplayableUpdates struct {
	mu    sync.Mutex
	base  []bgp.Update
	cfg   ReplayConfig
	opens int
}

// NewReplayableUpdates builds a replayable feed; updates must be sorted by
// Time (the constructor does not sort, preserving intra-timestamp order).
func NewReplayableUpdates(updates []bgp.Update, cfg ReplayConfig) *ReplayableUpdates {
	return &ReplayableUpdates{base: updates, cfg: cfg}
}

// Opens reports how many times Open has been called (including failed
// opens).
func (f *ReplayableUpdates) Opens() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.opens
}

// Open returns a source over the records with Time >= since, breaking per
// the replay config. The pipeline's supervisor calls it with the open
// window's start time to resume after a transient failure.
func (f *ReplayableUpdates) Open(since int64) (bgp.UpdateSource, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.opens++
	if f.opens <= f.cfg.OpenErrs {
		return nil, Transient(fmt.Errorf("%w: open refused (attempt %d)", ErrInjected, f.opens))
	}
	lo := sort.Search(len(f.base), func(i int) bool { return f.base[i].Time >= since })
	var cfg Config
	if f.opens <= f.cfg.OpenErrs+f.cfg.FailOpens {
		cfg.ErrEvery = f.cfg.FailAfter
	}
	return Updates(bgp.NewSliceSource(f.base[lo:]), cfg), nil
}

package rrr

import (
	"sort"
	"sync"
)

// FeedStatus is one feed's lifecycle state as seen by the pipeline
// supervisor.
type FeedStatus string

// Feed lifecycle states.
const (
	// FeedIdle: the feed was configured but the pipeline has not started
	// consuming it.
	FeedIdle FeedStatus = "idle"
	// FeedRunning: records are flowing.
	FeedRunning FeedStatus = "running"
	// FeedRetrying: the feed hit a transient error and the supervisor is
	// backing off before the next attempt.
	FeedRetrying FeedStatus = "retrying"
	// FeedEOF: the feed ended cleanly.
	FeedEOF FeedStatus = "eof"
	// FeedDead: the feed exhausted its retry budget (or failed with a
	// permanent error) and was abandoned.
	FeedDead FeedStatus = "dead"
)

// FeedHealth is a point-in-time snapshot of one feed's supervisor state,
// served by rrrd under /v1/stats so operators can see a degraded feed
// without scraping /metrics.
type FeedHealth struct {
	Feed     string     `json:"feed"`
	Status   FeedStatus `json:"status"`
	Retries  uint64     `json:"retries"`
	Absorbed uint64     `json:"faultsAbsorbed"`
	Replayed uint64     `json:"replayedRecords"`
	Diverged uint64     `json:"replayDivergences"`
	// ResumedFrom is the window-start timestamp of the most recent
	// window-aligned resume, meaningful when Retries > 0.
	ResumedFrom int64  `json:"resumedFrom,omitempty"`
	LastError   string `json:"lastError,omitempty"`
}

// PipelineHealth aggregates per-feed supervisor state. All methods are
// safe for concurrent use (reader goroutines report a feed's end while the
// serving layer snapshots). The zero value is not usable; call NewPipelineHealth.
// A nil *PipelineHealth is a valid no-op sink.
type PipelineHealth struct {
	mu    sync.Mutex
	feeds map[string]*FeedHealth
}

// NewPipelineHealth returns an empty health registry.
func NewPipelineHealth() *PipelineHealth {
	return &PipelineHealth{feeds: make(map[string]*FeedHealth)}
}

// Snapshot returns a copy of every feed's state, sorted by feed name.
func (h *PipelineHealth) Snapshot() []FeedHealth {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]FeedHealth, 0, len(h.feeds))
	for _, f := range h.feeds {
		out = append(out, *f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Feed < out[j].Feed })
	return out
}

func (h *PipelineHealth) get(feed string) *FeedHealth {
	f, ok := h.feeds[feed]
	if !ok {
		f = &FeedHealth{Feed: feed, Status: FeedIdle}
		h.feeds[feed] = f
	}
	return f
}

func (h *PipelineHealth) setStatus(feed string, s FeedStatus, err error) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	f := h.get(feed)
	f.Status = s
	if err != nil {
		f.LastError = err.Error()
	}
}

func (h *PipelineHealth) noteRetry(feed string, err error) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	f := h.get(feed)
	f.Status = FeedRetrying
	f.Retries++
	if err != nil {
		f.LastError = err.Error()
	}
}

func (h *PipelineHealth) noteResume(feed string, from int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	f := h.get(feed)
	f.Status = FeedRunning
	f.ResumedFrom = from
}

func (h *PipelineHealth) noteReplayed(feed string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.get(feed).Replayed++
}

func (h *PipelineHealth) noteAbsorbed(feed string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.get(feed).Absorbed++
}

func (h *PipelineHealth) noteDiverged(feed string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.get(feed).Diverged++
}

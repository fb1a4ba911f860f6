package server

import (
	"encoding/json"
	"sync"

	"rrr"
	"rrr/internal/obs"
)

// cachedVerdict is a fully-rendered staleness answer: the wire JSON plus
// the one field handlers still need (the batch endpoint's stale count).
// Caching rendered bytes rather than Verdict structs means a hit skips
// not just the monitor's lock but the per-request JSON encoding — on the
// batch endpoint the response body is assembled from RawMessages.
type cachedVerdict struct {
	Stale bool
	JSON  json.RawMessage
}

// defaultCacheCap bounds the verdict cache so a scan over millions of
// untracked keys cannot balloon resident memory; at the cap, new verdicts
// are served but not retained.
const defaultCacheCap = 1 << 16

// changeLog is what the cache asks the monitor when its state version
// moves: which pairs changed since the version the cache holds (see
// rrr.Monitor.ChangedSince).
type changeLog interface {
	ChangedSince(v uint64) (keys []rrr.Key, all bool, now uint64)
}

// verdictCache memoizes staleness verdicts across Monitor state
// transitions. Verdicts are immutable while the Monitor's StateVersion is
// unchanged (signals only appear and disappear on window closes,
// refreshes, tracking changes, and restores — never on raw feed
// ingestion), so a verdict stamped with the current version can be served
// without touching the Monitor's lock at all. The first lookup at a newer
// version syncs the cache forward: it deletes the verdicts of the pairs the
// monitor's change log names, or drops them all when the log says "all"
// (a restore, or more versions passed than the log keeps), and restamps.
// A lookup at an older version than the cache holds misses and leaves the
// cache alone, so the generation only moves forward. Lock order is
// verdictCache.mu, then the monitor's lock.
type verdictCache struct {
	mu      sync.RWMutex
	version uint64
	entries map[rrr.Key]cachedVerdict
	cap     int
	log     changeLog

	hits          *obs.Counter
	misses        *obs.Counter
	invalidations *obs.Counter
	flushes       *obs.Counter
	size          *obs.Gauge
}

func newVerdictCache(log changeLog, capacity int) *verdictCache {
	if capacity <= 0 {
		capacity = defaultCacheCap
	}
	obs.Default.Help("rrr_server_verdict_cache_hits_total", "staleness verdicts served from the version-stamped cache without locking the monitor")
	obs.Default.Help("rrr_server_verdict_cache_misses_total", "staleness verdicts computed against the live monitor (cache empty, evicted, or invalidated)")
	obs.Default.Help("rrr_server_verdict_cache_invalidations_total", "version syncs: the cache caught up with a newer monitor state version, dropping the verdicts of the pairs that changed")
	obs.Default.Help("rrr_server_verdict_cache_flushes_total", "whole-cache drops: a version sync after a restore, or after more state versions than the monitor's change log keeps")
	obs.Default.Help("rrr_server_verdict_cache_size", "verdicts currently retained in the cache")
	return &verdictCache{
		entries:       make(map[rrr.Key]cachedVerdict),
		cap:           capacity,
		log:           log,
		hits:          obs.Default.Counter("rrr_server_verdict_cache_hits_total"),
		misses:        obs.Default.Counter("rrr_server_verdict_cache_misses_total"),
		invalidations: obs.Default.Counter("rrr_server_verdict_cache_invalidations_total"),
		flushes:       obs.Default.Counter("rrr_server_verdict_cache_flushes_total"),
		size:          obs.Default.Gauge("rrr_server_verdict_cache_size"),
	}
}

// get returns the cached verdict for k if it is current at version. A newer
// version first syncs the cache forward; an older one is a miss.
func (c *verdictCache) get(k rrr.Key, version uint64) (cachedVerdict, bool) {
	c.mu.RLock()
	if c.version == version {
		if v, ok := c.entries[k]; ok {
			c.mu.RUnlock()
			c.hits.Inc()
			return v, true
		}
		c.mu.RUnlock()
		c.misses.Inc()
		return cachedVerdict{}, false
	}
	behind := c.version < version
	c.mu.RUnlock()
	if behind {
		c.sync(version)
		c.mu.RLock()
		v, ok := c.entries[k]
		ok = ok && c.version == version
		c.mu.RUnlock()
		if ok {
			c.hits.Inc()
			return v, true
		}
	}
	c.misses.Inc()
	return cachedVerdict{}, false
}

// sync brings a cache older than version up to the monitor's current
// version, deleting exactly the verdicts the change log says are stale.
func (c *verdictCache) sync(version uint64) {
	c.mu.Lock()
	if c.version < version {
		keys, all, now := c.log.ChangedSince(c.version)
		if all {
			if len(c.entries) > 0 {
				c.entries = make(map[rrr.Key]cachedVerdict)
				c.flushes.Inc()
			}
		} else {
			for _, k := range keys {
				delete(c.entries, k)
			}
		}
		c.version = now
		c.invalidations.Inc()
	}
	n := len(c.entries)
	c.mu.Unlock()
	c.size.Set(int64(n))
}

// put retains v for k if version still matches the cache generation and
// the cache is not full. Verdicts computed against another version are
// simply not retained — the next lookup recomputes.
func (c *verdictCache) put(k rrr.Key, v cachedVerdict, version uint64) {
	c.mu.Lock()
	if c.version == version && len(c.entries) < c.cap {
		c.entries[k] = v
	}
	n := len(c.entries)
	c.mu.Unlock()
	c.size.Set(int64(n))
}

// Package core implements the paper's contribution: staleness prediction
// signals that mark corpus traceroutes as likely out-of-date without
// issuing any measurements. Six techniques feed a single engine:
//
//	§4.1.2  BGP AS-path overlap monitoring (Bitmap outlier detection)
//	§4.1.3  BGP community change tracking
//	§4.1.4  duplicate-update burst correlation
//	§4.2.1  public-traceroute IP-subpath frequency shifts (modified z-score)
//	§4.2.2  inter-city border-router frequency shifts
//	§4.2.3  IXP membership changes
//
// plus §4.3's calibration (per-VP/per-signal TPR/TNR, refresh probability,
// Table 1 bootstrap ordering) and §4.3.2's signal revocation.
package core

import (
	"fmt"
	"sort"

	"rrr/internal/bgp"
	"rrr/internal/traceroute"
	"rrr/internal/trie"
)

// Technique identifies which monitor produced a signal; the rows of the
// paper's Table 2.
type Technique int

// Techniques.
const (
	TechBGPASPath Technique = iota
	TechBGPCommunity
	TechBGPBurst
	TechTraceSubpath
	TechTraceBorder
	TechIXPMembership
	numTechniques
)

// String names the technique with the paper's Table 2 labels.
func (t Technique) String() string {
	switch t {
	case TechBGPASPath:
		return "BGP AS-paths"
	case TechBGPCommunity:
		return "BGP communities"
	case TechBGPBurst:
		return "BGP update bursts"
	case TechTraceSubpath:
		return "Traceroute subpaths"
	case TechTraceBorder:
		return "Traceroute borders"
	case TechIXPMembership:
		return "Colocation changes"
	}
	return "unknown"
}

// IsBGP reports whether the technique consumes BGP feeds.
func (t Technique) IsBGP() bool {
	return t == TechBGPASPath || t == TechBGPCommunity || t == TechBGPBurst
}

// Signal is one staleness prediction signal: evidence that a specific
// portion (border span) of a corpus traceroute has changed.
type Signal struct {
	Technique Technique
	// Key is the corpus (src, dst) pair flagged as stale.
	Key traceroute.Key
	// MonitorID identifies the potential signal that fired, for
	// calibration bookkeeping.
	MonitorID int
	// WindowStart is the start of the signal-generation window (seconds).
	WindowStart int64
	// Borders are the indices into the corpus entry's border path that
	// the signal claims changed.
	Borders []int
	// Detail is a human-readable cause (an AS, community, or subpath).
	Detail string
	// Score is the detector's outlier score (z-score or bitmap distance).
	Score float64
	// VPCount is the number of BGP vantage points behind the signal
	// (tie-break attribute for Table 1).
	VPCount int
	// IPOverlap and ASOverlap describe how much of the traceroute the
	// triggering data overlaps (Table 1 attributes 1 and 2).
	IPOverlap, ASOverlap int
	// SameASVP / SameCityVP indicate vantage points co-located with the
	// traceroute source (Table 1 attributes 3-5).
	SameASVP, SameCityVP bool
	// Comm is the community behind a §4.1.3 signal (for Appendix B's
	// reputation learning); zero otherwise.
	Comm bgp.Community
}

// String renders a compact description.
func (s Signal) String() string {
	return fmt.Sprintf("%s: %s w=%d borders=%v %s", s.Technique, s.Key, s.WindowStart, s.Borders, s.Detail)
}

// Registration ties a potential signal (a monitor) to a corpus traceroute:
// the monitor watches the given border indices of that traceroute.
type Registration struct {
	MonitorID int
	Technique Technique
	Borders   []int
}

// Geolocator resolves interface addresses to opaque city identifiers
// (§4.2.2's ⟨AS, city⟩ tuples).
type Geolocator interface {
	LocateCity(ip uint32, when int64) (int, bool)
}

// Rel describes a's relationship toward b for §4.2.3's IXP inference.
type Rel int

// Relationship kinds.
const (
	RelNone Rel = iota
	// RelCustomerOf: a is a customer of b (b is a's provider).
	RelCustomerOf
	// RelProviderOf: a is a provider of b.
	RelProviderOf
	// RelPeerPublic: settlement-free peering over an IXP.
	RelPeerPublic
	// RelPeerPrivate: private peering.
	RelPeerPrivate
)

// RelOracle answers AS relationship queries (CAIDA AS-relationship
// substitute).
type RelOracle interface {
	Rel(a, b bgp.ASN) Rel
}

// Config tunes the engine.
type Config struct {
	// WindowSec is the BGP signal-generation window; 900 s in the paper
	// (one RouteViews dump cycle).
	WindowSec int64
	// PublicLadder is the candidate window ladder for traceroute-derived
	// series; anomaly.WindowLadder if nil.
	PublicLadder []int64
	// MinSuffixVPs is the minimum VP set size to instantiate a burst
	// series.
	MinSuffixVPs int
	// CommunityFPQuota is how many observed false-positive windows a
	// community survives before calibration prunes it (Appendix B).
	CommunityFPQuota int
	// CalibrationWindows is the sliding window length l for TPR/TNR
	// tallies; 30 in the paper.
	CalibrationWindows int
	// RevokeSignals enables §4.3.2 revocation.
	RevokeSignals bool
	// IXPBootstrapSec is the initial period during which traceroute-
	// observed IXP members silently augment the membership snapshot
	// instead of generating signals (§4.2.3's snapshot augmentation).
	IXPBootstrapSec int64
	// Disabled lists techniques to turn off entirely (monitors are not
	// even registered), for ablation studies: the paper's Table 2 "unique"
	// columns quantify what each technique contributes.
	Disabled []Technique
	// Shards is how many shards the engine partitions the corpus across
	// for the per-pair phase of CloseWindow: 0 means runtime.GOMAXPROCS(0),
	// 1 runs the whole close on the caller's goroutine. The signal stream
	// is identical regardless of the value.
	Shards int
}

// disabled reports whether a technique is switched off.
func (c Config) disabled(t Technique) bool {
	for _, d := range c.Disabled {
		if d == t {
			return true
		}
	}
	return false
}

// DefaultConfig mirrors the paper's parameters.
func DefaultConfig() Config {
	return Config{
		WindowSec:          900,
		MinSuffixVPs:       2,
		CommunityFPQuota:   1,
		CalibrationWindows: 30,
		RevokeSignals:      true,
		IXPBootstrapSec:    86400,
	}
}

// withDefaults resolves zero-valued fields to the paper's parameters, so a
// partially-filled Config gets the same values DefaultConfig would give.
func (c Config) withDefaults() Config {
	if c.WindowSec == 0 {
		c.WindowSec = 900
	}
	if c.MinSuffixVPs == 0 {
		c.MinSuffixVPs = 2
	}
	if c.CalibrationWindows == 0 {
		c.CalibrationWindows = 30
	}
	if c.CommunityFPQuota == 0 {
		c.CommunityFPQuota = 1
	}
	return c
}

// hashID derives a monitor identifier from its name. Identity is
// content-derived: every monitor is named by its scope (pair, technique, AS
// suffix, subpath, border-router series) and its ID is a stable 63-bit
// FNV-1a hash of that name. Content addressing makes IDs partition-
// invariant — a cluster worker registering only its consistent-hash slice of
// the corpus assigns each monitor exactly the ID a single daemon tracking
// the whole corpus would, so per-pair signals (and the verdict JSON rendered
// from them) are byte-identical under any partitioning. It also makes IDs
// stable across refresh re-registration: a monitor with unchanged scope
// keeps its calibration tallies along with its retained detector state.
//
// Collisions across distinct monitor names are possible in principle
// (~n²/2⁶³) but harmless in practice: a collision would merge two monitors'
// calibration tallies, not corrupt signal generation, and determinism — the
// property the cluster's byte-identity proof rests on — is unaffected.
func hashID(name string) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	id := int(h & (1<<63 - 1))
	if id == 0 {
		id = 1 // keep 0 meaning "no monitor" everywhere
	}
	return id
}

// monitorID names a per-pair monitor and returns its content-derived ID.
// The scope string must uniquely identify the monitor within the pair
// (e.g. the monitored AS suffix).
func monitorID(kind string, k traceroute.Key, scope string) int {
	return hashID(kind + ":" + k.String() + ":" + scope)
}

// retiredState preserves a monitor's detector and revocation baseline
// across re-registration.
type retiredState struct {
	det      interface{}
	baseline float64
	hasBase  bool
}

type vpPrefix struct {
	vp bgp.VPKey
	pf trie.Prefix
}

// vpCell is the fold cell of one watched (VP, prefix): every monitor slot
// and community state over that pair points at the same cell, so the
// per-pair close reads the window's updates through a pointer instead of
// hashing the pair into winUpdates once per slot. Cells exist only for
// pairs some monitor watches — created at registration, never per RIB
// entry — and, like the shared series, outlive their last watcher.
type vpCell struct {
	pf vpPrefix
	// win is the pair's fold state while the open window has touched it,
	// nil otherwise: linked by observeBGPChange (or at creation, for a pair
	// registered mid-window), unlinked by resetWindow.
	win *vpWindowState
	// shards are the shards with a monitor on this cell; linking marks
	// their window dirty.
	shards []*shard
}

// dup reports whether the VP emitted a duplicate update for the prefix in
// the open window.
func (c *vpCell) dup() bool { return c.win != nil && c.win.dup }

// route returns the VP's current table route for the prefix.
func (c *vpCell) route(rib *bgp.RIB) (*bgp.Route, bool) { return rib.Route(c.pf.vp, c.pf.pf) }

type vpWindowState struct {
	// startPath/startComms are the route attributes at window start.
	startPath  bgp.Path
	startComms bgp.Communities
	startOK    bool
	// updates during this window.
	paths []bgp.Path
	dup   bool
}

type commEvent struct {
	vp     bgp.VPKey
	prefix trie.Prefix
	prev   bgp.Communities
	cur    bgp.Communities
	time   int64
}

// signalLess is a total order over distinguishable signals, so sorting a
// merged multi-shard signal stream reproduces the one-shard engine's output
// byte for byte (sort.Slice is unstable; a partial order would let equal-
// keyed signals land in input order, which differs across shard merges).
func signalLess(a, b Signal) bool {
	if a.WindowStart != b.WindowStart {
		return a.WindowStart < b.WindowStart
	}
	if a.Technique != b.Technique {
		return a.Technique < b.Technique
	}
	if a.Key.Src != b.Key.Src {
		return a.Key.Src < b.Key.Src
	}
	if a.Key.Dst != b.Key.Dst {
		return a.Key.Dst < b.Key.Dst
	}
	if a.MonitorID != b.MonitorID {
		return a.MonitorID < b.MonitorID
	}
	if a.Detail != b.Detail {
		return a.Detail < b.Detail
	}
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	if len(a.Borders) != len(b.Borders) {
		return len(a.Borders) < len(b.Borders)
	}
	for i := range a.Borders {
		if a.Borders[i] != b.Borders[i] {
			return a.Borders[i] < b.Borders[i]
		}
	}
	return false
}

// sortSignals orders signals deterministically.
func sortSignals(sigs []Signal) {
	sort.Slice(sigs, func(i, j int) bool { return signalLess(sigs[i], sigs[j]) })
}

// SignalLess reports whether a orders before b in the engine's canonical
// emission order. Exported for stream mergers — the cluster router — that
// must reproduce serial-engine output from partitioned sources.
func SignalLess(a, b Signal) bool { return signalLess(a, b) }

// Package rrr implements the staleness-detection system of "Reduce, Reuse,
// Recycle: Repurposing Existing Measurements to Identify Stale Traceroutes"
// (Giotsas et al., IMC 2020): it maintains a corpus of traceroutes and
// flags entries that are likely out-of-date — without issuing any
// measurements — by passively monitoring BGP update feeds and publicly
// available traceroutes.
//
// The package is a facade over the implementation packages:
//
//   - Monitor wires the six signal techniques (§4.1.2–§4.2.3), the
//     calibrator (§4.3.1), and signal revocation (§4.3.2) behind a small
//     API: feed BGP updates and public traceroutes in, track corpus
//     traceroutes, read staleness signals out.
//   - The internal packages provide the substrates: BGP models and codecs,
//     traceroute parsing and processing, border mapping, geolocation,
//     anomaly detection, the evaluation harness, and a deterministic
//     Internet simulator used by the benchmarks.
//
// A minimal session:
//
//	mon := rrr.NewMonitor(rrr.Options{Mapper: m, Aliases: aliases})
//	mon.ObserveBGP(update)          // prime and stream collector feeds
//	mon.Track(corpusTraceroute)     // register the corpus
//	mon.ObservePublic(publicTrace)  // stream public traceroutes
//	sigs := mon.CloseWindow(ws)     // per 15-minute window
//	if mon.Stale(key) { ... }       // reissue, prune, or distrust
package rrr

import (
	"rrr/internal/bgp"
	"rrr/internal/bordermap"
	"rrr/internal/core"
	"rrr/internal/corpus"
	"rrr/internal/traceroute"
	"rrr/internal/trie"
)

// Re-exported core vocabulary. External users interact with these; the
// internal packages carry the implementations.
type (
	// Signal is a staleness prediction signal (§4).
	Signal = core.Signal
	// Technique identifies which of the six techniques fired.
	Technique = core.Technique
	// Config tunes windows, calibration, and the techniques in use.
	Config = core.Config
	// Registration is a potential signal covering part of a traceroute.
	Registration = core.Registration
	// PlanItem is one refresh-plan selection with its ranking attributes
	// (§4.3.1), as returned by Monitor.PlanRefreshDetailed.
	PlanItem = core.PlanItem
	// Update is one BGP update from a collector vantage point.
	Update = bgp.Update
	// ASN is an autonomous system number.
	ASN = bgp.ASN
	// Community is a 32-bit BGP community.
	Community = bgp.Community
	// Prefix is an IPv4 prefix.
	Prefix = trie.Prefix
	// Traceroute is one measured path.
	Traceroute = traceroute.Traceroute
	// Key identifies a (source, destination) pair.
	Key = traceroute.Key
	// Hop is a traceroute hop.
	Hop = traceroute.Hop
	// Mapper resolves hop addresses to ASes and IXPs.
	Mapper = traceroute.Mapper
	// AliasOracle resolves interface addresses to routers.
	AliasOracle = bordermap.AliasOracle
	// Geolocator resolves addresses to city identifiers.
	Geolocator = core.Geolocator
	// RelOracle answers AS relationship queries.
	RelOracle = core.RelOracle
	// ChangeClass classifies a path change per §3.
	ChangeClass = bordermap.ChangeClass
	// Entry is a processed corpus traceroute.
	Entry = corpus.Entry
)

// Technique values (the rows of Table 2).
const (
	TechBGPASPath     = core.TechBGPASPath
	TechBGPCommunity  = core.TechBGPCommunity
	TechBGPBurst      = core.TechBGPBurst
	TechTraceSubpath  = core.TechTraceSubpath
	TechTraceBorder   = core.TechTraceBorder
	TechIXPMembership = core.TechIXPMembership
)

// Change classes (§3 granularities).
const (
	Unchanged    = bordermap.Unchanged
	BorderChange = bordermap.BorderChange
	ASChange     = bordermap.ASChange
)

// DefaultConfig mirrors the paper's parameters: 15-minute windows, l=30
// calibration windows, revocation enabled.
func DefaultConfig() Config { return core.DefaultConfig() }

// SignalLess reports whether a orders before b in the engine's canonical
// per-window emission order; merging partitioned streams with it
// reproduces single-engine output byte for byte.
func SignalLess(a, b Signal) bool { return core.SignalLess(a, b) }

// PlanLess reports whether a outranks b in the refresh-plan priority order
// Monitor.PlanRefreshDetailed emits; merging partitioned plans with it
// reproduces a single monitor's order.
func PlanLess(a, b PlanItem) bool { return core.PlanLess(a, b) }

// MakeCommunity builds a community from the defining AS and value.
func MakeCommunity(as ASN, value uint16) Community { return bgp.MakeCommunity(as, value) }

// ParsePrefix parses "a.b.c.d/len".
func ParsePrefix(s string) (Prefix, error) { return trie.ParsePrefix(s) }

// ParseIP parses a dotted-quad IPv4 address.
func ParseIP(s string) (uint32, error) { return trie.ParseIP(s) }

// FormatIP renders a dotted-quad IPv4 address.
func FormatIP(ip uint32) string { return trie.FormatIP(ip) }

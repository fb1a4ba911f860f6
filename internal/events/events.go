// Package events detects and classifies routing events — the adversarial
// and artifactual dynamics the staleness engine must not mistake for path
// change: prefix hijacks (origin replacement, MOAS, sub-prefix), route
// leaks, RFC 7999 blackhole announcements, traceroute measurement
// artifacts (per-flow load-balancing loops, cycles, and diamonds; Viger et
// al.), and diurnal churn periodicity ("The Internet Pendulum").
//
// The Detector consumes the same ingested records as the staleness engine,
// fed through the Pipeline's record tap on the single merge-loop
// goroutine, so its event stream is deterministic and identical in a single
// daemon and in every worker of a cluster (each worker ingests the full
// feed). Events are emitted at window close in the
// canonical EventLess order, mirroring the signal stream's SignalLess
// contract, so cluster routers can union-merge worker streams byte for
// byte.
//
// Truth is the simulator-side ground-truth label for one injected episode.
// Labels stay in memory: scenario packs hand them to the accuracy harness
// directly, and no file format carries them.
package events

import (
	"fmt"

	"rrr/internal/bgp"
	"rrr/internal/traceroute"
	"rrr/internal/trie"
)

// Class enumerates the routing-event taxonomy.
type Class uint8

// Event classes. BGP classes carry Prefix/AS; trace classes carry Key.
const (
	// HijackOrigin is a full origin replacement: a prefix's only baseline
	// origin disappears from every vantage point in favor of a new AS.
	HijackOrigin Class = iota
	// HijackMOAS is a partial hijack: a non-baseline origin appears while
	// baseline origins remain visible from other vantage points. Stable
	// multi-origin prefixes in the baseline (anycast) are benign and never
	// classified here.
	HijackMOAS
	// HijackSubprefix is an announcement of a more-specific covered by a
	// baseline prefix, originated by a different AS.
	HijackSubprefix
	// RouteLeak is a path carrying a non-transit AS (never observed
	// mid-path in the baseline) in a transit position, still routed at
	// window close — a leak withdrawn within its window self-heals and is
	// deliberately not flagged.
	RouteLeak
	// Blackhole is an announcement carrying the RFC 7999 community
	// 65535:666.
	Blackhole
	// TraceLoop is a traceroute visiting the same address at consecutive
	// TTLs.
	TraceLoop
	// TraceCycle is a traceroute revisiting an address at a later,
	// non-consecutive TTL.
	TraceCycle
	// TraceDiamond is two same-pair traceroutes in one window with
	// divergent hop sequences (per-flow load balancing).
	TraceDiamond
	// Diurnal is a prefix whose update churn recurs in the same daily
	// time slot across at least three consecutive days.
	Diurnal

	numClasses
)

// String names the class in the wire form used by /v1/events.
func (c Class) String() string {
	switch c {
	case HijackOrigin:
		return "hijack-origin"
	case HijackMOAS:
		return "hijack-moas"
	case HijackSubprefix:
		return "hijack-subprefix"
	case RouteLeak:
		return "route-leak"
	case Blackhole:
		return "blackhole"
	case TraceLoop:
		return "trace-loop"
	case TraceCycle:
		return "trace-cycle"
	case TraceDiamond:
		return "trace-diamond"
	case Diurnal:
		return "diurnal"
	}
	return "unknown"
}

// classByName inverts Class.String for wire-form decoding.
var classByName = func() map[string]Class {
	m := make(map[string]Class, int(numClasses))
	for c := Class(0); c < numClasses; c++ {
		m[c.String()] = c
	}
	return m
}()

// ParseClass resolves a wire-form class name.
func ParseClass(s string) (Class, error) {
	c, ok := classByName[s]
	if !ok {
		return 0, fmt.Errorf("events: unknown class %q", s)
	}
	return c, nil
}

// Event is one classified routing event, stamped with the window whose
// close emitted it. BGP classes populate Prefix and AS; trace classes
// populate Key.
type Event struct {
	Class       Class
	WindowStart int64
	Prefix      trie.Prefix
	AS          bgp.ASN
	Key         traceroute.Key
	Detail      string
	Score       float64
	VPCount     int
}

// EventLess is the canonical per-window emission order, the events
// counterpart of the engine's SignalLess: window, class, prefix, AS, key,
// detail. Merging per-worker event streams with it reproduces a single
// detector's output byte for byte.
func EventLess(a, b Event) bool {
	if a.WindowStart != b.WindowStart {
		return a.WindowStart < b.WindowStart
	}
	if a.Class != b.Class {
		return a.Class < b.Class
	}
	if a.Prefix.Addr != b.Prefix.Addr {
		return a.Prefix.Addr < b.Prefix.Addr
	}
	if a.Prefix.Len != b.Prefix.Len {
		return a.Prefix.Len < b.Prefix.Len
	}
	if a.AS != b.AS {
		return a.AS < b.AS
	}
	if a.Key.Src != b.Key.Src {
		return a.Key.Src < b.Key.Src
	}
	if a.Key.Dst != b.Key.Dst {
		return a.Key.Dst < b.Key.Dst
	}
	return a.Detail < b.Detail
}

// Truth is one ground-truth label emitted by a scenario pack: an injected
// episode's class, active interval, and identifying attributes. Benign
// marks a look-alike the classifiers must NOT flag (stable anycast MOAS, a
// leak that self-heals within one window); an event matching a benign
// truth scores as a false positive.
type Truth struct {
	Class  Class
	Start  int64 // episode start (seconds)
	End    int64 // episode end, inclusive of the window containing it
	Prefix trie.Prefix
	AS     bgp.ASN
	Key    traceroute.Key
	Benign bool
	Detail string
}

// Matches reports whether ev plausibly observes this truth: same class,
// same identifying attribute, and the event window overlapping the
// episode's active interval padded by one window on each side (detection
// lands at the close of the window containing the episode).
func (t Truth) Matches(ev Event, windowSec int64) bool {
	if ev.Class != t.Class {
		return false
	}
	if ev.WindowStart+windowSec <= t.Start-windowSec || ev.WindowStart > t.End+windowSec {
		return false
	}
	switch t.Class {
	case TraceLoop, TraceCycle, TraceDiamond:
		return ev.Key == t.Key
	default:
		if t.Prefix.Len != 0 || t.Prefix.Addr != 0 {
			if ev.Prefix != t.Prefix {
				return false
			}
		}
		if t.AS != 0 && ev.AS != t.AS {
			return false
		}
		return true
	}
}

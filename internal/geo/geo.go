// Package geo implements the paper's three-stage IP geolocation pipeline
// (Appendix A): an IPMap-like database lookup, a shortest-ping measurement
// technique driven by PeeringDB-style facility candidates, and a CFS-style
// fallback. Locations are ⟨AS, city⟩ tuples; §4.2.2's inter-city border
// monitoring depends on them. The package also contains the validation
// harness behind the paper's Fig 12.
package geo

import (
	"math"
	"math/rand"
	"sort"

	"rrr/internal/bgp"
	"rrr/internal/netsim"
)

// Method records which technique produced a location.
type Method int

// Geolocation methods, in the order the pipeline tries them.
const (
	// methodNone means the address could not be located; path segments
	// ending at it are excluded from PoP-level staleness signals.
	methodNone Method = iota
	// methodDB is an IPMap-like database hit.
	methodDB
	// methodShortestPing located the address by RTT proximity.
	methodShortestPing
	// methodCFS is the constrained-facility-search style fallback.
	methodCFS
)

// String names the method.
func (m Method) String() string {
	switch m {
	case methodDB:
		return "ipmap-db"
	case methodShortestPing:
		return "shortest-ping"
	case methodCFS:
		return "cfs"
	default:
		return "none"
	}
}

// DB is a geolocation database: a partial, possibly erroneous mapping from
// interface addresses to cities.
type DB struct {
	name string
	loc  map[uint32]netsim.CityID
}

// Name returns the database's label.
func (db *DB) Name() string { return db.name }

// Lookup returns the database's city for ip.
func (db *DB) Lookup(ip uint32) (netsim.CityID, bool) {
	c, ok := db.loc[ip]
	return c, ok
}

// Len returns the number of covered addresses.
func (db *DB) Len() int { return len(db.loc) }

// DBProfile describes a synthetic database's coverage and accuracy,
// mirroring the three validation databases of Appendix A (crowd-sourced,
// router-specific commercial, general-purpose commercial).
type DBProfile struct {
	Name string
	// Coverage is the fraction of queried addresses present.
	Coverage float64
	// ExactFrac of covered addresses carry the true city; the rest are
	// assigned a city at a distance drawn from nearby (NearFrac within
	// small error) or uniformly (gross errors).
	ExactFrac float64
	NearFrac  float64
}

// BuildDB synthesizes a database against the simulator's ground truth.
func BuildDB(s *netsim.Sim, ips []uint32, p DBProfile, seed int64) *DB {
	rng := rand.New(rand.NewSource(seed))
	db := &DB{name: p.Name, loc: make(map[uint32]netsim.CityID)}
	nCities := len(s.T.Cities)
	for _, ip := range ips {
		r, ok := s.T.RouterForIP(ip)
		if !ok {
			continue
		}
		if rng.Float64() >= p.Coverage {
			continue
		}
		truth := s.T.CityOfRouter(r)
		switch v := rng.Float64(); {
		case v < p.ExactFrac:
			db.loc[ip] = truth
		case v < p.ExactFrac+p.NearFrac:
			// Neighboring city: pick the closest other city.
			db.loc[ip] = nearestOther(s, truth)
		default:
			db.loc[ip] = netsim.CityID(rng.Intn(nCities))
		}
	}
	return db
}

func nearestOther(s *netsim.Sim, c netsim.CityID) netsim.CityID {
	best := netsim.CityID(-1)
	bestD := math.Inf(1)
	for _, other := range s.T.Cities {
		if other.ID == c {
			continue
		}
		if d := cityDistance(s, c, other.ID); d < bestD {
			best, bestD = other.ID, d
		}
	}
	return best
}

// cityDistance returns the abstract plane distance between two cities,
// scaled to kilometers (1 unit ≈ 100 km) for reporting.
func cityDistance(s *netsim.Sim, a, b netsim.CityID) float64 {
	ca, cb := s.T.Cities[a], s.T.Cities[b]
	dx, dy := ca.X-cb.X, ca.Y-cb.Y
	return math.Sqrt(dx*dx+dy*dy) * 100
}

// Locator is the combined geolocation pipeline.
type Locator struct {
	sim *netsim.Sim
	db  *DB
	// PingThreshold is the maximum RTT (ms) to declare co-location; the
	// paper uses 1 ms ≈ 100 km of fiber.
	PingThreshold float64
	// cache avoids re-measuring stable locations (geolocation changes on
	// much slower timescales than routes, Appendix A).
	cache map[uint32]located
}

type located struct {
	city   netsim.CityID
	method Method
}

// NewLocator builds the pipeline over a simulator and an IPMap-like DB
// (which may be nil to exercise the measurement paths alone).
func NewLocator(s *netsim.Sim, db *DB) *Locator {
	return &Locator{sim: s, db: db, PingThreshold: 1.0, cache: make(map[uint32]located)}
}

// Locate returns the city for an interface address, the method used, and
// whether location succeeded.
func (l *Locator) Locate(ip uint32, when int64) (netsim.CityID, Method, bool) {
	if got, ok := l.cache[ip]; ok {
		return got.city, got.method, got.method != methodNone
	}
	city, method := l.locate(ip, when)
	l.cache[ip] = located{city: city, method: method}
	return city, method, method != methodNone
}

func (l *Locator) locate(ip uint32, when int64) (netsim.CityID, Method) {
	if l.db != nil {
		if c, ok := l.db.Lookup(ip); ok {
			return c, methodDB
		}
	}
	if c, ok := l.shortestPing(ip, when); ok {
		return c, methodShortestPing
	}
	if c, ok := l.cfsFallback(ip); ok {
		return c, methodCFS
	}
	return 0, methodNone
}

// shortestPing implements the paper's technique: derive candidate cities
// from the target AS's PeeringDB-style facility list (its PoP cities in the
// simulator), order vantage points by preference, and declare the first
// city whose ping is under the threshold. The preference ordering follows
// Appendix A: vantage points at facilities where the target AS has a larger
// presence first, then facilities hosting ASes with known relationships to
// the target's AS (customers of the target most preferred, its providers
// least, mirroring Local Preference), then city identity for determinism.
func (l *Locator) shortestPing(ip uint32, when int64) (netsim.CityID, bool) {
	as := l.ownerAS(ip)
	if as == 0 {
		return 0, false
	}
	a := l.sim.T.ASes[as]
	type cand struct {
		city     netsim.CityID
		presence int // routers of the target AS at this facility
		relScore int // best relationship class of co-located ASes
	}
	byCity := make(map[netsim.CityID]*cand)
	for _, pop := range a.PoPs {
		c := l.sim.T.PoPs[pop].City
		cd := byCity[c]
		if cd == nil {
			cd = &cand{city: c}
			byCity[c] = cd
		}
		cd.presence += len(l.sim.T.PoPs[pop].Routers)
	}
	// Relationship preference of co-located ASes: customer of target (3)
	// > peer (2) > provider (1) > unrelated (0).
	for _, other := range l.sim.T.ASList {
		if other == as {
			continue
		}
		rel, ok := l.sim.T.RelBetween(other, as)
		if !ok {
			continue
		}
		score := 0
		switch rel {
		case netsim.RelCustomer: // other is a customer of the target's AS
			score = 3
		case netsim.RelPeer:
			score = 2
		case netsim.RelProvider:
			score = 1
		}
		for _, pop := range l.sim.T.ASes[other].PoPs {
			if cd, here := byCity[l.sim.T.PoPs[pop].City]; here && score > cd.relScore {
				cd.relScore = score
			}
		}
	}
	cands := make([]*cand, 0, len(byCity))
	for _, cd := range byCity {
		cands = append(cands, cd)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].presence != cands[j].presence {
			return cands[i].presence > cands[j].presence
		}
		if cands[i].relScore != cands[j].relScore {
			return cands[i].relScore > cands[j].relScore
		}
		return cands[i].city < cands[j].city
	})
	// Ping from (a vantage point in) each candidate city, most preferred
	// first. Three pings per vantage point, keep the minimum.
	for _, cd := range cands {
		best := math.Inf(1)
		answered := false
		for k := int64(0); k < 3; k++ {
			if rtt, ok := l.sim.Ping(cd.city, ip, when+k); ok {
				answered = true
				if rtt < best {
					best = rtt
				}
			}
		}
		if answered && best <= l.PingThreshold {
			return cd.city, true
		}
	}
	return 0, false
}

// cfsFallback approximates constrained facility search: the AS's primary
// facility city.
func (l *Locator) cfsFallback(ip uint32) (netsim.CityID, bool) {
	as := l.ownerAS(ip)
	if as == 0 {
		return 0, false
	}
	a := l.sim.T.ASes[as]
	if len(a.PoPs) == 0 {
		return 0, false
	}
	return l.sim.T.PoPs[a.PoPs[0]].City, true
}

func (l *Locator) ownerAS(ip uint32) bgp.ASN {
	if r, ok := l.sim.T.RouterForIP(ip); ok {
		return l.sim.T.Routers[r].AS
	}
	if as, ok := l.sim.T.IXPMemberForIP(ip); ok {
		return as
	}
	return 0
}

// ValidationResult is one address's comparison between the pipeline and a
// reference database (Fig 12).
type ValidationResult struct {
	IP       uint32
	OurCity  netsim.CityID
	DBCity   netsim.CityID
	Distance float64 // km between the two answers
}

// Validate compares pipeline locations against a reference database over
// the given addresses, returning per-address distances for addresses both
// sides could locate.
func Validate(l *Locator, ref *DB, ips []uint32, when int64) []ValidationResult {
	var out []ValidationResult
	for _, ip := range ips {
		refCity, ok := ref.Lookup(ip)
		if !ok {
			continue
		}
		ours, _, ok := l.Locate(ip, when)
		if !ok {
			continue
		}
		out = append(out, ValidationResult{
			IP: ip, OurCity: ours, DBCity: refCity,
			Distance: cityDistance(l.sim, ours, refCity),
		})
	}
	return out
}

// CDF summarizes distances into (exact-match fraction, fraction < each
// threshold km).
func CDF(results []ValidationResult, thresholds []float64) (exact float64, under []float64) {
	under = make([]float64, len(thresholds))
	if len(results) == 0 {
		return 0, under
	}
	for _, r := range results {
		if r.Distance == 0 {
			exact++
		}
		for i, th := range thresholds {
			if r.Distance < th {
				under[i]++
			}
		}
	}
	n := float64(len(results))
	exact /= n
	for i := range under {
		under[i] /= n
	}
	return exact, under
}

// Package faultfeed provides deterministic, seeded fault injection for the
// project's feed interfaces, limited to the faults the shipping pipeline
// absorbs. Updates and Traces wrap a feed with adjacent duplicate delivery
// and scheduled transient stream breaks; ReplayableUpdates models an
// upstream archive or broker that resumes from a timestamp and breaks on a
// schedule; Proxy cuts TCP connections mid-frame; and a byte-level Reader
// injects torn (short) reads and mid-record truncation under the binary
// codecs.
//
// Duplicates are drawn from a math/rand PRNG seeded from Config.Seed, so a
// fault schedule is a pure function of (seed, input stream): tests replay
// the exact same faults on every run, which is what makes the differential
// harness (faulted run vs. clean run) meaningful.
//
// An injected duplicate is byte-identical to its original and delivered
// adjacent to it — transport-level redelivery semantics, which the
// pipeline's adjacent-dedup stage can remove without touching
// protocol-level BGP duplicates (those differ in arrival time and feed the
// burst detector).
//
// The package also holds the differential reader (Surfaces, Sides,
// Capture) through which every byte-identity test reads its two runs.
package faultfeed

import (
	"errors"
	"fmt"
	"math/rand"

	"rrr/internal/bgp"
	"rrr/internal/traceroute"
)

// TraceSource produces traceroutes in time order (io.EOF ends the feed).
// It mirrors rrr.TraceSource without importing the facade package.
type TraceSource interface {
	Read() (*traceroute.Traceroute, error)
}

// TransientError marks an injected (or wrapped) failure as retryable. It
// implements the Temporary() contract the pipeline's retry policy checks,
// so the supervisor layer never needs to import this package.
type TransientError struct {
	Err error
}

// Error implements error.
func (e *TransientError) Error() string { return fmt.Sprintf("transient: %v", e.Err) }

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *TransientError) Unwrap() error { return e.Err }

// Temporary reports that the failure is worth retrying.
func (e *TransientError) Temporary() bool { return true }

// Transient wraps err as a retryable failure.
func Transient(err error) error { return &TransientError{Err: err} }

// ErrInjected is the base cause of faults injected by this package.
var ErrInjected = errors.New("faultfeed: injected fault")

// Config describes one feed's fault schedule; zero values disable the
// corresponding fault.
type Config struct {
	// Seed drives the injector's private PRNG. The same seed over the
	// same input stream reproduces the same fault schedule.
	Seed int64

	// DupProb re-delivers a record with that probability per delivery:
	// the copy is byte-identical and arrives immediately after the
	// original (at-least-once transport).
	DupProb float64

	// ErrEvery, if positive, injects one deterministic TransientError
	// before every ErrEvery-th delivery. Nothing is consumed, so the
	// source stays readable after the break.
	ErrEvery int
}

// injector holds the fault state shared by both feed kinds. The element
// type carries its own clone so updates (values) and traceroutes
// (pointers) share one implementation.
type injector[T any] struct {
	cfg   Config
	rng   *rand.Rand
	read  func() (T, error)
	clone func(T) T

	dup      []T // pending adjacent duplicate (0 or 1 element)
	sinceErr int
}

func newInjector[T any](cfg Config, read func() (T, error), clone func(T) T) *injector[T] {
	return &injector[T]{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		read:  read,
		clone: clone,
	}
}

// Next delivers the next faulted record.
func (in *injector[T]) Next() (T, error) {
	var zero T
	// Pending adjacent duplicate goes out first and is never re-duped.
	if len(in.dup) > 0 {
		rec := in.dup[0]
		in.dup = in.dup[:0]
		in.sinceErr++
		return rec, nil
	}
	// Transient errors are injected between records: nothing is consumed.
	if in.cfg.ErrEvery > 0 && in.sinceErr >= in.cfg.ErrEvery {
		in.sinceErr = 0
		return zero, Transient(fmt.Errorf("%w: scheduled stream break", ErrInjected))
	}
	rec, err := in.read()
	if err != nil {
		return zero, err
	}
	if in.cfg.DupProb > 0 && in.rng.Float64() < in.cfg.DupProb {
		in.dup = append(in.dup, in.clone(rec))
	}
	in.sinceErr++
	return rec, nil
}

// cloneUpdate deep-copies an update so a duplicate delivery shares no
// mutable state with the original.
func cloneUpdate(u bgp.Update) bgp.Update {
	u.ASPath = u.ASPath.Clone()
	u.Communities = u.Communities.Clone()
	return u
}

// UpdateFeed is a fault-injecting bgp.UpdateSource.
type UpdateFeed struct {
	in *injector[bgp.Update]
}

// Updates wraps src with the fault schedule in cfg.
func Updates(src bgp.UpdateSource, cfg Config) *UpdateFeed {
	return &UpdateFeed{in: newInjector(cfg, src.Read, cloneUpdate)}
}

// Read implements bgp.UpdateSource.
func (f *UpdateFeed) Read() (bgp.Update, error) { return f.in.Next() }

// TraceFeed is a fault-injecting traceroute source.
type TraceFeed struct {
	in *injector[*traceroute.Traceroute]
}

// Traces wraps src with the fault schedule in cfg.
func Traces(src TraceSource, cfg Config) *TraceFeed {
	return &TraceFeed{in: newInjector(cfg, src.Read, (*traceroute.Traceroute).Clone)}
}

// Read implements the traceroute feed interface.
func (f *TraceFeed) Read() (*traceroute.Traceroute, error) { return f.in.Next() }

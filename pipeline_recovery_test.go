package rrr

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"rrr/internal/bgp"
	"rrr/internal/faultfeed"
)

// recoveryMonitor primes a fresh monitor with two VP routes and one tracked
// pair, the minimal state where an AS-path shift in the feed produces a
// signal.
func recoveryMonitor(t *testing.T) (*Monitor, Key) {
	t.Helper()
	m := newTestMonitor(t)
	m.ObserveBGP(announceUpd(t, 0, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 3, 4}))
	m.ObserveBGP(announceUpd(t, 0, "6.0.0.9", 6, "4.0.0.0/8", []ASN{6, 3, 4}))
	tr := trace(t, 0, "1.0.0.1", "4.0.0.9", "1.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.9")
	if err := m.Track(tr); err != nil {
		t.Fatal(err)
	}
	return m, tr.Key()
}

// recoveryUpdates is a 100-record feed — two VPs, one announcement each per
// window for 50 windows, VP 5 shifting its path inside the monitored suffix
// at window 45 — with strictly increasing timestamps.
func recoveryUpdates(t *testing.T) []Update {
	t.Helper()
	var out []Update
	for w := int64(1); w <= 50; w++ {
		out = append(out, announceUpd(t, w*900+3, "6.0.0.9", 6, "4.0.0.0/8", []ASN{6, 3, 4}))
		path := []ASN{5, 2, 3, 4}
		if w >= 45 {
			path = []ASN{5, 2, 9, 4}
		}
		out = append(out, announceUpd(t, w*900+7, "5.0.0.9", 5, "4.0.0.0/8", path))
	}
	return out
}

// cleanRecoveryRun is the fault-free baseline the recovery tests compare
// against: same monitor state, same feed, no faults, no retries.
func cleanRecoveryRun(t *testing.T) ([]Signal, []Key) {
	t.Helper()
	m, _ := recoveryMonitor(t)
	var sigs []Signal
	if err := RunPipeline(context.Background(), m, PipelineConfig{
		Updates: bgp.NewSliceSource(recoveryUpdates(t)), Sink: func(s Signal) { sigs = append(sigs, s) },
	}); err != nil {
		t.Fatal(err)
	}
	if len(sigs) == 0 {
		t.Fatal("clean baseline produced no signals; recovery checks would be vacuous")
	}
	return sigs, m.StaleKeys()
}

// TestPipelineDirectSourceErrorEndsFeed: a source without an Open factory
// cannot be resumed, so even a transient error ends the feed without
// touching the retry budget — and, as TestPipelineFeedErrorDrain requires of
// the non-retrying pipeline, still drains the open window and reports the
// failure.
func TestPipelineDirectSourceErrorEndsFeed(t *testing.T) {
	m, key := recoveryMonitor(t)
	m.Advance(45 * 900)

	retriesBefore := metFeedBGP.retries.Value()
	deadBefore := metFeedBGP.dead.Value()
	us := &erroringUpdateSource{
		updates: []Update{announceUpd(t, 45*900+5, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 9, 4})},
		err:     faultfeed.Transient(io.ErrUnexpectedEOF),
	}
	var got []Signal
	err := RunPipeline(context.Background(), m, PipelineConfig{
		Updates: us,
		Sink:    func(s Signal) { got = append(got, s) },
		Retry:   RetryPolicy{MaxRetries: 2, Backoff: time.Microsecond},
	})
	if err == nil || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v; want wrapped unexpected EOF", err)
	}
	if len(got) == 0 {
		t.Fatal("feed error dropped the open window's signals")
	}
	if !m.Stale(key) {
		t.Fatal("pair not stale after feed-error drain")
	}
	if d := metFeedBGP.retries.Value() - retriesBefore; d != 0 {
		t.Fatalf("retries metric delta = %d, want 0: a direct source is never retried", d)
	}
	if d := metFeedBGP.dead.Value() - deadBefore; d != 1 {
		t.Fatalf("feeds_dead metric delta = %d, want 1", d)
	}
}

// TestPipelineRetriesExhaustStillDrains extends TestPipelineFeedErrorDrain
// to the reopening pipeline: a feed whose every reopen breaks before its
// replay of the open window completes exhausts the budget, still drains the
// open window (the buffered change surfaces as a signal) and still reports
// the failure.
func TestPipelineRetriesExhaustStillDrains(t *testing.T) {
	m, key := recoveryMonitor(t)
	m.Advance(45 * 900)

	window := []Update{
		announceUpd(t, 45*900+3, "6.0.0.9", 6, "4.0.0.0/8", []ASN{6, 3, 4}),
		announceUpd(t, 45*900+5, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 9, 4}),
	}
	// The initial source delivers the window's two records and breaks; every
	// reopen re-delivers only the first of them before breaking again.
	us := &erroringUpdateSource{
		updates: window,
		err:     faultfeed.Transient(io.ErrUnexpectedEOF),
	}
	ru := faultfeed.NewReplayableUpdates(window, faultfeed.ReplayConfig{FailOpens: 100, FailAfter: 1})

	retriesBefore := metFeedBGP.retries.Value()
	var got []Signal
	err := RunPipeline(context.Background(), m, PipelineConfig{
		Updates:     us,
		OpenUpdates: ru.Open,
		Sink:        func(s Signal) { got = append(got, s) },
		Retry:       RetryPolicy{MaxRetries: 2, Backoff: time.Microsecond},
	})
	if err == nil || !errors.Is(err, faultfeed.ErrInjected) {
		t.Fatalf("err = %v; want the last reopen's injected break", err)
	}
	if len(got) == 0 {
		t.Fatal("exhausted retries dropped the open window's signals")
	}
	if !m.Stale(key) {
		t.Fatal("pair not stale after feed-error drain")
	}
	if ru.Opens() != 2 {
		t.Fatalf("feed reopened %d times, want the full budget of 2", ru.Opens())
	}
	if d := metFeedBGP.retries.Value() - retriesBefore; d != 2 {
		t.Fatalf("retries metric delta = %d, want the full budget of 2", d)
	}
}

// TestPipelineReplayDivergenceRefundsBudget: the reopen budget is per
// failure episode, and a replay that diverges ends its episode as surely as
// one that matches. Each open breaks after seven records under a budget of
// one; with gap, every reopen starts one record past the resume point (a
// feed server that trimmed it), so every replay diverges at its first
// record. Both schedules must survive all four opens. The gap skips only the
// one record each break leaves in the open window, so nothing is lost and
// the signal stream still equals the clean run's.
func TestPipelineReplayDivergenceRefundsBudget(t *testing.T) {
	wantSigs, _ := cleanRecoveryRun(t)
	for _, gap := range []bool{false, true} {
		t.Run(fmt.Sprintf("gap=%v", gap), func(t *testing.T) {
			m, _ := recoveryMonitor(t)
			// Opens 1-3 break after seven records; open 4 is clean.
			ru := faultfeed.NewReplayableUpdates(recoveryUpdates(t),
				faultfeed.ReplayConfig{FailOpens: 3, FailAfter: 7})
			open := func(since int64) (UpdateSource, error) {
				src, err := ru.Open(since)
				if err == nil && gap && ru.Opens() > 1 {
					_, err = src.Read()
				}
				return src, err
			}
			health := NewPipelineHealth()
			var sigs []Signal
			err := RunPipeline(context.Background(), m, PipelineConfig{
				OpenUpdates: open,
				Sink:        func(s Signal) { sigs = append(sigs, s) },
				Retry:       RetryPolicy{MaxRetries: 1, Backoff: time.Millisecond},
				Health:      health,
			})
			if err != nil {
				t.Fatalf("feed died after %d opens: %v", ru.Opens(), err)
			}
			if ru.Opens() != 4 {
				t.Fatalf("feed opened %d times, want 4", ru.Opens())
			}
			if !reflect.DeepEqual(sigs, wantSigs) {
				t.Fatalf("signal stream diverges from clean run:\n got  %v\n want %v", sigs, wantSigs)
			}
			wantDiverged := uint64(0)
			if gap {
				wantDiverged = 3
			}
			for _, f := range health.Snapshot() {
				if f.Feed == "bgp" && f.Diverged != wantDiverged {
					t.Fatalf("bgp replay divergences = %d, want %d", f.Diverged, wantDiverged)
				}
			}
		})
	}
}

// TestPipelineWindowAlignedResume: a feed with a reopen factory that breaks
// mid-stream twice is resumed from the last completed window each time, the
// already-ingested records are skipped as they replay, and the resulting
// signal stream is byte-identical to the fault-free run — the exactly-once
// recovery guarantee.
func TestPipelineWindowAlignedResume(t *testing.T) {
	wantSigs, wantStale := cleanRecoveryRun(t)

	retriesBefore := metFeedBGP.retries.Value()
	absorbedBefore := metFeedBGP.absorbed.Value()
	replayedBefore := metFeedBGP.replayed.Value()

	m, _ := recoveryMonitor(t)
	// Opens 1 and 2 deliver ten records and break; open 3 is clean.
	ru := faultfeed.NewReplayableUpdates(recoveryUpdates(t),
		faultfeed.ReplayConfig{FailOpens: 2, FailAfter: 10})
	health := NewPipelineHealth()
	var sigs []Signal
	err := RunPipeline(context.Background(), m, PipelineConfig{
		OpenUpdates: ru.Open,
		Sink:        func(s Signal) { sigs = append(sigs, s) },
		Retry:       RetryPolicy{MaxRetries: 5, Backoff: time.Millisecond},
		Health:      health,
	})
	if err != nil {
		t.Fatalf("supervised pipeline should have recovered: %v", err)
	}
	if !reflect.DeepEqual(sigs, wantSigs) {
		t.Fatalf("resumed signal stream diverges from clean run:\n got  %v\n want %v", sigs, wantSigs)
	}
	if !reflect.DeepEqual(m.StaleKeys(), wantStale) {
		t.Fatalf("resumed stale set = %v, want %v", m.StaleKeys(), wantStale)
	}
	if ru.Opens() != 3 {
		t.Fatalf("feed opened %d times, want 3 (initial + two resumes)", ru.Opens())
	}
	if d := metFeedBGP.retries.Value() - retriesBefore; d != 2 {
		t.Fatalf("retries metric delta = %d, want 2", d)
	}
	// Each break lands mid-window with two records already ingested there,
	// so each resume replays exactly those two before fresh data flows.
	if d := metFeedBGP.replayed.Value() - replayedBefore; d != 4 {
		t.Fatalf("replayed metric delta = %d, want 4", d)
	}
	if d := metFeedBGP.absorbed.Value() - absorbedBefore; d != 2 {
		t.Fatalf("absorbed metric delta = %d, want 2", d)
	}

	var bh *FeedHealth
	for _, f := range health.Snapshot() {
		if f.Feed == "bgp" {
			fh := f
			bh = &fh
		}
	}
	if bh == nil {
		t.Fatal("health snapshot has no bgp feed entry")
	}
	if bh.Status != FeedEOF {
		t.Fatalf("bgp feed status = %q, want %q", bh.Status, FeedEOF)
	}
	if bh.Retries != 2 || bh.Absorbed != 2 || bh.Replayed != 4 {
		t.Fatalf("bgp feed health = %+v, want retries 2, absorbed 2, replayed 4", bh)
	}
	// The second break happens inside window 9, so the last resume point is
	// that window's start.
	if bh.ResumedFrom != 9*900 {
		t.Fatalf("ResumedFrom = %d, want %d", bh.ResumedFrom, 9*900)
	}
}

// erroringTraceSource fails every Read with a fixed error.
type erroringTraceSource struct{ err error }

func (s *erroringTraceSource) Read() (*Traceroute, error) { return nil, s.err }

// TestPipelineDeadFeedContinues: with ContinueOnDeadFeed, a permanently
// failing traceroute feed is declared dead but the BGP feed keeps flowing —
// windows close, signals fire — and the dead feed's error surfaces only in
// the final return value (and immediately in health/metrics).
func TestPipelineDeadFeedContinues(t *testing.T) {
	deadBefore := metFeedTrace.dead.Value()
	retriesBefore := metFeedTrace.retries.Value()

	m, key := recoveryMonitor(t)
	permErr := errors.New("result archive lost")
	health := NewPipelineHealth()
	var sigs []Signal
	err := RunPipeline(context.Background(), m, PipelineConfig{
		Updates: bgp.NewSliceSource(recoveryUpdates(t)),
		Traces:  &erroringTraceSource{err: permErr},
		Sink:    func(s Signal) { sigs = append(sigs, s) },
		Retry:   RetryPolicy{MaxRetries: 3, Backoff: time.Millisecond, ContinueOnDeadFeed: true},
		Health:  health,
	})
	if err == nil || !errors.Is(err, permErr) {
		t.Fatalf("err = %v; want the dead feed's error reported at the end", err)
	}
	if !strings.Contains(err.Error(), "traceroute feed") {
		t.Fatalf("err = %v; want it attributed to the traceroute feed", err)
	}
	found := false
	for _, s := range sigs {
		if s.Technique == TechBGPASPath && s.Key == key {
			found = true
		}
	}
	if !found {
		t.Fatalf("surviving BGP feed produced no AS-path signal (got %v)", sigs)
	}
	if d := metFeedTrace.dead.Value() - deadBefore; d != 1 {
		t.Fatalf("feeds_dead metric delta = %d, want 1", d)
	}
	// A permanent error must not burn retry budget.
	if d := metFeedTrace.retries.Value() - retriesBefore; d != 0 {
		t.Fatalf("retries metric delta = %d, want 0 for a permanent error", d)
	}
	for _, f := range health.Snapshot() {
		if f.Feed == "traceroute" {
			if f.Status != FeedDead {
				t.Fatalf("traceroute feed status = %q, want %q", f.Status, FeedDead)
			}
			if !strings.Contains(f.LastError, "result archive lost") {
				t.Fatalf("traceroute feed LastError = %q, want the permanent error", f.LastError)
			}
		}
	}
}

// TestPipelineCancelDuringBackoff: context cancellation preempts a backoff
// sleep — a pipeline stuck retrying a refusing feed with minute-scale
// backoff returns as soon as the context fires, not when the timer does.
func TestPipelineCancelDuringBackoff(t *testing.T) {
	m, _ := recoveryMonitor(t)
	ru := faultfeed.NewReplayableUpdates(recoveryUpdates(t),
		faultfeed.ReplayConfig{OpenErrs: 100})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := RunPipeline(ctx, m, PipelineConfig{
		OpenUpdates: ru.Open,
		Retry:       RetryPolicy{MaxRetries: 3, Backoff: time.Minute},
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v; want context deadline", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v; backoff sleep was not preempted", elapsed)
	}
}

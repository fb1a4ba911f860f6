package main

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"testing"

	"rrr"
	"rrr/internal/bgp"
)

// tinySizes is the size the tests run at: QuickScale, 8 windows.
func tinySizes() sizes {
	return sizes{
		Name: "tiny", Probes: 40, Anchors: 12, PublicPerWindow: 80,
		Windows: 8, PrimeWindows: 4,
		StormPerWindow: 200, StormThin: 16, WireWindows: 6, WirePerWindow: 100,
		StepWindows: 3, StepRequests: 4, WarmupRequests: 50, RoutedWarmup: 50,
		BatchKeys: 16, Bodies: 64,
		RefWindows: 6, TraceWindows: 6, TraceRequests: 100,
		TraceSerialWindows: 2, TraceStepWindows: 2,
		MinTail: 0,
	}
}

func tinyConfig(seed int64) runConfig {
	return runConfig{Seed: seed, Seconds: 0.2, Size: tinySizes()}
}

func tinyStorm(t *testing.T, seed int64) (*input, *input) {
	t.Helper()
	cfg := tinyConfig(seed)
	rec, err := midInput(cfg, cfg.Size.Windows)
	if err != nil {
		t.Fatal(err)
	}
	storm, err := amplify(rec, seed, cfg.Size.StormPerWindow, cfg.Size.StormThin)
	if err != nil {
		t.Fatal(err)
	}
	return rec, storm
}

// Same seed, same bytes; another seed, other bytes — for the recording,
// the storm slab and the request bodies alike.
func TestInputsFollowTheSeed(t *testing.T) {
	recA, stormA := tinyStorm(t, 7)
	recB, stormB := tinyStorm(t, 7)
	recC, stormC := tinyStorm(t, 8)
	if recA.digest() != recB.digest() || stormA.digest() != stormB.digest() {
		t.Fatal("the same seed produced different inputs")
	}
	if recA.digest() == recC.digest() || stormA.digest() == stormC.digest() {
		t.Fatal("different seeds produced the same inputs")
	}

	z := tinySizes()
	d, err := newDaemon(recA.sc, daemonOpts{})
	if err != nil {
		t.Fatal(err)
	}
	a := requestsDigest(buildRequests(7, d.keys, z))
	if b := requestsDigest(buildRequests(7, d.keys, z)); a != b {
		t.Fatal("the same seed produced different request bodies")
	}
	if c := requestsDigest(buildRequests(8, d.keys, z)); a == c {
		t.Fatal("different seeds produced the same request bodies")
	}
}

// The storm is time-ordered, holds the stated number of synthetic updates
// per window on top of the simulator's, and mixes its classes ~60/25/15.
func TestStormShape(t *testing.T) {
	rec, storm := tinyStorm(t, 3)
	z := tinySizes()
	if len(storm.slabWin) != z.Windows+1 || len(storm.slabCount) != z.Windows {
		t.Fatalf("storm indexes %d/%d windows, want %d", len(storm.slabWin)-1, len(storm.slabCount), z.Windows)
	}
	var lastTime int64 = math.MinInt64
	var prev bgp.Update
	total := 0
	for w := 0; w < z.Windows; w++ {
		ups, err := storm.windowUpdates(w, nil)
		if err != nil {
			t.Fatal(err)
		}
		real := rec.uWin[w+1] - rec.uWin[w]
		// The generator may drop a record identical to its predecessor
		// (the pipeline's adjacent dedup would); nothing else is lost.
		if len(ups) > real+z.StormPerWindow || len(ups) < real+z.StormPerWindow-2 {
			t.Fatalf("window %d holds %d updates, want %d simulated + %d synthetic", w, len(ups), real, z.StormPerWindow)
		}
		if len(ups) != storm.slabCount[w] {
			t.Fatalf("window %d: slab holds %d updates, index says %d", w, len(ups), storm.slabCount[w])
		}
		for i, u := range ups {
			if u.Time < lastTime {
				t.Fatalf("window %d update %d goes back in time (%d after %d)", w, i, u.Time, lastTime)
			}
			if storm.windowOf(u.Time) != w {
				t.Fatalf("window %d holds an update stamped for window %d", w, storm.windowOf(u.Time))
			}
			if total > 0 && updateEqual(prev, u) {
				t.Fatalf("window %d update %d repeats its predecessor exactly", w, i)
			}
			lastTime, prev = u.Time, u
			total++
		}
	}
	synth := storm.classes[stormDup] + storm.classes[stormCommunity] + storm.classes[stormFlap]
	if synth != z.Windows*z.StormPerWindow {
		t.Fatalf("%d synthetic updates, want %d", synth, z.Windows*z.StormPerWindow)
	}
	for class, want := range map[int]float64{stormDup: 0.60, stormCommunity: 0.25, stormFlap: 0.15} {
		if got := float64(storm.classes[class]) / float64(synth); math.Abs(got-want) > 0.05 {
			t.Errorf("class %d is %.3f of the storm, want %.2f ± 0.05", class, got, want)
		}
	}
	// The slab is what the pipeline's reader decodes: it must hold exactly
	// the indexed records and end cleanly.
	br := bgp.NewBinaryReader(bytes.NewReader(storm.slab))
	n := 0
	for {
		if _, err := br.Read(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != total {
		t.Fatalf("slab decodes to %d updates, windows hold %d", n, total)
	}
	// Thinned trace feed and corpus.
	if want := (len(rec.traces) - storm.thinOff + z.StormThin - 1) / z.StormThin; len(storm.traces) != want {
		t.Fatalf("storm keeps %d traces of %d, want %d", len(storm.traces), len(rec.traces), want)
	}
}

func TestPercentileRefusesAThinTail(t *testing.T) {
	s := make([]float64, 150)
	for i := range s {
		s[i] = float64(i)
	}
	if _, err := percentile(s, 0.95, 10); err == nil {
		t.Fatal("p95 of 150 samples has 8 beyond it and was not refused")
	}
	if v, err := percentile(s, 0.90, 10); err != nil || v != 134 {
		t.Fatalf("p90 of 0..149 = %v, %v; want 134", v, err)
	}
	if _, err := percentile(nil, 0.5, 0); err == nil {
		t.Fatal("a percentile of nothing was not refused")
	}
}

func TestParseStaleHead(t *testing.T) {
	h, err := parseStaleHead([]byte(`{"stale":12,"count":64,"verdicts":[{"key"`))
	if err != nil || h.stale != 12 || h.count != 64 || h.partial {
		t.Fatalf("got %+v, %v", h, err)
	}
	h, err = parseStaleHead([]byte(`{"stale":0,"count":64,"unavailablePartitions":[3],"verd`))
	if err != nil || !h.partial {
		t.Fatalf("a partial answer was read as whole: %+v, %v", h, err)
	}
	if _, err := parseStaleHead([]byte(`{"error":"overloaded"}`)); err == nil {
		t.Fatal("an error body parsed as a verdict batch")
	}
}

// The signal chain must see every field of a Signal: the self-checks that
// compare shard counts and transports rest on it. Changing any one field,
// found by reflection so a field added later is covered too, must change
// the digest.
func TestSigChainHashesEveryField(t *testing.T) {
	digest := func(s rrr.Signal) [32]byte {
		c := newSigChain()
		c.add(s)
		c.closeWindow(0)
		return c.window[0].digest
	}
	base := rrr.Signal{Borders: []int{1}, Detail: "x"}
	want := digest(base)
	rt := reflect.TypeOf(base)
	for i := 0; i < rt.NumField(); i++ {
		s := base
		s.Borders = []int{1}
		changeField(t, reflect.ValueOf(&s).Elem().Field(i))
		if digest(s) == want {
			t.Errorf("changing Signal.%s leaves the digest unchanged", rt.Field(i).Name)
		}
	}
}

func changeField(t *testing.T, f reflect.Value) {
	t.Helper()
	switch f.Kind() {
	case reflect.Int, reflect.Int64:
		f.SetInt(f.Int() + 1)
	case reflect.Uint32:
		f.SetUint(f.Uint() + 1)
	case reflect.Float64:
		f.SetFloat(f.Float() + 0.5)
	case reflect.Bool:
		f.SetBool(!f.Bool())
	case reflect.String:
		f.SetString(f.String() + "y")
	case reflect.Slice:
		f.Set(reflect.Append(f, reflect.Zero(f.Type().Elem())))
	case reflect.Struct:
		changeField(t, f.Field(f.NumField()-1))
	default:
		t.Fatalf("no way to change a %s field", f.Kind())
	}
}

package core_test

import (
	"io"
	"reflect"
	"testing"

	"rrr/internal/bordermap"
	"rrr/internal/core"
	"rrr/internal/experiments"
	"rrr/internal/traceroute"
)

// TestHopTableMatchesServices is the hop table's differential over the
// simulator's feed with IXP joins: every public traceroute's patched IP
// path and border path through the engine's table equal the ones built by
// IP with traceroute.Patcher and bordermap.BorderPath asking the services
// directly, and the services' generation moves during the run.
func TestHopTableMatchesServices(t *testing.T) {
	sc := experiments.QuickScale()
	sc.Days = 2
	sc.PublicPerWindow = 40
	sc.SimCfg.IXPJoinsPerDay = 40
	env := experiments.NewDaemonEnv(sc, 0)
	gen, ok := env.Mapper.(interface{ Generation() uint64 })
	if !ok {
		t.Fatal("the daemon environment's mapper has no Generation")
	}
	eng := core.NewEngine(core.DefaultConfig(), env.Mapper, env.Aliases, env.Geo, env.Rel)
	patcher := traceroute.NewPatcher()

	last := gen.Generation()
	var traces, hops, borders, ixpBorders, changes int
	for {
		tr, err := env.Traces.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if g := gen.Generation(); g != last {
			last = g
			changes++
		}
		path, bs := eng.PreparedTrace(tr)

		patcher.Observe(tr)
		want := tr.Clone()
		patcher.Patch(want)
		wantPath := want.IPPath()
		wantBorders := bordermap.BorderPath(want, env.Mapper, env.Aliases)
		if !reflect.DeepEqual(path, wantPath) {
			t.Fatalf("trace %d (%s): IP path %x through the table, %x by IP", traces, tr, path, wantPath)
		}
		if len(bs) != len(wantBorders) || (len(bs) > 0 && !reflect.DeepEqual(bs, wantBorders)) {
			t.Fatalf("trace %d (%s): border path %+v through the table, %+v from the services", traces, tr, bs, wantBorders)
		}
		traces++
		hops += len(path)
		borders += len(bs)
		for _, b := range bs {
			if b.IXP != 0 {
				ixpBorders++
			}
		}
	}
	t.Logf("%d traces, %d hops, %d crossings (%d at an IXP), %d generation changes", traces, hops, borders, ixpBorders, changes)
	if changes == 0 {
		t.Fatal("no IXP join moved the services' generation: the run does not exercise the table's invalidation")
	}
	if ixpBorders == 0 {
		t.Fatal("no crossing at an IXP: the run does not exercise member resolution")
	}
}

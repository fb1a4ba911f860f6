package core

import (
	"math/rand"
	"reflect"
	"testing"

	"rrr/internal/bgp"
	"rrr/internal/corpus"
	"rrr/internal/trie"
)

// foldModel is the window fold as a plain per-window map over every
// (VP, prefix) the feed touches, fed from a RIB of its own: a state per
// touched pair, watched or not, started at the pair's first change.
type foldModel struct {
	rib *bgp.RIB
	win map[vpPrefix]*vpWindowState
}

func (m *foldModel) observe(u bgp.Update) {
	if bgp.FilterTooSpecific(u.Prefix) {
		return
	}
	c := m.rib.Apply(u)
	key := vpPrefix{vp: c.VP, pf: u.Prefix}
	st := m.win[key]
	if st == nil {
		st = &vpWindowState{}
		if c.HasPrev {
			st.startComms, st.startOK = c.Prev.Communities, true
		}
		m.win[key] = st
	}
	switch c.Kind {
	case bgp.ChangeWithdrawn:
	case bgp.ChangeDuplicate:
		st.dup = true
		st.paths = append(st.paths, c.Cur.ASPath)
	case bgp.ChangeCommunities, bgp.ChangeASPath, bgp.ChangeNew:
		st.paths = append(st.paths, c.Cur.ASPath)
	}
}

// sameFold reports whether every fold cell of e holds the model's state for
// its pair: linked exactly when the window touched the pair, with the same
// duplicate bit, update paths in order and window-start communities.
func (m *foldModel) sameFold(e *Engine) (vpPrefix, bool) {
	for pf, c := range e.sh.cells {
		want, got := m.win[pf], c.win
		if want == nil || got == nil {
			if want != got {
				return pf, false
			}
			continue
		}
		if got.dup != want.dup || got.startOK != want.startOK ||
			!got.startComms.Equal(want.startComms) || len(got.paths) != len(want.paths) {
			return pf, false
		}
		for i := range got.paths {
			if !got.paths[i].Equal(want.paths[i]) {
				return pf, false
			}
		}
	}
	return vpPrefix{}, true
}

// TestFoldMatchesMapModel: window state exists only for watched pairs, and
// a pair first watched mid-window replays the window's log. A seeded feed
// over watched, later-watched and never-watched pairs, with registrations
// at random points inside windows (new pairs creating cells, re-registered
// pairs reusing them), must leave every cell after every update equal to a
// map fold of every pair, and every close's signals equal to those of an
// engine that made the same registrations before the window's first
// update. Before a registration the feed only makes round trips (a
// duplicate, or a change and its revert), so the RIB a registration reads
// is the window-start RIB in both engines; the changes that stick come
// after the window's last registration.
func TestFoldMatchesMapModel(t *testing.T) {
	const (
		w       = int64(900)
		windows = 90
		nVPs    = 12
	)
	rng := rand.New(rand.NewSource(50))
	te, ref := newEnv(t), newEnv(t)
	model := &foldModel{rib: bgp.NewRIB(), win: map[vpPrefix]*vpWindowState{}}

	// 4.0.0.0/8 is watched from the start; 4.{1..6}.0.0/16 only once a
	// pair towards them registers; 77.{0..7}.0.0/16 never.
	const watchable = 7
	prefixes := []trie.Prefix{pfx(t, "4.0.0.0/8")}
	for p := 1; p < watchable; p++ {
		prefixes = append(prefixes, trie.MakePrefix(4<<24|uint32(p)<<16, 16))
	}
	for p := 0; p < 8; p++ {
		prefixes = append(prefixes, trie.MakePrefix(77<<24|uint32(p)<<16, 16))
	}
	comm, extra := bgp.MakeCommunity(3, 100), bgp.MakeCommunity(3, 51000)
	commSets := []bgp.Communities{nil, {comm}, {comm, extra}}
	paths := func(v int) [2]bgp.Path {
		return [2]bgp.Path{{bgp.ASN(50 + v), 2, 3, 4}, {bgp.ASN(50 + v), 2, 9, 4}}
	}
	type route struct {
		routed      bool
		path, comms int
	}
	routes := make([][]route, nVPs)
	tm := int64(0)
	send := func(v, p int, rt route) {
		tm++
		u := bgp.Update{Time: tm, PeerIP: uint32(50+v)<<24 | 9, PeerAS: bgp.ASN(50 + v), Prefix: prefixes[p]}
		if rt.routed {
			u.Type, u.ASPath, u.Communities = bgp.Announce, paths(v)[rt.path], commSets[rt.comms]
		} else {
			u.Type = bgp.Withdraw
		}
		te.e.ObserveBGP(u)
		ref.e.ObserveBGP(u)
		model.observe(u)
		for name, e := range map[string]*Engine{"mid-window": te.e, "reference": ref.e} {
			if pf, ok := model.sameFold(e); !ok {
				t.Fatalf("%s engine, update %d (%+v): cell %v holds %+v, the map fold %+v",
					name, tm, u, pf, e.sh.cells[pf].win, model.win[pf])
			}
		}
	}
	for v := range routes {
		routes[v] = make([]route, len(prefixes))
		for p := range prefixes {
			// The /16s towards the corpus start with some VPs unrouted.
			if p == 0 || p >= watchable || (v+p)%3 != 0 {
				routes[v][p] = route{routed: true, comms: v % 2}
				send(v, p, routes[v][p])
			}
		}
	}

	// Each engine processes its own copy of a pool of corpus traceroutes:
	// two pairs towards each watchable prefix, drawn from a prefix of the
	// pool that grows through the run, so new pairs keep arriving.
	type pair struct{ te, ref *corpus.Entry }
	var pool []pair
	for p := uint32(0); p < watchable; p++ {
		for i := uint32(1); i <= 2; i++ {
			k := p*2 + i
			dst := 4<<24 | p<<16 | 100 + i
			process := func(corp *corpus.Corpus) *corpus.Entry {
				en, err := corp.Process(mkTraceIPs(0, 1<<24|k, dst,
					1<<24|(k+50), 2<<24|1, 3<<24|1, 4<<24|2, dst))
				if err != nil {
					t.Fatal(err)
				}
				return en
			}
			pool = append(pool, pair{process(te.corp), process(ref.corp)})
		}
	}
	for _, pr := range pool[:2] {
		te.e.AddCorpusEntry(pr.te)
		ref.e.AddCorpusEntry(pr.ref)
	}

	var signals, created, caughtUp, reused int
	for win := 0; win < windows; win++ {
		end := int64(win) * w
		tm = end
		var regs []pair
		open := min(len(pool), 2+win/4)
		if win > 0 {
			for n := rng.Intn(4); n > 0; n-- {
				regs = append(regs, pool[rng.Intn(open)])
			}
		}
		for _, pr := range regs {
			ref.e.AddCorpusEntry(pr.ref)
		}
		segments := 8 + rng.Intn(24)
		at := make([]int, len(regs))
		for i := range at {
			at[i] = segments/2 + rng.Intn(segments-segments/2)
		}
		for s := 0; s < segments; s++ {
			for i, pr := range regs {
				if at[i] != s {
					continue
				}
				before := len(te.e.sh.cells)
				cells := map[*vpCell]bool{}
				for _, c := range te.e.sh.cells {
					cells[c] = true
				}
				te.e.AddCorpusEntry(pr.te)
				if len(te.e.sh.cells) == before {
					reused++
				}
				for _, c := range te.e.sh.cells {
					if !cells[c] {
						created++
						if c.win != nil {
							caughtUp++
						}
					}
				}
				if pf, ok := model.sameFold(te.e); !ok {
					t.Fatalf("window %d: after a registration cell %v holds %+v, the map fold %+v",
						win, pf, te.e.sh.cells[pf].win, model.win[pf])
				}
			}
			// One round trip on a random pair, most often towards the corpus
			// and its newest pairs.
			v, p := rng.Intn(nVPs), rng.Intn(len(prefixes))
			switch rng.Intn(4) {
			case 0, 1:
				p = (open - 1) / 2
			case 2:
				p = rng.Intn(watchable)
			}
			rt := routes[v][p]
			switch r := rng.Intn(4); {
			case !rt.routed:
				send(v, p, route{routed: true, path: rng.Intn(2), comms: rng.Intn(3)})
				send(v, p, rt)
			case r == 0:
				for n := 1 + rng.Intn(3); n > 0; n-- {
					send(v, p, rt)
				}
			case r == 1:
				alt := rt
				alt.path = 1 - rt.path
				send(v, p, alt)
				if rng.Intn(2) == 0 {
					send(v, p, alt)
				}
				send(v, p, rt)
			case r == 2:
				alt := rt
				alt.comms = (rt.comms + 1 + rng.Intn(2)) % 3
				send(v, p, alt)
				send(v, p, rt)
			default:
				send(v, p, route{})
				send(v, p, rt)
			}
		}
		// Changes that stick, after the window's last registration.
		for n := rng.Intn(6); n > 0; n-- {
			v, p := rng.Intn(nVPs), rng.Intn(len(prefixes))
			rt := &routes[v][p]
			switch rng.Intn(4) {
			case 0:
				rt.path = 1 - rt.path
			case 1:
				rt.comms = (rt.comms + 1) % 3
			case 2:
				rt.routed = !rt.routed
			}
			send(v, p, *rt)
		}

		got, want := te.e.CloseWindow(end), ref.e.CloseWindow(end)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("window %d with %d mid-window registrations:\n got  %v\n want %v", win, len(regs), got, want)
		}
		signals += len(got)
		clear(model.win)
		if pf, ok := model.sameFold(te.e); !ok {
			t.Fatalf("window %d: cell %v still linked after the close", win, pf)
		}
	}
	t.Logf("%d windows, %d signals; mid-window registrations created %d cells (%d caught up from the log) and reused cells %d times",
		windows, signals, created, caughtUp, reused)
	if signals == 0 || caughtUp == 0 || reused == 0 {
		t.Fatalf("the feed left something unexercised: %d signals, %d log catch-ups, %d registrations reusing cells",
			signals, caughtUp, reused)
	}
}

// TestDumpWindowDoesNotPinFold: every daemon starts with a table dump whose
// window touches one (VP, prefix) per route, almost none of them watched.
// After that window, and after a dirty and a quiet window that follow it,
// the window-state pool holds at most twice the states the window used
// (plus a floor), and the log's storage at most four times the records it
// took (plus a floor). A fold that kept state per touched pair pooled one
// state per dump route for good.
func TestDumpWindowDoesNotPinFold(t *testing.T) {
	const dump = 20000
	te := newEnv(t)
	te.primeVPs(t)
	for i := 0; i < dump; i++ {
		te.e.ObserveBGP(bgp.Update{
			Time: 1, PeerIP: 7<<24 | 9, PeerAS: 7, Type: bgp.Announce,
			Prefix: trie.MakePrefix(10<<24|uint32(i)<<8, 24), ASPath: bgp.Path{7, 10},
		})
	}
	te.standardEntry(t)
	sh := te.e.sh
	ws := int64(0)
	closeAndCheck := func(what string) {
		t.Helper()
		touched, logged := len(sh.touched), len(sh.winLog)
		te.e.CloseWindow(ws)
		ws += 900
		if n := len(sh.freeStates); n > 2*touched+64 {
			t.Errorf("%s: the pool holds %d window states after a window that used %d", what, n, touched)
		}
		if n := cap(sh.winLog); n > 4*logged+1024 {
			t.Errorf("%s: the log keeps room for %d records after a window that logged %d", what, n, logged)
		}
		t.Logf("%s: used %d states, logged %d; pool %d, log capacity %d", what, touched, logged, len(sh.freeStates), cap(sh.winLog))
	}
	if len(sh.touched) == 0 {
		t.Fatal("the pair's cells did not replay the dump window's routes")
	}
	closeAndCheck("dump window")
	te.e.ObserveBGP(announce(t, ws+1, "5.0.0.9", 5, "4.0.0.0/8", bgp.Path{5, 2, 9, 4}, nil))
	for i := 0; i < 100; i++ {
		te.e.ObserveBGP(bgp.Update{
			Time: ws + 2, PeerIP: 7<<24 | 9, PeerAS: 7, Type: bgp.Announce,
			Prefix: trie.MakePrefix(10<<24|uint32(i)<<8, 24), ASPath: bgp.Path{7, 10},
		})
	}
	closeAndCheck("dirty window")
	closeAndCheck("quiet window")
}

// TestUnwatchedStormAllocs is the steady-storm budget: once a window has
// sized the log, a window of changes to pairs no monitor watches, and its
// close, allocate nothing. The changes go straight to the fold, so RIB
// clones of changed attributes do not count.
func TestUnwatchedStormAllocs(t *testing.T) {
	te := newEnv(t)
	te.primeVPs(t)
	te.standardEntry(t)
	ws := te.warm(t, 0, 45)
	const storm = 2000
	us, cs := make([]bgp.Update, storm), make([]bgp.Change, storm)
	kinds := []bgp.ChangeKind{bgp.ChangeDuplicate, bgp.ChangeASPath, bgp.ChangeWithdrawn, bgp.ChangeNew}
	prev, cur := bgp.Route{ASPath: bgp.Path{7, 10}}, bgp.Route{ASPath: bgp.Path{7, 8, 10}}
	for i := range us {
		us[i] = bgp.Update{Time: ws + 1, Prefix: trie.MakePrefix(10<<24|uint32(i%500)<<8, 24)}
		c := bgp.Change{Kind: kinds[i%len(kinds)], VP: bgp.VPKey{PeerIP: uint32(7+i%3)<<24 | 9, PeerAS: bgp.ASN(7 + i%3)}}
		c.HasPrev = c.Kind != bgp.ChangeNew
		if c.HasPrev {
			c.Prev = prev
		}
		if c.Kind != bgp.ChangeWithdrawn {
			c.Cur = cur
		}
		cs[i] = c
	}
	window := func() {
		for i := range us {
			te.e.sh.observeBGPChange(us[i], cs[i])
		}
		te.e.CloseWindow(ws)
		ws += 900
	}
	window()
	if per := testing.AllocsPerRun(20, window) / storm; per > 0.01 {
		t.Fatalf("a window of unwatched changes allocates %.4f per change, budget 0.01", per)
	}
}

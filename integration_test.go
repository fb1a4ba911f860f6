package rrr

import (
	"bytes"
	"context"
	"testing"

	"rrr/internal/bgp"
	"rrr/internal/bordermap"
)

// TestMonitorFromMRTArchives proves the full ingestion chain used against
// real data: per-collector MRT archives → MRT reader → time-ordered merge →
// Pipeline → staleness signals.
func TestMonitorFromMRTArchives(t *testing.T) {
	aliases := bordermap.OracleFunc(func(v uint32) (int, bool) { return int(v), true })
	m, err := NewMonitor(Options{Mapper: facadeMapper{}, Aliases: aliases})
	if err != nil {
		t.Fatal(err)
	}

	// Two "collectors", each with one peer, written as MRT archives.
	mkArchive := func(vpIP string, vpAS ASN, paths map[int64][]ASN) []byte {
		var buf bytes.Buffer
		w := bgp.NewMRTWriter(&buf)
		p, _ := ParsePrefix("4.0.0.0/8")
		var times []int64
		for tm := range paths {
			times = append(times, tm)
		}
		// MRT archives are time ordered.
		for i := 0; i < len(times); i++ {
			for j := i + 1; j < len(times); j++ {
				if times[j] < times[i] {
					times[i], times[j] = times[j], times[i]
				}
			}
		}
		for _, tm := range times {
			if err := w.Write(Update{
				Time: tm, PeerIP: ip(t, vpIP), PeerAS: vpAS, Type: bgp.Announce,
				Prefix: p, ASPath: paths[tm],
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	// Collector A's peer keeps announcing the stable route every window;
	// collector B's peer shifts its path inside the monitored suffix at
	// window 45.
	pathsA := map[int64][]ASN{}
	for w := int64(1); w <= 46; w++ {
		pathsA[w*900+3] = []ASN{6, 3, 4}
	}
	pathsB := map[int64][]ASN{}
	for w := int64(1); w < 45; w++ {
		pathsB[w*900+7] = []ASN{5, 2, 3, 4}
	}
	pathsB[45*900+7] = []ASN{5, 2, 9, 4}
	pathsB[46*900+7] = []ASN{5, 2, 9, 4}

	arcA := mkArchive("6.0.0.9", 6, pathsA)
	arcB := mkArchive("5.0.0.9", 5, pathsB)

	// Prime from the first record of each archive (table state), then
	// track the corpus pair.
	m.ObserveBGP(announceUpd(t, 0, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 3, 4}))
	m.ObserveBGP(announceUpd(t, 0, "6.0.0.9", 6, "4.0.0.0/8", []ASN{6, 3, 4}))
	tr := trace(t, 0, "1.0.0.1", "4.0.0.9", "1.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.9")
	if err := m.Track(tr); err != nil {
		t.Fatal(err)
	}

	merged := bgp.NewMerger(
		bgp.NewMRTSource(bgp.NewMRTReader(bytes.NewReader(arcA))),
		bgp.NewMRTSource(bgp.NewMRTReader(bytes.NewReader(arcB))),
	)
	var got []Signal
	if err := RunPipeline(context.Background(), m, PipelineConfig{
		Updates: merged, Sink: func(s Signal) { got = append(got, s) },
	}); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range got {
		if s.Technique == TechBGPASPath && s.Key == tr.Key() {
			found = true
		}
	}
	if !found {
		t.Fatalf("MRT-fed pipeline produced no AS-path signal (got %v)", got)
	}
}

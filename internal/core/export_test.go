package core

import (
	"rrr/internal/bgp"
	"rrr/internal/bordermap"
	"rrr/internal/traceroute"
)

// PreparedTrace runs the engine's public-trace intake up to the shared
// series (patching evidence, hop table, border mapping) and returns copies
// of the patched IP path and the border path, for tests in package
// core_test.
func (e *Engine) PreparedTrace(t *traceroute.Traceroute) ([]uint32, []bordermap.BorderHop) {
	pt := e.prepareTrace(t)
	return append([]uint32(nil), pt.path...), append([]bordermap.BorderHop(nil), pt.borders...)
}

// clearActive resets a pair's signal state.
func (e *Engine) clearActive(k traceroute.Key) {
	delete(e.active, k)
	delete(e.restored, k)
}

// allowPrivatePeerSignals marks an AS as giving public and private peers
// equal local preference, enabling IXP signals through private peers
// (§4.2.3's learned exception).
func (e *Engine) allowPrivatePeerSignals(as bgp.ASN) {
	e.sh.allowPriv[as] = true
}

package core

import (
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

package wal

// Test-only access to the crash-injection hooks, so the external torture
// tests (package wal_test, which must be external to import rrr and
// rrr/internal/server without an import cycle) can drive them.

// ErrSimulatedCrash is the sentinel a crashed log returns from Append.
var ErrSimulatedCrash = errSimulatedCrash

// SetCrashAfterAppends arms the simulated crash: the append that would be
// number n+1 abandons the file descriptor (optionally flushing a partial
// prefix of the pending buffer, as a kernel that lost power mid-page
// would) and fails with ErrSimulatedCrash.
func (w *WAL) SetCrashAfterAppends(n uint64, partialBytes int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.crashAfterAppends = n
	w.crashPartialBytes = partialBytes
}

// SetFailSync makes every subsequent sync attempt fail with err.
func (w *WAL) SetFailSync(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.failSync = err
}

// frameHeaderLen is FrameHeaderLen under the name the tests use.
const frameHeaderLen = FrameHeaderLen

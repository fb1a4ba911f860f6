package server

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"rrr"
	"rrr/internal/obs"
)

// snapshotMagic and snapshotVersion identify the on-disk snapshot
// envelope. Bump the version when MonitorSnapshot changes incompatibly;
// loadSnapshot refuses files it does not understand rather than restoring
// garbage. Version 2 added the payload checksum; version-1 files (no
// checksum) still load for compatibility.
const (
	snapshotMagic   = "rrrd-snapshot"
	snapshotVersion = 2
)

// snapCRCTable is Castagnoli, matching the WAL's record checksums.
var snapCRCTable = crc32.MakeTable(crc32.Castagnoli)

// snapshotFile is the versioned on-disk envelope. JSON keeps the file
// debuggable with standard tools (jq) and diff-able across restarts; the
// corpus dominates the size and compresses well if the operator cares.
// Monitor stays a RawMessage so the checksum covers the exact payload
// bytes on both sides: what Write framed is what Load verifies, byte for
// byte, before any of it is unmarshaled.
type snapshotFile struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
	// CRC32C is the Castagnoli checksum of the Monitor payload bytes
	// (version >= 2). A snapshot that decays into different-but-still-
	// valid JSON would otherwise restore garbage without a murmur.
	CRC32C  uint32          `json:"crc32c,omitempty"`
	Monitor json.RawMessage `json:"monitor"`
}

// SnapshotInfo summarizes a written or restored snapshot.
type SnapshotInfo struct {
	Entries int
	Signals int
	Bytes   int
	// Watermark is the snapshot's open-window start: every feed record
	// before it is rolled up in the snapshot, so WAL segments wholly
	// before it are compactable. rrr.ResumeAll when the snapshotting
	// monitor had not opened a window yet.
	Watermark int64
}

// snapWatermark extracts a snapshot's compaction watermark.
func snapWatermark(snap *rrr.MonitorSnapshot) int64 {
	if !snap.Opened {
		return rrr.ResumeAll
	}
	return snap.Cur
}

// WriteSnapshot captures the monitor's restartable state and durably,
// atomically writes it to path: create temp → write → fsync → close →
// rename → fsync parent dir. The fsync before rename matters — rename
// alone orders only metadata, so on some filesystems a crash shortly
// after could surface an empty or truncated snapshot under the final
// name. The temp file is removed on any failure instead of lingering
// next to the good snapshot.
func WriteSnapshot(path string, mon *rrr.Monitor) (SnapshotInfo, error) {
	// The deferred Stop records failed attempts too: an operator staring
	// at a latency histogram that silently excludes the slow failing
	// writes would chase the wrong problem.
	timer := obs.NewTimer(metSnapWriteSeconds)
	defer timer.Stop()
	snap := mon.Snapshot()
	payload, err := json.Marshal(snap)
	if err != nil {
		metSnapWriteErrors.Inc()
		return SnapshotInfo{}, fmt.Errorf("server: encode snapshot: %w", err)
	}
	data, err := json.Marshal(snapshotFile{
		Magic:   snapshotMagic,
		Version: snapshotVersion,
		CRC32C:  crc32.Checksum(payload, snapCRCTable),
		Monitor: payload,
	})
	if err != nil {
		metSnapWriteErrors.Inc()
		return SnapshotInfo{}, fmt.Errorf("server: encode snapshot envelope: %w", err)
	}
	if err := writeFileDurable(path, data); err != nil {
		metSnapWriteErrors.Inc()
		return SnapshotInfo{}, fmt.Errorf("server: write snapshot: %w", err)
	}
	metSnapWrites.Inc()
	metSnapBytes.Set(int64(len(data)))
	return SnapshotInfo{
		Entries:   len(snap.Traces),
		Signals:   len(snap.Active),
		Bytes:     len(data),
		Watermark: snapWatermark(snap),
	}, nil
}

// snapRename and snapSync are the crash points of the durable-write
// sequence, indirected so tests can fail them at exactly the moment a real
// crash would (between temp write and rename, or at fsync) and prove the
// previous snapshot survives intact with no temp litter.
var (
	snapRename = os.Rename
	snapSync   = func(f *os.File) error { return f.Sync() }
)

// writeFileDurable performs the create→write→sync→close→rename dance,
// cleaning up the temp file on every failure path.
func writeFileDurable(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := snapSync(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := snapRename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// Persist the rename itself. Best-effort: some platforms refuse to
	// fsync directories, and the data file is already durable.
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		_ = dir.Sync()
		dir.Close()
	}
	return nil
}

// loadSnapshot reads and validates a snapshot file. Version-2 files must
// pass the payload checksum before any of the payload is unmarshaled;
// version-1 files predate the checksum and load as before.
func loadSnapshot(path string) (*rrr.MonitorSnapshot, error) {
	timer := obs.NewTimer(metSnapLoadSeconds)
	defer timer.Stop()
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("server: read snapshot: %w", err)
	}
	var f snapshotFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("server: decode snapshot %s: %w", path, err)
	}
	if f.Magic != snapshotMagic {
		return nil, fmt.Errorf("server: %s is not an rrrd snapshot", path)
	}
	if f.Version < 1 || f.Version > snapshotVersion {
		return nil, fmt.Errorf("server: snapshot %s has version %d; this build reads 1..%d",
			path, f.Version, snapshotVersion)
	}
	if len(f.Monitor) == 0 {
		return nil, fmt.Errorf("server: snapshot %s has no monitor state", path)
	}
	if f.Version >= 2 {
		if got := crc32.Checksum(f.Monitor, snapCRCTable); got != f.CRC32C {
			return nil, fmt.Errorf("server: snapshot %s payload checksum mismatch (got %08x, envelope says %08x)",
				path, got, f.CRC32C)
		}
	}
	snap := new(rrr.MonitorSnapshot)
	if err := json.Unmarshal(f.Monitor, snap); err != nil {
		return nil, fmt.Errorf("server: decode snapshot %s monitor state: %w", path, err)
	}
	metSnapLoads.Inc()
	return snap, nil
}

// RestoreSnapshot loads path and restores mon from it, returning the
// restored entry/signal counts and the compaction watermark.
func RestoreSnapshot(path string, mon *rrr.Monitor) (SnapshotInfo, error) {
	snap, err := loadSnapshot(path)
	if err != nil {
		return SnapshotInfo{}, err
	}
	if err := mon.Restore(snap); err != nil {
		return SnapshotInfo{}, err
	}
	return SnapshotInfo{
		Entries:   len(snap.Traces),
		Signals:   len(snap.Active),
		Watermark: snapWatermark(snap),
	}, nil
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"rrr/internal/faultfeed"
	"rrr/internal/server"
)

// lockedBuffer collects a child's stderr while the test polls it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// proc is one running daemon.
type proc struct {
	cmd *exec.Cmd
	log *lockedBuffer
}

func start(t *testing.T, bin string, args ...string) *proc {
	t.Helper()
	p := &proc{cmd: exec.Command(bin, args...), log: new(lockedBuffer)}
	p.cmd.Stderr = p.log
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		p.cmd.Wait()
	})
	return p
}

// waitLog blocks until the daemon has logged a line matching re and returns
// the first submatch (the whole match when re has no group).
func (p *proc) waitLog(t *testing.T, re string) string {
	t.Helper()
	rx := regexp.MustCompile(re)
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if m := rx.FindStringSubmatch(p.log.String()); m != nil {
			return m[len(m)-1]
		}
	}
	t.Fatalf("no log line matching %q after 60s; stderr:\n%s", re, p.log)
	return ""
}

// term delivers SIGTERM and requires a clean exit.
func (p *proc) term(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("exit after SIGTERM: %v; stderr:\n%s", err, p.log)
	}
}

func stats(t *testing.T, base string) server.Stats {
	t.Helper()
	var st server.Stats
	if err := json.Unmarshal([]byte(faultfeed.Get(t, base+"/v1/stats")), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

const (
	servingRE   = `rrrd: serving on (\S+)`
	exhaustedRE = `rrrd: feed exhausted after \d+ windows`
)

// TestBinary builds rrrd (and rrrfeedd) and drives them as processes: flag
// mistakes are refused before anything is bound or created, -h pins the
// flag set, a snapshot + WAL restart resumes where it stopped, and a daemon
// fed over the wire serves what an in-process-fed one does.
func TestBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two binaries and runs four simulated days")
	}
	bins := t.TempDir()
	rrrd, rrrfeedd := filepath.Join(bins, "rrrd"), filepath.Join(bins, "rrrfeedd")
	for bin, pkg := range map[string]string{rrrd: ".", rrrfeedd: "../rrrfeedd"} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}

	for _, tc := range []struct {
		name  string
		args  []string
		names string
	}{
		{"bad -scale", []string{"-scale", "huge"}, `scale "huge"`},
		{"-restore without -snapshot", []string{"-restore"}, "-restore needs -snapshot"},
		{"-worker-id out of range", []string{"-worker-id", "3", "-workers", "3"}, "-worker-id 3"},
		{"unknown -scenario kind", []string{"-scenario", "hijack-origin,nosuch"}, `-scenario kind "nosuch"`},
		{"bad -wal-fsync", []string{"-wal-fsync", "sometimes"}, "-wal-fsync"},
	} {
		t.Run(tc.name+" exits 1", func(t *testing.T) {
			walDir := filepath.Join(t.TempDir(), "wal")
			var stderr bytes.Buffer
			cmd := exec.Command(rrrd, append([]string{"-addr", "127.0.0.1:0", "-wal-dir", walDir}, tc.args...)...)
			cmd.Stderr = &stderr
			err := cmd.Run()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 1 || !strings.Contains(stderr.String(), tc.names) {
				t.Fatalf("err %v, stderr %q; want exit 1 naming %q", err, stderr.String(), tc.names)
			}
			if regexp.MustCompile(servingRE).MatchString(stderr.String()) {
				t.Fatalf("listener was bound before the flags were validated:\n%s", stderr.String())
			}
			if _, err := os.Stat(walDir); !os.IsNotExist(err) {
				t.Fatalf("WAL directory was created before the flags were validated (stat: %v)", err)
			}
		})
	}

	t.Run("-h lists the flag set", func(t *testing.T) {
		var usage bytes.Buffer
		cmd := exec.Command(rrrd, "-h")
		cmd.Stderr = &usage
		cmd.Run()
		var got []string
		for _, m := range regexp.MustCompile(`(?m)^  (-[a-z-]+)`).FindAllStringSubmatch(usage.String(), -1) {
			got = append(got, m[1])
		}
		// flag prints in lexical order.
		want := "-addr -days -debug-addr -feed-addr -feed-backoff -feed-retries " +
			"-max-inflight -pace -partitions -restore -scale -scenario -scenario-seed -seed -snapshot " +
			"-v -wal-dir -wal-fsync -wal-segment-bytes -worker-id -workers"
		if strings.Join(got, " ") != want {
			t.Fatalf("flags = %v\nwant    %s", got, want)
		}
	})

	t.Run("snapshot and wal restart resumes", func(t *testing.T) {
		dir := t.TempDir()
		args := []string{"-addr", "127.0.0.1:0", "-days", "1",
			"-snapshot", filepath.Join(dir, "rrr.snap"), "-wal-dir", filepath.Join(dir, "wal")}

		p := start(t, rrrd, args...)
		base := "http://" + p.waitLog(t, servingRE)
		p.waitLog(t, exhaustedRE)
		faultfeed.Get(t, base+"/readyz")
		first := stats(t, base)
		if first.TotalSignals == 0 || first.StaleKeys == 0 || first.WAL == nil {
			t.Fatalf("first run stats %+v; the restart would prove nothing", first)
		}
		p.term(t)

		p = start(t, rrrd, append(args, "-restore")...)
		base = "http://" + p.waitLog(t, servingRE)
		p.waitLog(t, exhaustedRE)
		faultfeed.Get(t, base+"/readyz")
		second := stats(t, base)
		p.term(t)

		// Nothing was left to ingest: the restart closes the one open
		// window it resumed in and changes nothing else.
		want := first
		want.WindowsClosed++
		want.WAL, second.WAL = nil, nil
		if !reflect.DeepEqual(second, want) {
			t.Fatalf("stats after -restore:\n got %+v\nwant %+v", second, want)
		}
	})

	t.Run("wire-fed equals in-process-fed", func(t *testing.T) {
		inproc := start(t, rrrd, "-addr", "127.0.0.1:0", "-days", "1")
		feed := start(t, rrrfeedd, "-addr", "127.0.0.1:0", "-days", "1")
		feedAddr := feed.waitLog(t, `rrrfeedd: serving update\+trace streams on (\S+)`)
		wire := start(t, rrrd, "-addr", "127.0.0.1:0", "-days", "1", "-feed-addr", feedAddr)

		wantBase := "http://" + inproc.waitLog(t, servingRE)
		gotBase := "http://" + wire.waitLog(t, servingRE)
		inproc.waitLog(t, exhaustedRE)
		wire.waitLog(t, exhaustedRE)
		faultfeed.Sides{Want: "inproc", Got: "wire"}.Compare(t, faultfeed.ReadSurfaces(t, wantBase), faultfeed.ReadSurfaces(t, gotBase))
		inproc.term(t)
		wire.term(t)
		feed.term(t)
	})
}

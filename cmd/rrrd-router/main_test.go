package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestBinary builds rrrd-router and drives it as a process: a missing
// worker list is refused naming the flag, the deleted -heartbeat and
// -max-batch flags are rejected, and -h lists exactly the supported flags.
func TestBinary(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "rrrd-router")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// run returns the process's exit code and stderr.
	run := func(t *testing.T, args ...string) (int, string) {
		t.Helper()
		var stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var ee *exec.ExitError
		if err != nil && !errors.As(err, &ee) {
			t.Fatalf("run %v: %v", args, err)
		}
		return cmd.ProcessState.ExitCode(), stderr.String()
	}

	t.Run("no workers exits 1", func(t *testing.T) {
		if code, msg := run(t, "-workers", ""); code != 1 || !strings.Contains(msg, "-workers") {
			t.Fatalf("exit %d, stderr %q; want 1 naming -workers", code, msg)
		}
	})

	for _, gone := range [][]string{{"-heartbeat", "1s"}, {"-max-batch", "5"}} {
		t.Run("removed flag "+gone[0]+" exits 2", func(t *testing.T) {
			if code, msg := run(t, gone...); code != 2 || !strings.Contains(msg, "flag provided but not defined") {
				t.Fatalf("exit %d, stderr %q; want 2 (flag not defined)", code, msg)
			}
		})
	}

	t.Run("-h lists the flag set", func(t *testing.T) {
		_, usage := run(t, "-h")
		var got []string
		for _, m := range regexp.MustCompile(`(?m)^  (-[a-z-]+)`).FindAllStringSubmatch(usage, -1) {
			got = append(got, m[1])
		}
		// flag prints in lexical order.
		want := "-addr -breaker-cooldown -breaker-threshold -max-inflight -partitions -ring -stream-backoff -timeout -workers"
		if strings.Join(got, " ") != want {
			t.Fatalf("flags = %v\nwant    %s", got, want)
		}
	})
}

package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBinary builds rrrbench and drives it as a process: an unknown -only
// entry must be refused with exit 2, and a short Table 2 run must succeed.
func TestBinary(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "rrrbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	t.Run("unknown -only entry exits 2", func(t *testing.T) {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, "-only", "table2,nosuch")
		cmd.Stderr = &stderr
		err := cmd.Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Fatalf("err = %v, want exit status 2", err)
		}
		if msg := stderr.String(); !strings.Contains(msg, `"nosuch"`) || !strings.Contains(msg, "table2") {
			t.Fatalf("stderr %q does not name the bad entry and the valid set", msg)
		}
	})

	t.Run("table2 quick run", func(t *testing.T) {
		out, err := exec.Command(bin, "-scale", "quick", "-days", "1", "-only", "table2").Output()
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if !bytes.Contains(out, []byte("=== Table 2: precision and coverage per technique (retrospective) ===")) {
			t.Fatalf("no Table 2 header in output:\n%s", out)
		}
	})
}

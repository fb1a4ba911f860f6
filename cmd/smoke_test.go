// Package cmd_test smoke-tests the commands that have no test of their own,
// and the simulator examples: each is built and driven as a process through
// its cheapest documented invocation. It also keeps fault injection out of
// every binary.
package cmd_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// One update in the Fig 3 text dump and one traceroute in the one-line text
// form, as the converters print them.
const (
	bgpText = `TIME: 1234567
TYPE: ANNOUNCE
FROM: 195.66.224.175 AS13030
ASPATH: 13030 1299 2914 18747
COMMUNITY: 13030:2 13030:1299 13030:51701
MED: 0
ANNOUNCE: 200.61.128.0/19

`
	traceText = "900 7 10.3.0.1 10.9.0.9: 10.3.0.2 * 10.9.0.9\n"
)

// TestSmoke runs each command's steps in order, feeding every step the
// file the previous step wrote (the converters thus read back a file they
// produced themselves, in their other format). Every step must exit 0 and
// the last must print something; want, when set, is its exact output.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds seven binaries")
	}
	for _, tc := range []struct {
		bin   string // package directory, relative to cmd
		seed  string
		steps [][]string
		want  string
	}{
		{bin: "rrrsim", steps: [][]string{{"topo"}}},
		{bin: "rrrmon", steps: [][]string{{"-days", "1", "-budget", "0"}}},
		{bin: "../examples/archivalreuse", steps: [][]string{{"-days", "1"}}},
		{bin: "../examples/corpusmaintainer", steps: [][]string{{"-days", "1"}}},
		{bin: "../examples/dtrackintegration", steps: [][]string{{"-days", "1"}}},
		{bin: "rrrbgp", seed: bgpText, want: bgpText, steps: [][]string{
			{"convert", "-from", "text", "-to", "mrt"},
			{"convert", "-from", "mrt", "-to", "text"},
		}},
		{bin: "rrrtrace", seed: traceText, want: traceText, steps: [][]string{
			{"convert", "-to", "json"},
			{"parse"},
		}},
	} {
		t.Run(filepath.Base(tc.bin), func(t *testing.T) {
			bin := filepath.Join(t.TempDir(), filepath.Base(tc.bin))
			if out, err := exec.Command("go", "build", "-o", bin, "./"+tc.bin).CombinedOutput(); err != nil {
				t.Fatalf("go build: %v\n%s", err, out)
			}
			// Step i reads file i-1 and writes file i.
			dir := t.TempDir()
			in := filepath.Join(dir, "0")
			if err := os.WriteFile(in, []byte(tc.seed), 0o644); err != nil {
				t.Fatal(err)
			}
			for i, args := range tc.steps {
				stdin, err := os.Open(in)
				if err != nil {
					t.Fatal(err)
				}
				defer stdin.Close()
				in = filepath.Join(dir, strconv.Itoa(i+1))
				stdout, err := os.Create(in)
				if err != nil {
					t.Fatal(err)
				}
				defer stdout.Close()
				var stderr bytes.Buffer
				cmd := exec.Command(bin, args...)
				cmd.Stdin, cmd.Stdout, cmd.Stderr = stdin, stdout, &stderr
				if err := cmd.Run(); err != nil {
					t.Fatalf("%s %v: %v\n%s", tc.bin, args, err, stderr.Bytes())
				}
			}
			data, err := os.ReadFile(in)
			if err != nil {
				t.Fatal(err)
			}
			if len(data) == 0 {
				t.Fatalf("%s printed nothing", tc.bin)
			}
			if tc.want != "" && string(data) != tc.want {
				t.Fatalf("%s round trip:\n got %q\nwant %q", tc.bin, data, tc.want)
			}
		})
	}
}

// TestNoFaultInjectionShipped holds the premise behind the pipeline's fault
// model: no binary under cmd/, and neither the rrr package nor the daemon
// assembly they run, depends on internal/faultfeed. Only tests inject
// faults, so the pipeline absorbs exactly what real feeds produce.
func TestNoFaultInjectionShipped(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "rrr/cmd/...", "rrr", "rrr/internal/daemon").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	deps := strings.Fields(string(out))
	if len(deps) < 10 {
		t.Fatalf("go list -deps listed only %v; the check is vacuous", deps)
	}
	for _, pkg := range deps {
		if pkg == "rrr/internal/faultfeed" {
			t.Fatal("a shipped package depends on rrr/internal/faultfeed; fault injection belongs in _test.go files")
		}
	}
}

// Package cmd_test smoke-tests the commands that have no test of their own,
// and the simulator examples: each is built and driven as a process through
// its cheapest documented invocation. It also keeps fault injection and the
// simulator out of the binaries that must not link them, keeps internal/
// free of exported names only tests reach, and keeps `make fuzz` in step
// with the fuzz targets in the tree.
package cmd_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
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
// faults, so the pipeline absorbs exactly what real feeds produce. It also
// keeps the stateless router from linking the simulator, the experiments
// or the daemon assembly: it serves what its workers render and never
// ingests a feed itself.
func TestNoFaultInjectionShipped(t *testing.T) {
	deps := goListDeps(t, "rrr/cmd/...", "rrr", "rrr/internal/daemon")
	if len(deps) < 10 {
		t.Fatalf("go list -deps listed only %v; the check is vacuous", deps)
	}
	for _, pkg := range deps {
		if pkg == "rrr/internal/faultfeed" {
			t.Fatal("a shipped package depends on rrr/internal/faultfeed; fault injection belongs in _test.go files")
		}
	}
	router := goListDeps(t, "rrr/cmd/rrrd-router")
	if len(router) < 10 {
		t.Fatalf("go list -deps listed only %v for the router; the check is vacuous", router)
	}
	for _, pkg := range router {
		switch pkg {
		case "rrr/internal/experiments", "rrr/internal/netsim", "rrr/internal/daemon":
			t.Errorf("rrr/cmd/rrrd-router depends on %s; the router must not link the simulator or the daemon", pkg)
		}
	}
}

// goListDeps returns the import paths `go list -deps` prints for pkgs.
func goListDeps(t *testing.T, pkgs ...string) []string {
	t.Helper()
	out, err := exec.Command("go", append([]string{"list", "-deps"}, pkgs...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	return strings.Fields(string(out))
}

// interfaceMethods are exported methods in internal/ that no code names
// because the standard library calls them through an interface. The list
// may only shrink: TestExportedSurfaceUsed fails on an entry that has
// become named or no longer exists.
var interfaceMethods = map[string]string{
	"internal/bgp.mergeHeap.Less":                "sort.Interface, via container/heap",
	"internal/bgp.mergeHeap.Swap":                "sort.Interface, via container/heap",
	"internal/bgp.mergeHeap.Push":                "heap.Interface",
	"internal/traceroute.Traceroute.MarshalJSON": "json.Marshaler",
	"internal/feedwire.connErr.Unwrap":           "errors.Is/As",
}

// repoRoot is the repository root, seen from this package's directory.
const repoRoot = ".."

// goFile is one parsed Go file and the repo-relative directory it is in.
type goFile struct {
	dir  string
	file *ast.File
}

// parseRepo parses the non-test .go files under the repo root, or the test
// files when tests is set, skipping testdata and hidden directories. The
// benchmark module is included: it builds against this one.
func parseRepo(t *testing.T, fset *token.FileSet, tests bool) []goFile {
	t.Helper()
	var files []goFile
	err := filepath.WalkDir(repoRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != repoRoot && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") != tests {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, err := filepath.Rel(repoRoot, filepath.Dir(path))
		if err != nil {
			return err
		}
		files = append(files, goFile{filepath.ToSlash(dir), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestExportedSurfaceUsed keeps internal/ from exporting what only tests
// reach. Every exported top-level declaration and method in a non-test
// internal/ file must be named by some non-test code outside its own
// declaration: the commands, the examples, the root package, the benchmark
// module, or its own package. A package-level name counts as named by a
// pkg.Name selector outside its package or by a bare identifier inside it;
// a method counts as named by any .Name selector. internal/faultfeed is
// exempt: only tests may import it (TestNoFaultInjectionShipped).
func TestExportedSurfaceUsed(t *testing.T) {
	fset := token.NewFileSet()
	files := parseRepo(t, fset, false)

	type decl struct {
		id         string // dir.Name or dir.Recv.Name
		dir, name  string
		method     bool
		start, end token.Pos
	}
	var decls []decl
	for _, f := range files {
		if !strings.HasPrefix(f.dir, "internal/") || f.dir == "internal/faultfeed" {
			continue
		}
		add := func(name *ast.Ident, node ast.Node) {
			if name.IsExported() {
				decls = append(decls, decl{id: f.dir + "." + name.Name, dir: f.dir, name: name.Name, start: node.Pos(), end: node.End()})
			}
		}
		for _, d := range f.file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, d)
				} else if d.Name.IsExported() {
					decls = append(decls, decl{id: f.dir + "." + recvName(d.Recv) + "." + d.Name.Name, dir: f.dir, name: d.Name.Name, method: true, start: d.Pos(), end: d.End()})
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, spec)
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							add(n, spec)
						}
					}
				}
			}
		}
	}
	if len(decls) < 300 {
		t.Fatalf("found only %d exported declarations in internal/; the scan is vacuous", len(decls))
	}

	// Every name use: package-level ones keyed by declaring dir and name,
	// method selectors by name alone.
	pkgUses := map[string][]token.Pos{}
	selUses := map[string][]token.Pos{}
	for _, f := range files {
		imports := map[string]string{}
		for _, im := range f.file.Imports {
			path, _ := strconv.Unquote(im.Path.Value)
			dir, ok := strings.CutPrefix(path, "rrr/")
			if !ok {
				continue
			}
			name := filepath.Base(dir)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = dir
		}
		sels := map[*ast.Ident]bool{}
		ast.Inspect(f.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sels[n.Sel] = true
				selUses[n.Sel.Name] = append(selUses[n.Sel.Name], n.Sel.Pos())
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						pkgUses[dir+"."+n.Sel.Name] = append(pkgUses[dir+"."+n.Sel.Name], n.Sel.Pos())
					}
				}
			case *ast.Ident:
				if !sels[n] {
					pkgUses[f.dir+"."+n.Name] = append(pkgUses[f.dir+"."+n.Name], n.Pos())
				}
			}
			return true
		})
	}

	stale := make(map[string]bool, len(interfaceMethods))
	for id := range interfaceMethods {
		stale[id] = true
	}
	var unused []string
	for _, d := range decls {
		uses := pkgUses[d.dir+"."+d.name]
		if d.method {
			uses = selUses[d.name]
		}
		named := false
		for _, pos := range uses {
			if pos < d.start || pos >= d.end {
				named = true
				break
			}
		}
		_, allowed := interfaceMethods[d.id]
		switch {
		case allowed && named:
			t.Errorf("%s is now named by non-test code; drop it from interfaceMethods", d.id)
		case !allowed && !named:
			unused = append(unused, fset.Position(d.start).String()+": "+d.id)
		}
		delete(stale, d.id)
	}
	for id := range stale {
		t.Errorf("interfaceMethods lists %s, which no longer exists; drop it", id)
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but named by no non-test code; delete it with its tests or unexport it", u)
	}
}

// recvName is the name of a method receiver's base type.
func recvName(fl *ast.FieldList) string {
	typ := fl.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr:
			typ = x.X
		case *ast.IndexListExpr:
			typ = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// TestFuzzTargetsListed keeps `make fuzz` in step with the tree: the
// Makefile's FUZZ_TARGETS must name exactly the func Fuzz* targets the
// test files declare, so adding or deleting one without the other fails
// here instead of only under `make fuzz`.
func TestFuzzTargetsListed(t *testing.T) {
	makefile, err := os.ReadFile(filepath.Join(repoRoot, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	in := false
	for _, line := range strings.Split(string(makefile), "\n") {
		if strings.HasPrefix(line, "FUZZ_TARGETS :=") {
			in = true
		} else if !in {
			continue
		}
		for _, f := range strings.Fields(line) {
			if strings.Contains(f, ":") && f != ":=" {
				listed[f] = true
			}
		}
		if !strings.HasSuffix(line, "\\") {
			break
		}
	}
	if len(listed) == 0 {
		t.Fatal("no FUZZ_TARGETS entries found in the Makefile")
	}

	declared := map[string]bool{}
	for _, f := range parseRepo(t, token.NewFileSet(), true) {
		for _, d := range f.file.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
				declared[f.dir+":"+fn.Name.Name] = true
			}
		}
	}
	for target := range declared {
		if !listed[target] {
			t.Errorf("%s is not in the Makefile's FUZZ_TARGETS", target)
		}
	}
	for target := range listed {
		if !declared[target] {
			t.Errorf("FUZZ_TARGETS lists %s, which no test file declares", target)
		}
	}
}

package lint

// Pinning tests for the acceptance contracts: the guard annotations on
// the repo's concurrency-critical structs must stay present (deleting
// one fails TestGuardAnnotationsPinned), and a wall-clock call slipped
// into the replay path must be detected (TestWallClockInjectionDetected
// proves it by injecting one into a copy of chain/state.go).

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// requiredGuards pins the documented lock contracts: package path →
// "Struct.field" → guarding mutex. Removing a "guarded by" annotation
// from any of these fields fails this list before it silently stops
// being checked.
var requiredGuards = map[string]map[string]string{
	"repro/internal/chain": {
		"Node.state":             "mu",
		"Node.blocks":            "mu",
		"Node.waiters":           "mu",
		"Node.mempool":           "mpMu",
		"Node.nonces":            "mpMu",
		"Node.evidence":          "evMu",
		"Node.scratch":           "sealMu",
		"Network.view":           "sealMu",
		"State.data":             "mu",
		"State.root":             "mu",
		"snapshotWriter.pending": "mu",
		"snapshotWriter.closed":  "mu",
	},
	"repro/internal/solid": {
		"Pod.resources": "mu",
		"Pod.acls":      "mu",
		"Pod.postSeq":   "mu",
		"Pod.persist":   "mu",
		"Pod.authCache": "authMu",
		"Host.pods":     "mu",
	},
	"repro/internal/store": {
		"WAL.f":       "mu",
		"WAL.size":    "mu",
		"WAL.pending": "mu",
		"WAL.closed":  "mu",
	},
}

func TestGuardAnnotationsPinned(t *testing.T) {
	pkgs, err := Load("../..", "./internal/chain", "./internal/solid", "./internal/store")
	if err != nil {
		t.Fatal(err)
	}
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	for path, want := range requiredGuards {
		pkg, ok := byPath[path]
		if !ok {
			t.Fatalf("package %s not loaded", path)
		}
		got := LockGuards(pkg)
		for field, mu := range want {
			if got[field] != mu {
				t.Errorf("%s: field %s must carry a \"// guarded by %s\" annotation (got %q); "+
					"the lock contract is load-bearing — restore the comment rather than relaxing this test",
					path, field, mu, got[field])
			}
		}
	}
}

// TestWallClockInjectionDetected re-type-checks internal/chain with a
// time.Now() call appended to state.go and requires the determinism
// analyzer to flag it: the acceptance criterion that adding wall-clock
// reads to the replay path fails repolint.
func TestWallClockInjectionDetected(t *testing.T) {
	const chainDir = "../../internal/chain"
	names, err := filepath.Glob(filepath.Join(chainDir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fixtureExports.once.Do(func() {
		fixtureExports.m, fixtureExports.err = ExportsFor("../..", "./...", "std")
	})
	if fixtureExports.err != nil {
		t.Fatalf("loading export data: %v", fixtureExports.err)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	mutated := false
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		text := string(src)
		if filepath.Base(name) == "state.go" {
			// state.go imports no wall-clock today; splice "time" into its
			// import block and append a probe that reads the clock.
			if !strings.Contains(text, "import (") {
				t.Fatalf("state.go has no import block to splice %q into", "time")
			}
			text = strings.Replace(text, "import (", "import (\n\t\"time\"", 1)
			text += "\n\nfunc lintMutationProbe() int64 { return time.Now().UnixNano() }\n"
			mutated = true
		}
		f, err := parser.ParseFile(fset, name, text, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	if !mutated {
		t.Fatal("state.go not found under internal/chain")
	}
	pkg, err := TypeCheck(fset, "repro/internal/chain", files, NewExportImporter(fset, fixtureExports.m))
	if err != nil {
		t.Fatalf("type-checking mutated chain package: %v", err)
	}
	for _, f := range Run([]*Package{pkg}, []*Analyzer{Determinism(DeterministicPackages...)}) {
		if filepath.Base(f.Pos.Filename) == "state.go" && strings.Contains(f.Message, "time.Now") {
			return // detected, as required
		}
	}
	t.Fatal("determinism analyzer did not flag the injected time.Now() in state.go")
}

// TestObsWallClockConfinement pins the observability boundary: internal/obs
// is the one package allowed to read the wall clock (latency histograms and
// span timestamps are measurements, not replayed state), and it stays OUT of
// the determinism analyzer's replay-path set. The second half proves the
// exclusion is load-bearing rather than vacuous: re-running the analyzer
// with obs added to the deterministic set must flag its time.Now calls — so
// if obs ever migrates onto the replay path, flipping the list is enough to
// catch every wall-clock read it carries.
func TestObsWallClockConfinement(t *testing.T) {
	const obsPath = "repro/internal/obs"
	if slices.Contains(DeterministicPackages, obsPath) {
		t.Fatalf("%s is in DeterministicPackages; obs owns the wall clock by design — "+
			"instrumented replay-path packages call obs timers instead of time.Now directly", obsPath)
	}
	for _, replayPkg := range []string{"repro/internal/chain", "repro/internal/store", "repro/internal/scenario"} {
		if !slices.Contains(DeterministicPackages, replayPkg) {
			t.Fatalf("%s missing from DeterministicPackages; the instrumented replay path must stay audited", replayPkg)
		}
	}

	pkgs, err := Load("../..", "./internal/obs")
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(pkgs, []*Analyzer{Determinism(append(slices.Clone(DeterministicPackages), obsPath)...)})
	for _, f := range findings {
		if strings.Contains(f.Message, "time.Now") {
			return // obs does read the clock, and the analyzer sees it
		}
	}
	t.Fatalf("determinism analyzer found no time.Now in internal/obs when auditing it; "+
		"the confinement test is vacuous (findings: %d)", len(findings))
}

// TestJSONImportInjectionDetected re-type-checks internal/distexchange with
// an encoding/json import spliced into contract.go and requires the
// determinism analyzer to flag it: the acceptance criterion that bringing
// JSON back onto the replay path, for arguments or records, fails repolint.
func TestJSONImportInjectionDetected(t *testing.T) {
	const dir = "../../internal/distexchange"
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fixtureExports.once.Do(func() {
		fixtureExports.m, fixtureExports.err = ExportsFor("../..", "./...", "std")
	})
	if fixtureExports.err != nil {
		t.Fatalf("loading export data: %v", fixtureExports.err)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	mutated := false
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		text := string(src)
		if filepath.Base(name) == "contract.go" {
			if strings.Contains(text, `"encoding/json"`) || !strings.Contains(text, "import (") {
				t.Fatalf("contract.go imports encoding/json already, or has no import block to splice it into")
			}
			text = strings.Replace(text, "import (", "import (\n\t\"encoding/json\"", 1)
			text += "\n\nfunc lintMutationProbe(raw []byte, args *RegisterPodArgs) error { return json.Unmarshal(raw, args) }\n"
			mutated = true
		}
		f, err := parser.ParseFile(fset, name, text, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	if !mutated {
		t.Fatal("contract.go not found under internal/distexchange")
	}
	pkg, err := TypeCheck(fset, "repro/internal/distexchange", files, NewExportImporter(fset, fixtureExports.m))
	if err != nil {
		t.Fatalf("type-checking mutated distexchange package: %v", err)
	}
	for _, f := range Run([]*Package{pkg}, []*Analyzer{Determinism(DeterministicPackages...)}) {
		if filepath.Base(f.Pos.Filename) == "contract.go" && strings.Contains(f.Message, "encoding/json") {
			return // detected, as required
		}
	}
	t.Fatal("determinism analyzer did not flag the injected encoding/json import in contract.go")
}

// jsonEdges are the files of the module that may import encoding/json:
// the HTTP and CLI edges, where JSON is what the other side speaks —
// de-node's status, listing and NDJSON /txs/stream routes, obs's metrics
// endpoints, and the `go list` stream the loader reads. Every record,
// argument and signed form behind them has one binary encoding.
var jsonEdges = []string{
	"cmd/de-node/main.go",
	"internal/lint/load.go",
	"internal/obs/http.go",
	"internal/obs/vars.go",
}

// TestJSONStaysAtTheEdges: the non-test files that import encoding/json
// are exactly jsonEdges. A new importer fails it, and so does an edge
// that stopped importing it, until the list says so.
func TestJSONStaysAtTheEdges(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	var importers []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, imp := range f.Imports {
				if imp.Path.Value != `"encoding/json"` {
					continue
				}
				rel, err := filepath.Rel(root, pkg.Fset.Position(f.Pos()).Filename)
				if err != nil {
					t.Fatal(err)
				}
				importers = append(importers, filepath.ToSlash(rel))
			}
		}
	}
	slices.Sort(importers)
	if !slices.Equal(importers, jsonEdges) {
		t.Errorf("files importing encoding/json:\n got %q\nwant %q", importers, jsonEdges)
	}
}

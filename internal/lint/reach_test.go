package lint

// TestEveryDeclarationIsReached pins the rule "the product is what
// something runs": a package-level declaration of internal/ stays only
// if a binary, an example, a benchmark workload or the scenario engine
// reaches it, or if reachKeep says why it stays although only tests do.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// reachKeep lists the declarations that stay although no root reaches
// them: name → reason. A type's entry covers its methods. An entry that
// a root does reach, or that has no reason, fails the test.
var reachKeep = map[string]string{
	"repro/internal/chain.Receipt.Digest": "a receipt's identity in the chain, distexchange and core tests that compare receipts; the receipt root hashes the same encoding through receiptDigest in the node's scratch",

	"repro/internal/cryptoutil.ForgetVerified": "documented cross-package test seam: the cold/warm differentials empty the verified-signature and parsed-key tables with it",

	"repro/internal/solid.Client.Post":   "client half of the POST route solid-server serves",
	"repro/internal/solid.Client.Delete": "client half of the DELETE route solid-server serves",

	// Counts the tests assert on; the product never asks how many.
	"repro/internal/obs.Registry.Len":    "the series count the obs and solid metric tests check registration against",
	"repro/internal/rdf.Graph.Len":       "the triple count the graph tests check deduplication and removal against",
	"repro/internal/tee.SealedStore.Len": "the blob count the sealed-storage tests check deletion against",

	"repro/internal/distexchange.DecodeDeviceRecord": "exported decoder of the record format (getDevice's reply), fuzzed by FuzzRecordDecode",
	"repro/internal/distexchange.DecodeGrants":       "exported decoder of the record format (getGrants' reply), fuzzed by FuzzRecordDecode",
	"repro/internal/distexchange.DecodePodRecord":    "exported decoder of the record format (getPod's reply), fuzzed by FuzzRecordDecode",

	// What the kept decoders and getters above read and return. The
	// contract reads these records in place and builds the methods'
	// records from views of their arguments, so no root reaches them
	// otherwise; the in-place readers are held to the full decoders.
	"repro/internal/distexchange.decodePodRecord":    "the decoder behind DecodePodRecord, which decodePodHead is held to",
	"repro/internal/distexchange.decodeGrant":        "the decoder behind DecodeGrants, which decodeGrantHead is held to",
	"repro/internal/distexchange.decodeDeviceRecord": "the decoder behind DecodeDeviceRecord, which decodeDeviceKey is held to",
	"repro/internal/distexchange.PodRecord":          "what DecodePodRecord returns",
	"repro/internal/distexchange.Grant":              "what DecodeGrants returns",
	"repro/internal/distexchange.GetPodArgs":         "the arguments Client.GetPod encodes",
	"repro/internal/distexchange.GetGrantsArgs":      "the arguments Client.GetGrants encodes",

	// One three-line method per query the contract's Read serves. The tests
	// of four packages read the ledger through them; deleting them would
	// re-grow the same lines in four _test.go files.
	"repro/internal/distexchange.Client.GetDevice":      "typed getter over the contract's getDevice query",
	"repro/internal/distexchange.Client.GetEvidence":    "typed getter over the contract's getEvidence query",
	"repro/internal/distexchange.Client.GetGrants":      "typed getter over the contract's getGrants query",
	"repro/internal/distexchange.Client.GetPod":         "typed getter over the contract's getPod query",
	"repro/internal/distexchange.Client.ListResources":  "typed getter over the contract's listResources query",
	"repro/internal/distexchange.Client.SubmitEvidence": "SubmitEvidenceBatch for a list of one, answering with its record's seq: a device answering for itself, which is how the contract, pod-manager and core tests submit evidence the oracle does not relay",

	"repro/internal/oracle.PullIn.Wait": "the quiescence point the oracle and core monitoring tests wait on before they read the relay's counters; without it they would sleep",
	"repro/internal/lint.ExportsFor":    "export data for the fixture and pinning tests, which type-check synthetic sources",
	"repro/internal/lint.LockGuards":    "the guard-annotation view TestGuardAnnotationsPinned checks",
}

// declKey names a package-level object, or a method as pkg.Type.Method,
// the same way for an object checked from source and one read from
// export data. It returns "" for anything else (locals, fields, other
// modules) and reports whether obj is a method of an interface.
func declKey(obj types.Object) (key string, ifaceMethod bool) {
	if obj == nil || obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), "repro/") {
		return "", false
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Origin().Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok || types.IsInterface(t) {
				return "", true
			}
			return obj.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name(), false
		}
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return "", false
	}
	return obj.Pkg().Path() + "." + obj.Name(), false
}

// decl is one package-level declaration's syntax.
type decl struct {
	pkg  *Package
	node ast.Node
}

// reachResult is what reach finds: every package-level declaration by key
// (init may repeat), each method's receiver type, and the declarations a
// root reaches.
type reachResult struct {
	decls   map[string][]decl
	ownerOf map[string]string
	reached map[string]bool
}

// sigText spells a method's parameter and result types qualified by
// package path, so signatures read from different type-checking passes
// compare equal as text.
func sigText(sig *types.Signature) string {
	var b strings.Builder
	qual := func(p *types.Package) string { return p.Path() }
	tuple := func(t *types.Tuple) {
		b.WriteByte('(')
		for i := 0; i < t.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(types.TypeString(t.At(i).Type(), qual))
		}
		b.WriteByte(')')
	}
	tuple(sig.Params())
	if sig.Variadic() {
		b.WriteString("...")
	}
	tuple(sig.Results())
	return b.String()
}

// methodSigs maps an interface's methods, by types.Id, to their sigText.
func methodSigs(it *types.Interface) map[string]string {
	m := make(map[string]string, it.NumMethods())
	for i := 0; i < it.NumMethods(); i++ {
		fn := it.Method(i)
		m[fn.Id()] = sigText(fn.Type().(*types.Signature))
	}
	return m
}

// reach walks pkgs from their roots — main and init everywhere and the
// scenario engine's exported API — through every identifier a reached
// declaration uses. A method no identifier names is reached when an
// interface call can dispatch to it: its receiver type is reached and has,
// itself or through its pointer, every method of an interface that declares
// it, with the same parameter and result types. The interfaces counted are
// error, every interface the standard-library imports declare (fmt.Stringer,
// http.Handler, sort.Interface, …) and, as the walk meets calls through
// them, the module's own.
func reach(pkgs []*Package) reachResult {
	r := reachResult{decls: map[string][]decl{}, ownerOf: map[string]string{}, reached: map[string]bool{}}
	typeOf := map[string]*types.Named{} // type key → its type, for method sets
	var roots []string
	ifaces := map[string]map[string]string{} // interface's method text → methodSigs
	addIface := func(it *types.Interface) {
		if it.NumMethods() == 0 {
			return
		}
		sigs := methodSigs(it)
		ids := make([]string, 0, len(sigs))
		for id, sig := range sigs {
			ids = append(ids, id+sig)
		}
		sort.Strings(ids)
		ifaces[strings.Join(ids, ";")] = sigs
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	for _, pkg := range pkgs {
		// name is "Func", "Type", "var" or "Type.Method".
		add := func(name string, node ast.Node) {
			key := pkg.Path + "." + name
			r.decls[key] = append(r.decls[key], decl{pkg, node})
			owner, last, isMethod := strings.Cut(name, ".")
			if isMethod {
				r.ownerOf[key] = pkg.Path + "." + owner
			} else {
				last = name
			}
			if name == "init" || (name == "main" && pkg.Types.Name() == "main") ||
				(pkg.Path == "repro/internal/scenario" && token.IsExported(last)) {
				roots = append(roots, key)
			}
		}
		for _, imp := range pkg.Types.Imports() {
			if strings.HasPrefix(imp.Path(), "repro/") {
				continue
			}
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						addIface(it)
					}
				}
			}
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						key, _ := declKey(pkg.Info.Defs[d.Name])
						add(strings.TrimPrefix(key, pkg.Path+"."), d)
					} else {
						add(d.Name.Name, d)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(s.Name.Name, s)
							if named, ok := pkg.Info.Defs[s.Name].Type().(*types.Named); ok {
								typeOf[pkg.Path+"."+s.Name.Name] = named
							}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if id.Name != "_" { // compile-time assertions run nothing
									add(id.Name, s)
								}
							}
						}
					}
				}
			}
		}
	}

	var work []string
	mark := func(key string) {
		if key != "" && !r.reached[key] && r.decls[key] != nil {
			r.reached[key] = true
			work = append(work, key)
		}
	}
	for _, key := range roots {
		mark(key)
	}
	// methods holds a reached type's method set, through its pointer: each
	// method's types.Id → its sigText and its declaration's key.
	type method struct{ sig, key string }
	methods := map[string]map[string]method{}
	for len(work) > 0 {
		for len(work) > 0 {
			key := work[len(work)-1]
			work = work[:len(work)-1]
			for _, d := range r.decls[key] {
				ast.Inspect(d.node, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						obj := d.pkg.Info.Uses[id]
						used, iface := declKey(obj)
						if iface {
							recv := obj.(*types.Func).Type().(*types.Signature).Recv().Type()
							if it, ok := recv.Underlying().(*types.Interface); ok {
								addIface(it)
							}
						}
						mark(used)
					}
					return true
				})
			}
		}
		for key, named := range typeOf {
			if !r.reached[key] || types.IsInterface(named) || methods[key] != nil {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(named))
			methods[key] = make(map[string]method, ms.Len())
			for i := 0; i < ms.Len(); i++ {
				fn := ms.At(i).Obj().(*types.Func)
				mkey, _ := declKey(fn)
				methods[key][fn.Id()] = method{sigText(fn.Type().(*types.Signature)), mkey}
			}
		}
		for _, set := range methods {
			for _, sigs := range ifaces {
				implements := true
				for id, sig := range sigs {
					if m, ok := set[id]; !ok || m.sig != sig {
						implements = false
						break
					}
				}
				if implements {
					for id := range sigs {
						mark(set[id].key)
					}
				}
			}
		}
	}
	return r
}

func TestEveryDeclarationIsReached(t *testing.T) {
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	benchPkgs, err := Load("../../bench", "./...")
	if err != nil {
		t.Fatal(err)
	}
	r := reach(append(pkgs, benchPkgs...))
	decls, ownerOf, reached := r.decls, r.ownerOf, r.reached

	var unreached []string
	for key := range decls {
		subject := strings.HasPrefix(key, "repro/internal/") && !strings.HasPrefix(key, "repro/internal/scenario.")
		_, kept := reachKeep[key]
		_, ownerKept := reachKeep[ownerOf[key]]
		if subject && !reached[key] && !kept && !ownerKept {
			unreached = append(unreached, key)
		}
	}
	sort.Strings(unreached)
	for _, key := range unreached {
		t.Errorf("%s: reached by no binary, example, benchmark workload or scenario op — delete it with its tests and docs, or add it to reachKeep with the reason it stays", strings.TrimPrefix(key, "repro/internal/"))
	}
	for key, reason := range reachKeep {
		switch {
		case strings.TrimSpace(reason) == "":
			t.Errorf("reachKeep[%q] has no reason", key)
		case decls[key] == nil:
			t.Errorf("reachKeep[%q] names no declaration; remove the entry", key)
		case reached[key]:
			t.Errorf("reachKeep[%q] is reached from a root; remove the entry", key)
		}
	}
	if len(reachKeep) > 30 {
		t.Errorf("reachKeep has %d entries; the list is meant to stay short (≤ 30)", len(reachKeep))
	}
}

// TestReachDispatchNeedsTheWholeInterface: a method no identifier names is
// reached only through an interface its type implements whole. A Sync()
// error alone, or a Sync with other result types, is not a syncer's.
func TestReachDispatchNeedsTheWholeInterface(t *testing.T) {
	const path = "repro/internal/reachfixture"
	r := reach(pkgs1(loadFixture(t, "testdata/reach", path)))
	var got []string
	for key := range r.reached {
		got = append(got, strings.TrimPrefix(key, path+"."))
	}
	sort.Strings(got)
	want := []string{"counter", "counter.Close", "file", "file.Close", "file.Sync", "journal", "main", "syncer"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("reached %v, want %v", got, want)
	}
}

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

	"repro/internal/cryptoutil.ForgetVerified": "documented cross-package test seam: the cold/warm differentials empty the verified-signature table with it",

	"repro/internal/solid.Client.Post": "client half of the POST route solid-server serves",

	"repro/internal/distexchange.DecodeDeviceRecord":   "exported decoder of the record format (getDevice's reply), fuzzed by FuzzRecordDecode",
	"repro/internal/distexchange.DecodeEvidenceRecord": "exported decoder of the record format (an EvidenceRecorded event's payload), fuzzed by FuzzRecordDecode",
	"repro/internal/distexchange.DecodeGrant":          "exported decoder of the record format (a GrantRecorded event's payload), fuzzed by FuzzRecordDecode",
	"repro/internal/distexchange.DecodeGrants":         "exported decoder of the record format (getGrants' reply), fuzzed by FuzzRecordDecode",
	"repro/internal/distexchange.DecodePodRecord":      "exported decoder of the record format (getPod's reply), fuzzed by FuzzRecordDecode",
	"repro/internal/distexchange.DecodeViolation":      "exported decoder of the record format (a ViolationDetected event's payload), fuzzed by FuzzRecordDecode",

	// One three-line method per query the contract's Read serves. The tests
	// of four packages read the ledger through them; deleting them would
	// re-grow the same lines in four _test.go files.
	"repro/internal/distexchange.Client.GetDevice":      "typed getter over the contract's getDevice query",
	"repro/internal/distexchange.Client.GetEvidence":    "typed getter over the contract's getEvidence query",
	"repro/internal/distexchange.Client.GetGrants":      "typed getter over the contract's getGrants query",
	"repro/internal/distexchange.Client.GetPod":         "typed getter over the contract's getPod query",
	"repro/internal/distexchange.Client.ListResources":  "typed getter over the contract's listResources query",
	"repro/internal/distexchange.Client.SubmitEvidence": "SubmitEvidenceBatch for a list of one: a device answering for itself, which is how the contract, pod-manager and core tests submit evidence the oracle does not relay",

	"repro/internal/oracle.PullIn.Wait":      "the quiescence point the oracle and core monitoring tests wait on before they read the relay's counters; without it they would sleep",
	"repro/internal/policy.PurposeMarketing": "the disallowed purpose in the evaluation, TEE and contract tests, named beside the purposes it is refused against",
	"repro/internal/lint.ExportsFor":         "export data for the fixture and pinning tests, which type-check synthetic sources",
	"repro/internal/lint.LockGuards":         "the guard-annotation view TestGuardAnnotationsPinned checks",
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

func TestEveryDeclarationIsReached(t *testing.T) {
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	benchPkgs, err := Load("../../bench", "./...")
	if err != nil {
		t.Fatal(err)
	}
	pkgs = append(pkgs, benchPkgs...)

	type decl struct {
		pkg  *Package
		node ast.Node
	}
	decls := map[string][]decl{}   // key → its declarations (init may repeat)
	ownerOf := map[string]string{} // method key → key of its receiver type
	var roots []string
	// ifaceNames are the method names an interface call can dispatch to:
	// every method of every interface the standard-library imports
	// declare (fmt.Stringer, http.Handler, sort.Interface, …), and, as
	// the walk meets them, of the module's own interfaces.
	ifaceNames := map[string]bool{"Error": true}

	for _, pkg := range pkgs {
		// name is "Func", "Type", "var" or "Type.Method". The roots are
		// main and init everywhere and the scenario engine's exported API.
		add := func(name string, node ast.Node) {
			key := pkg.Path + "." + name
			decls[key] = append(decls[key], decl{pkg, node})
			owner, last, isMethod := strings.Cut(name, ".")
			if isMethod {
				ownerOf[key] = pkg.Path + "." + owner
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
						for i := 0; i < it.NumMethods(); i++ {
							ifaceNames[it.Method(i).Name()] = true
						}
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

	reached := map[string]bool{}
	var work []string
	mark := func(key string) {
		if key != "" && !reached[key] && decls[key] != nil {
			reached[key] = true
			work = append(work, key)
		}
	}
	for _, key := range roots {
		mark(key)
	}
	for len(work) > 0 {
		for len(work) > 0 {
			key := work[len(work)-1]
			work = work[:len(work)-1]
			for _, d := range decls[key] {
				ast.Inspect(d.node, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						used, iface := declKey(d.pkg.Info.Uses[id])
						if iface {
							ifaceNames[id.Name] = true
						}
						mark(used)
					}
					return true
				})
			}
		}
		// A method of a reached type is reached when an interface call
		// could dispatch to it: resolved by name, so it errs toward keeping.
		for key, owner := range ownerOf {
			if reached[owner] && ifaceNames[key[strings.LastIndex(key, ".")+1:]] {
				mark(key)
			}
		}
	}

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

package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryTopicIsSubscribed pins "an event has a reader": every
// distexchange.Topic* constant is the Topic of a chain.EventFilter literal
// somewhere in the module, in product code or in a test. A topic that no
// filter names is paid for, in gas and receipt bytes, by every transaction
// that emits it, and read by nobody.
func TestEveryTopicIsSubscribed(t *testing.T) {
	const root = "../.."
	declared := map[string]token.Position{}
	filtered := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		inPackage := f.Name.Name == "distexchange"
		if inPackage && !strings.HasSuffix(path, "_test.go") {
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.CONST {
					for _, spec := range gd.Specs {
						for _, id := range spec.(*ast.ValueSpec).Names {
							if strings.HasPrefix(id.Name, "Topic") {
								declared[id.Name] = fset.Position(id.Pos())
							}
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok || !isSelector(lit.Type, "chain", "EventFilter") {
				return true
			}
			for _, elt := range lit.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Topic" {
					continue
				}
				switch v := kv.Value.(type) {
				case *ast.Ident:
					if inPackage {
						filtered[v.Name] = true
					}
				case *ast.SelectorExpr:
					if isSelector(v, "distexchange", v.Sel.Name) {
						filtered[v.Sel.Name] = true
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("no distexchange.Topic* constant found: the test no longer sees the DE App's topics")
	}
	var unread []string
	for name, pos := range declared {
		if !filtered[name] {
			unread = append(unread, pos.String()+": "+name)
		}
	}
	sort.Strings(unread)
	for _, u := range unread {
		t.Errorf("%s: no chain.EventFilter names this topic; delete it and its Emit, or subscribe to it", u)
	}
}

// isSelector reports whether e is the selector pkg.name.
func isSelector(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == pkg
}

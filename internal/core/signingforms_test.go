package core

import (
	"encoding/base64"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
	"repro/internal/distexchange"
	"repro/internal/solid"
	"repro/internal/tee"
)

// TestSigningFormsAreDomainSeparated lists every byte string a key of this
// repository signs, with the bytes it can open with, and holds the first
// bytes pairwise distinct. One device key signs transactions, quotes and
// evidence, and an agent key transactions and Solid requests, so the
// first byte is what keeps a signature over one form from verifying as
// another. The last check fails when a form is signed that the table does
// not list.
func TestSigningFormsAreDomainSeparated(t *testing.T) {
	forms := []struct {
		decl  string // the function that writes the form: package.Type.Method
		want  string // the bytes the form can open with
		first []byte // what it opens with, read off the form itself
	}{
		{"chain.Tx.SigningBytes", "\x05", (&chain.Tx{}).SigningBytes()[:1]},
		{"chain.Header.SigningBytes", "\x06", (&chain.Header{}).SigningBytes()[:1]},
		{"distexchange.Evidence.SigningBytes", "\x27", (&distexchange.Evidence{}).SigningBytes()[:1]},
		{"cryptoutil.Certificate.SigningBytes", "\x31", (&cryptoutil.Certificate{}).SigningBytes()[:1]},
		{"tee.Quote.SigningBytes", "\x32", (&tee.Quote{}).SigningBytes()[:1]},
		// The first letter of each method solid serves signed.
		{"solid.signingString", "DGHP", solidRequestFirstBytes(t)},
	}
	seen := map[byte]string{}
	for _, f := range forms {
		for _, b := range f.first {
			if !strings.ContainsRune(f.want, rune(b)) {
				t.Errorf("%s opens with %q, the table says one of %q", f.decl, b, f.want)
			}
		}
		for _, b := range []byte(f.want) {
			if other, ok := seen[b]; ok {
				t.Errorf("%s and %s can both open with %q", other, f.decl, b)
			}
			seen[b] = f.decl
		}
	}

	var listed []string
	for _, f := range forms {
		listed = append(listed, f.decl)
	}
	sort.Strings(listed)
	found := signedForms(t, "../../internal", "../../cmd")
	if strings.Join(found, " ") != strings.Join(listed, " ") {
		t.Errorf("the product signs\n  %v\nthe table lists\n  %v", found, listed)
	}
}

// solidRequestFirstBytes signs a request of each method solid.Client sends
// and returns the first byte of what each signature covers:
// method|path|date|nonce.
func solidRequestFirstBytes(t *testing.T) []byte {
	t.Helper()
	key := cryptoutil.MustGenerateKey()
	pub, err := cryptoutil.ParsePublicKey(key.PublicBytes())
	if err != nil {
		t.Fatal(err)
	}
	var req *http.Request
	c := solid.NewClient("https://bob.example/profile#me", key, nil)
	c.Decorate = func(r *http.Request) { req = r }
	c.HTTP = &http.Client{Transport: refuseTransport{}}
	const url = "http://pod.invalid/data/r.bin"
	var first []byte
	for method, send := range map[string]func(){
		http.MethodGet:    func() { c.Get(url) },
		http.MethodPut:    func() { c.Put(url, "text/plain", nil) },
		http.MethodPost:   func() { c.Post(url, "text/plain", nil) },
		http.MethodDelete: func() { c.Delete(url) },
	} {
		req = nil
		if send(); req == nil {
			t.Fatalf("%s: no request was built", method)
		}
		sig, err := base64.StdEncoding.DecodeString(req.Header.Get(solid.HeaderSignature))
		if err != nil {
			t.Fatal(err)
		}
		signed := []byte(method + "|/data/r.bin|" + req.Header.Get(solid.HeaderDate) + "|" + req.Header.Get(solid.HeaderNonce))
		if !cryptoutil.Verify(pub, signed, sig) {
			t.Fatalf("%s: the request signature does not cover method|path|date|nonce", method)
		}
		first = append(first, signed[0])
	}
	return first
}

type refuseTransport struct{}

func (refuseTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return nil, errors.New("not sent")
}

// signedForms parses the product code under dirs and returns every
// function named SigningBytes or signingString as package.Type.Method. It
// fails the test for a Sign call whose argument is not a call of one.
func signedForms(t *testing.T, dirs ...string) []string {
	t.Helper()
	isForm := func(name string) bool { return name == "SigningBytes" || name == "signingString" }
	fset := token.NewFileSet()
	var forms []string
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && isForm(fd.Name.Name) {
					name := f.Name.Name + "."
					if fd.Recv != nil {
						recv := fd.Recv.List[0].Type
						if star, ok := recv.(*ast.StarExpr); ok {
							recv = star.X
						}
						name += recv.(*ast.Ident).Name + "."
					}
					forms = append(forms, name+fd.Name.Name)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Sign" {
					return true
				}
				var callee string
				if arg, ok := call.Args[0].(*ast.CallExpr); ok {
					switch fn := arg.Fun.(type) {
					case *ast.Ident:
						callee = fn.Name
					case *ast.SelectorExpr:
						callee = fn.Sel.Name
					}
				}
				if !isForm(callee) {
					t.Errorf("%s: Sign of a form the table does not list", fset.Position(call.Pos()))
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(forms)
	return forms
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"strconv"
)

// DeterministicPackages is the deterministic replay path: every
// validator re-executes blocks (chain execution, the contract runtime,
// the distexchange contract), recovery replays codec output byte for
// byte (store), and the scenario engine must reproduce a trace bit for
// bit from a seed. Wall-clock and randomness may only enter these
// packages through simclock or an explicitly seeded source.
var DeterministicPackages = []string{
	"repro/internal/chain",
	"repro/internal/contract",
	"repro/internal/distexchange",
	"repro/internal/store",
	"repro/internal/scenario",
}

// EncoderPackages hold the canonical encoders: the functions whose
// output a signature covers or a hash commits to (transactions, headers,
// receipts, evidence, certificates, policies) and the append-style
// codecs beside them. Their bytes are consensus, and store's codec
// writes them all.
var EncoderPackages = []string{
	"repro/internal/chain",
	"repro/internal/cryptoutil",
	"repro/internal/distexchange",
	"repro/internal/policy",
}

// encoderFuncRe names a consensus encoder inside EncoderPackages.
var encoderFuncRe = regexp.MustCompile(`^(SigningBytes|Digest|Hash|[aA]ppend.*)$`)

// fmtFormatterRe matches the fmt functions that render operands
// (Sprintf, Fprint, Appendln, ...); Errorf and the scanners do not.
var fmtFormatterRe = regexp.MustCompile(`^(Sp|Fp|P)rint|^Append`)

// reflectVerbRe matches the verbs that print an operand by its dynamic type.
var reflectVerbRe = regexp.MustCompile(`%[+#]?v`)

// bannedTimeFuncs sample or schedule against the wall clock.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// allowedRandFuncs construct explicitly seeded sources; everything else
// at math/rand package level samples the global (nondeterministically
// seeded) source.
var allowedRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true,
}

// orderSinkRe matches callee names that serialize, accumulate, or hash
// their inputs — order-sensitive sinks for map iteration. Only calls
// with arguments count: a zero-argument Hash() is a pure getter with
// nothing to sink.
var orderSinkRe = regexp.MustCompile(`^(Write|Encode|encode|Append|append[A-Z]|Marshal|Sum|Hash|Record|Fprint)`)

// sortFuncRe matches local helper functions that sort their arguments
// in place (sortOpCosts and friends), in addition to sort.*/slices.*.
var sortFuncRe = regexp.MustCompile(`(?i)^sort`)

// Determinism forbids nondeterminism sources in the replay-path
// packages:
//
//   - wall-clock reads and timers (time.Now, Since, Until, Sleep,
//     After, Tick, NewTimer, NewTicker, AfterFunc) — block timestamps
//     and scheduling must flow through simclock.Clock;
//   - the global math/rand source (any package-level call except the
//     seeded constructors New/NewSource/NewPCG/NewChaCha8) and
//     crypto/rand reads — randomness must be injected as a seed;
//   - map iteration whose per-element effects are order-sensitive: a
//     range over a map may not call an encoder/hash/write-like sink,
//     and a slice it appends to must be sorted (sort.* or slices.Sort*)
//     somewhere in the same function before it can be trusted;
//   - importing encoding/json: a value has many JSON spellings (field
//     order and case, whitespace, escapes) that decode alike, so the
//     bytes a hash commits to and gas charges for would not follow from
//     the value, and reflection costs every validator on every
//     transaction; replayed bytes go through store's codec.
//
// and, in EncoderPackages, formatting by reflection inside a consensus
// encoder (SigningBytes, Digest, Hash, append*/Append*): fmt's
// formatters, a %v verb, or a strings.Builder to collect them in. What
// such an encoder emits depends on the operand's dynamic type and its
// String method, and it allocates per field on the path every validator
// runs per transaction; store's codec writes every field from a typed
// append.
func Determinism(pkgs ...string) *Analyzer {
	a := &Analyzer{
		Name: "determinism",
		Doc:  "replay-path packages must not read the wall clock, the global rand source, or leak map iteration order",
	}
	a.Run = func(pass *Pass) {
		replayPath := slices.Contains(pkgs, pass.Pkg.Path)
		encoders := slices.Contains(EncoderPackages, pass.Pkg.Path)
		for _, f := range pass.Pkg.Files {
			if replayPath {
				checkImportsDeterminism(pass, f)
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if replayPath {
					checkFuncDeterminism(pass, fd)
				}
				if encoders && encoderFuncRe.MatchString(fd.Name.Name) {
					checkEncoderFormatting(pass, fd)
				}
			}
		}
	}
	return a
}

// checkImportsDeterminism flags the imports a replay-path file may not
// have.
func checkImportsDeterminism(pass *Pass, f *ast.File) {
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "encoding/json" {
			pass.Reportf(imp.Pos(), "encoding/json on the deterministic replay path; encode with store's codec")
		}
	}
}

// checkEncoderFormatting flags reflection-driven formatting inside one
// consensus encoder. A fmt call is reported once, not again for the %v
// in its own format string.
func checkEncoderFormatting(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if pkg, name := calleePkgFunc(info, n); pkg == "fmt" && fmtFormatterRe.MatchString(name) {
				pass.Reportf(n.Pos(), "fmt.%s in consensus encoder %s; append typed fields with store's codec", name, fd.Name.Name)
				return false
			}
		case *ast.BasicLit:
			if n.Kind == token.STRING && reflectVerbRe.MatchString(n.Value) {
				pass.Reportf(n.Pos(), "%%v in consensus encoder %s: the bytes would follow the operand's dynamic type", fd.Name.Name)
			}
		case *ast.SelectorExpr:
			if obj, ok := info.Uses[n.Sel].(*types.TypeName); ok && obj.Pkg() != nil &&
				obj.Pkg().Path() == "strings" && obj.Name() == "Builder" {
				pass.Reportf(n.Pos(), "strings.Builder in consensus encoder %s; size one buffer up front and append with store's codec", fd.Name.Name)
			}
		}
		return true
	})
}

func checkFuncDeterminism(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info

	// sortedObjs are objects that appear inside a sort.* / slices.Sort*
	// call anywhere in the function: a slice filled from a map range is
	// deterministic once sorted.
	sortedObjs := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		pkg, name := calleePkgFunc(info, call)
		if pkg == "sort" || pkg == "slices" || sortFuncRe.MatchString(name) {
			for _, arg := range call.Args {
				ast.Inspect(arg, func(an ast.Node) bool {
					if id, ok := an.(*ast.Ident); ok {
						if obj := info.Uses[id]; obj != nil {
							sortedObjs[obj] = true
						}
					}
					return true
				})
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkNondeterministicCall(pass, n)
		case *ast.SelectorExpr:
			// crypto/rand.Reader used directly (io.ReadFull(rand.Reader, ...)).
			if obj := info.Uses[n.Sel]; obj != nil && obj.Pkg() != nil &&
				obj.Pkg().Path() == "crypto/rand" && n.Sel.Name == "Reader" {
				pass.Reportf(n.Pos(), "crypto/rand.Reader on the deterministic replay path; inject a seeded source")
			}
		case *ast.RangeStmt:
			tv, ok := info.Types[n.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			checkMapRangeBody(pass, n, sortedObjs)
		}
		return true
	})
}

// checkNondeterministicCall flags wall-clock and global-rand calls.
func checkNondeterministicCall(pass *Pass, call *ast.CallExpr) {
	pkg, name := calleePkgFunc(pass.Pkg.Info, call)
	switch pkg {
	case "time":
		if bannedTimeFuncs[name] {
			pass.Reportf(call.Pos(), "time.%s on the deterministic replay path; use simclock.Clock", name)
		}
	case "math/rand", "math/rand/v2":
		if !allowedRandFuncs[name] {
			pass.Reportf(call.Pos(), "%s.%s samples the global rand source; use a seeded rand.New(rand.NewSource(seed))", pkg, name)
		}
	case "crypto/rand":
		pass.Reportf(call.Pos(), "crypto/rand.%s on the deterministic replay path; inject a seeded source", name)
	}
}

// calleePkgFunc resolves a call to (package path, function name) for
// package-level callees; methods and locals return ("", name).
func calleePkgFunc(info *types.Info, call *ast.CallExpr) (string, string) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return "", ""
	}
	obj, ok := info.Uses[id].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return "", id.Name
	}
	if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
		return "", id.Name // method: the receiver's seededness is its own business
	}
	return obj.Pkg().Path(), obj.Name()
}

// checkMapRangeBody flags order-sensitive effects inside a map range.
func checkMapRangeBody(pass *Pass, rng *ast.RangeStmt, sortedObjs map[types.Object]bool) {
	info := pass.Pkg.Info
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Builtin append: the accumulated slice must be sorted later in
		// this function.
		_, isBuiltin := info.Uses[idOf(call.Fun)].(*types.Builtin)
		if id, isIdent := call.Fun.(*ast.Ident); isIdent && id.Name == "append" && isBuiltin {
			// append's first argument names the accumulator.
			if len(call.Args) > 0 {
				if target, ok := call.Args[0].(*ast.Ident); ok {
					if obj := info.Uses[target]; obj != nil && !sortedObjs[obj] {
						pass.Reportf(call.Pos(),
							"append to %s inside map iteration without a later sort: element order is randomized",
							target.Name)
					}
				}
			}
			return true
		}
		// Named order-sensitive sinks (encoders, hashes, writers). A call
		// with no arguments has nothing to feed the sink — Hash() as a
		// pure getter is order-insensitive.
		name := calleeName(call)
		if name != "" && len(call.Args) > 0 && orderSinkRe.MatchString(name) {
			pass.Reportf(call.Pos(),
				"call to %s inside map iteration: encoding order is randomized; collect and sort keys first", name)
		}
		return true
	})
}

// idOf returns e as an identifier, or nil.
func idOf(e ast.Expr) *ast.Ident {
	id, _ := e.(*ast.Ident)
	return id
}

// calleeName extracts the bare callee name of a call.
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return ""
}

// Package hotalloc keeps the query hot paths allocation-free.
//
// Functions carrying the directive comment
//
//	//pathsep:hotpath
//
// are the per-query serving code: the label walk (queryLabels, pairMin),
// the Flat merge-join (query, answer, gallopTo, sweepMatches, sweepRec),
// the batch prefetch (touchPair) and internal/serve's binary batch codec
// (decodePairs, encodeDists). Their zero-allocs/op contract is enforced
// dynamically by the bench-query gate and the allocation tests, but only
// for the paths those happen to exercise; this pass enforces it
// statically for every path, flagging the constructs that allocate (or
// may allocate) inside a tagged function:
//
//   - append(...) — grows a heap backing array;
//   - make(...) — slice/map/chan allocation;
//   - map and slice composite literals;
//   - conversions of concrete values to interface types, explicit
//     (any(x), io.Reader(f)) or implicit at a call site whose parameter
//     is an interface (fmt.Sprintf's variadic ...any, for example) —
//     these box the value on the heap unless escape analysis gets lucky,
//     and hot paths must not gamble on it.
//
// Test files are exempt, as are untagged functions: the pass is an
// opt-in contract, not a style rule. Assignment- and return-position
// interface conversions are not yet detected; call sites are by far the
// common leak.
//
// Only the bare directive opts a function in: a comment that adds
// anything after it is not the directive, and the function stays
// untagged.
package hotalloc

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Analyzer is the hotalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "forbid allocating constructs (append/make/map literals/interface conversions) in //pathsep:hotpath functions",
	Run:  run,
}

// directive is the magic comment that opts a function into the check.
const directive = "//pathsep:hotpath"

// isHot reports whether the function declaration carries the directive.
func isHot(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == directive {
			return true
		}
	}
	return false
}

func isInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHot(fd) {
				continue
			}
			checkBody(pass, fd)
		}
	}
	return nil, nil
}

func checkBody(pass *analysis.Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, name, n)
		case *ast.CompositeLit:
			t := pass.TypesInfo.TypeOf(n)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map:
				pass.Reportf(n.Pos(), "map literal allocates in hotpath function %s", name)
			case *types.Slice:
				pass.Reportf(n.Pos(), "slice literal allocates in hotpath function %s", name)
			}
		}
		return true
	})
}

// checkCall flags allocating builtins, explicit conversions to interface
// types, and concrete arguments passed to interface parameters.
func checkCall(pass *analysis.Pass, name string, call *ast.CallExpr) {
	// Builtins: append and make. Uses resolves through parentheses and
	// shadowing (a local `append` function would not be the builtin).
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append":
				pass.Reportf(call.Pos(), "append may allocate in hotpath function %s", name)
			case "make":
				pass.Reportf(call.Pos(), "make allocates in hotpath function %s", name)
			}
			return
		}
	}

	// Explicit conversion: T(x) where T is an interface and x is concrete.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && isInterface(tv.Type) && !isInterface(pass.TypesInfo.TypeOf(call.Args[0])) {
			if bt, basic := pass.TypesInfo.TypeOf(call.Args[0]).Underlying().(*types.Basic); !basic || bt.Kind() != types.UntypedNil {
				pass.Reportf(call.Pos(), "conversion to interface %s boxes its operand in hotpath function %s", tv.Type, name)
			}
		}
		return
	}

	// Implicit conversions at the call boundary: concrete arguments bound
	// to interface parameters (including variadic ...T with interface T).
	sigType := pass.TypesInfo.TypeOf(call.Fun)
	if sigType == nil {
		return
	}
	sig, ok := sigType.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through verbatim, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		at := pass.TypesInfo.TypeOf(arg)
		if !isInterface(pt) || at == nil || isInterface(at) {
			continue
		}
		if bt, basic := at.Underlying().(*types.Basic); basic && bt.Kind() == types.UntypedNil {
			continue
		}
		pass.Reportf(arg.Pos(), "argument converts %s to interface %s in hotpath function %s", at, pt, name)
	}
}

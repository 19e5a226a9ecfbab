// Package ssaflow is the shared value-flow layer under the determinism
// analyzers (maporder, slotwrite, sortcmp). It plays the role golang.org/x/tools/go/analysis/passes/buildssa plays for
// SSA-based passes: one pass builds a per-package function index plus
// conservative def-use utilities and per-function summaries (summary.go),
// and the analyzers consume its Result via Requires.
//
// The toolchain-vendored x/tools subset this repo carries (see DESIGN.md,
// "Static analysis") does not include go/ssa, so ssaflow implements the
// fragment the analyzers actually need directly on the typed AST:
//
//   - an enumeration of every function body in the package — declarations
//     and function literals alike, each analyzed as its own unit;
//   - object-level def-use queries: the base storage object of an lvalue,
//     whether an expression mentions an object (skipping len/cap, whose
//     results carry no element order), and whether an object is declared
//     inside a node (a function literal's own locals);
//   - a Taint store used by maporder's flow-sensitive reachability walk:
//     objects tainted at a program point, with the originating map-range
//     position retained for diagnostics.
//
// The model is deliberately conservative and intra-procedural: a taint is
// an over-approximation of "this value's content or order depends on map
// iteration order", kills happen only on whole-object reassignment or an
// explicit sort barrier, and calls are opaque (arguments flow in, nothing
// flows back out except through assignment of results).
package ssaflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// Analyzer builds the per-package function index and summaries. It
// reports nothing itself; the analyzers that need value flow require it.
var Analyzer = &analysis.Analyzer{
	Name:       "ssaflow",
	Doc:        "build per-function value-flow summaries for the analyzers that need them",
	Requires:   []*analysis.Analyzer{inspect.Analyzer},
	ResultType: reflect.TypeOf((*Result)(nil)),
	Run:        run,
}

// Result is the package-wide function index.
type Result struct {
	// Funcs lists every function body in the package: declarations first
	// in file order, then function literals in position order. Literals
	// appear both as their own Func and inside their enclosing body's AST;
	// analyzers walking statements should skip nested *ast.FuncLit nodes
	// and rely on the literal's own entry.
	Funcs []*Func
	// Summaries holds the interprocedural per-function fact records for
	// every declared function with a body (see summary.go).
	Summaries map[*types.Func]*Summary
}

// Func is one analyzable function body.
type Func struct {
	// Node is the *ast.FuncDecl or *ast.FuncLit.
	Node ast.Node
	// Body is the function body (never nil for an indexed Func).
	Body *ast.BlockStmt
	// Name is a best-effort display name: the declared name, or "func
	// literal" for literals.
	Name string
}

func run(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	res := &Result{}
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				res.Funcs = append(res.Funcs, &Func{Node: n, Body: n.Body, Name: n.Name.Name})
			}
		case *ast.FuncLit:
			if n.Body != nil {
				res.Funcs = append(res.Funcs, &Func{Node: n, Body: n.Body, Name: "func literal"})
			}
		}
	})
	res.Summaries = summarize(pass.TypesInfo, res.Funcs)
	return res, nil
}

// BaseObject peels an lvalue (or any expression) down to the object that
// owns its storage: x, x.f, x[i], (*x)[i].f all resolve to x. It returns
// nil for expressions not rooted at a simple identifier (calls, composite
// literals, ...).
func BaseObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			// A qualified package selector (pkg.Var) resolves via Sel.
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := info.ObjectOf(id).(*types.PkgName); isPkg {
					return info.ObjectOf(x.Sel)
				}
			}
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isLenCap reports whether call is the builtin len or cap, whose results
// carry no iteration order.
func isLenCap(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	return id.Name == "len" || id.Name == "cap"
}

// Mentions reports whether e references any object satisfying pred.
// Arguments of builtin len/cap are skipped (their results are
// order-insensitive); nested function literals are included, since a
// literal capturing a value keeps the dependence alive.
func Mentions(info *types.Info, e ast.Expr, pred func(types.Object) bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isLenCap(info, call) {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.ObjectOf(id); obj != nil && pred(obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// DeclaredWithin reports whether obj's declaration lies inside node's
// source extent — the "is it a local of this body?" test used for slot
// discipline and taint sources.
func DeclaredWithin(obj types.Object, node ast.Node) bool {
	return obj != nil && obj.Pos() != token.NoPos &&
		obj.Pos() >= node.Pos() && obj.Pos() < node.End()
}

// IsOrderCarrying reports whether values of type t can carry an iteration
// order or an order-sensitive accumulation: slices and arrays (element
// order), strings (concatenation order), and floats (addition is not
// associative, so a map-ordered reduction is not deterministic).
func IsOrderCarrying(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Array:
		return true
	case *types.Basic:
		return u.Info()&types.IsString != 0 || u.Info()&types.IsFloat != 0
	}
	return false
}

// CalleeFunc resolves the called function or method object of a call
// expression, or nil for calls through function values, builtins and
// conversions.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// Taint is the flow-sensitive tainted-object store of a reachability
// walk: object → the map-range source that tainted it.
type Taint struct {
	info *types.Info
	objs map[types.Object]*Source
}

// Source is the origin of a taint: the map-range statement and the
// accumulation site inside it. Reported is set once a diagnostic has been
// emitted for this source, so a single nondeterministic accumulation is
// flagged at its first sink only.
type Source struct {
	RangePos token.Pos
	AccPos   token.Pos
	Reported bool
}

// NewTaint returns an empty store.
func NewTaint(info *types.Info) *Taint {
	return &Taint{info: info, objs: map[types.Object]*Source{}}
}

// Add taints obj with the given source.
func (t *Taint) Add(obj types.Object, src *Source) {
	if obj != nil {
		t.objs[obj] = src
	}
}

// Kill removes obj from the store (whole-object reassignment or an
// explicit sort barrier).
func (t *Taint) Kill(obj types.Object) {
	delete(t.objs, obj)
}

// Lookup returns obj's taint source, or nil.
func (t *Taint) Lookup(obj types.Object) *Source {
	if obj == nil {
		return nil
	}
	return t.objs[obj]
}

// Empty reports whether no object is currently tainted.
func (t *Taint) Empty() bool { return len(t.objs) == 0 }

// MentionedSource returns the taint source of the first tainted object e
// mentions, or nil.
func (t *Taint) MentionedSource(e ast.Expr) *Source {
	if len(t.objs) == 0 {
		return nil
	}
	var src *Source
	Mentions(t.info, e, func(obj types.Object) bool {
		if s := t.objs[obj]; s != nil {
			src = s
			return true
		}
		return false
	})
	return src
}

// Package unsafeview keeps unsafe.Slice inside the image codec's view[T].
// The codec views its own tables as bytes and the lane's words as records
// through view, which refuses a span that overruns the buffer or starts
// misaligned for T, so a wrong span is an error rather than an
// out-of-bounds typed read (internal/oracle's tests pin each refusal).
// The decoder reads its input into arrays the Flat owns and views none of
// it, so nothing else needs policing: the pass reports every unsafe.Slice
// call whose enclosing function is not a top-level function named view.
// Test files are exempt.
package unsafeview

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// Analyzer is the unsafeview pass.
var Analyzer = &analysis.Analyzer{
	Name:     "unsafeview",
	Doc:      "unsafe.Slice appears only inside the image codec's view[T], which refuses overrunning and misaligned spans",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push || !isUnsafeSlice(pass.TypesInfo, n.(*ast.CallExpr)) {
			return true
		}
		if strings.HasSuffix(pass.Fset.Position(n.Pos()).Filename, "_test.go") {
			return true
		}
		for _, outer := range stack {
			if fd, ok := outer.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "view" {
				return true
			}
		}
		pass.Reportf(n.Pos(), "unsafe.Slice outside the codec's view[T]; build typed views with view, which refuses overrunning and misaligned spans")
		return true
	})
	return nil, nil
}

// isUnsafeSlice matches calls to the unsafe.Slice builtin.
func isUnsafeSlice(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Slice" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, isPkg := info.ObjectOf(id).(*types.PkgName)
	return isPkg && pn.Imported().Path() == "unsafe"
}

// Interprocedural layer: per-function summaries and the package call
// graph, the fragment of a bottom-up interprocedural analysis maporder
// needs to see through wrappers.
//
// maporder's intraprocedural walk stops at call boundaries. Summaries
// let it see past them: one pass over the package records, per function,
//
//   - which call sites each parameter's value can reach (ParamUses),
//     so "sorts its argument" or "encodes its argument" is visible
//     through any chain of in-package calls;
//   - whether a parameter escapes sideways (stored, sent, captured,
//     launched in a goroutine, passed through a function value);
//   - which parameters each result may alias, so ParamFlow sees a
//     wrapper hand its argument back to its caller.
//
// Summaries are exported on the Result in the analysis.Fact style — a
// self-contained record per function object, memoized once per package
// and consumed by any requiring analyzer — but they live in the Result
// rather than real Facts: the vendored unitchecker would serialize
// facts fine, yet the analyzertest harness (and everything these
// analyzers check) is package-local, so package-scope summaries keep
// both drivers on one code path. ParamFlow is the transitive resolver:
// it chases summary edges across in-package calls (cycle-guarded,
// depth-capped) so clients ask "does this value reach X" instead of
// re-implementing the closure.
package ssaflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// maxFlowDepth caps transitive resolution; real wrapper chains are two
// or three deep, and the cap turns call-graph cycles into conservative
// truncation instead of nontermination.
const maxFlowDepth = 16

// ParamUse is one call site that (transitively) receives data flowing
// from a parameter: the syntactic call, its resolved callee (nil for
// calls through function values) and the argument position the data
// occupies there.
type ParamUse struct {
	Call   *ast.CallExpr
	Callee *types.Func
	Arg    int
}

// Summary is the per-function fact record. All maps are keyed by
// parameter index (receiver excluded) or result index.
type Summary struct {
	// Decl is the summarized function's declaration.
	Decl *ast.FuncDecl
	// ParamUses[i] lists the direct call sites receiving data derived
	// from parameter i. Transitive reachability is ParamFlow's job.
	ParamUses map[int][]ParamUse
	// ParamSunk[i], when non-empty, is the reason parameter i's value
	// escapes sideways: stored into a field/slot/global, sent on a
	// channel, captured by a function literal, launched in a goroutine,
	// or passed through a function value the resolver cannot follow.
	ParamSunk map[int]string
	// Returns[j] lists the parameters result j may alias.
	Returns map[int][]int

	info   *types.Info
	params map[types.Object]int
	// locals maps each local variable to the parameters its value may
	// alias, computed to a fixpoint.
	locals map[types.Object][]int
}

// SummaryOf returns fn's summary, or nil for functions outside the
// package (or without a body).
func (r *Result) SummaryOf(fn *types.Func) *Summary {
	if fn == nil {
		return nil
	}
	return r.Summaries[fn]
}

// summarize builds the whole package's summary table.
func summarize(info *types.Info, funcs []*Func) map[*types.Func]*Summary {
	out := make(map[*types.Func]*Summary)
	for _, f := range funcs {
		fd, ok := f.Node.(*ast.FuncDecl)
		if !ok {
			continue // literals are analyzed inline by their enclosing body
		}
		fn, ok := info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		s := &Summary{
			Decl:      fd,
			ParamUses: map[int][]ParamUse{},
			ParamSunk: map[int]string{},
			Returns:   map[int][]int{},
			info:      info,
			params:    map[types.Object]int{},
		}
		sig := fn.Type().(*types.Signature)
		for i := 0; i < sig.Params().Len(); i++ {
			s.params[sig.Params().At(i)] = i
		}
		s.computeLocals(fd.Body)
		s.computeFacts(fd.Body)
		out[fn] = s
	}
	return out
}

// exprSources resolves the parameters e may alias. Only shapes that
// preserve identity are followed (idents, selectors, slicing, indexing,
// deref, address-of, type assertions); arithmetic and calls produce fresh
// values and yield nothing.
func (s *Summary) exprSources(e ast.Expr) []int {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		default:
			obj := BaseObject(s.info, x)
			if obj == nil {
				return nil
			}
			if i, ok := s.params[obj]; ok {
				return []int{i}
			}
			return s.locals[obj]
		}
	}
}

// addLocal merges params into obj's set, reporting growth. Only
// variables declared in the function are locals: a store into a
// package-level variable is a sink (computeFacts), not a binding.
func (s *Summary) addLocal(obj types.Object, params []int) bool {
	if obj == nil || len(params) == 0 || !DeclaredWithin(obj, s.Decl) {
		return false
	}
	if _, isParam := s.params[obj]; isParam {
		return false // a param reassigned keeps its param identity conservatively
	}
	grew := false
	for _, p := range params {
		if !slices.Contains(s.locals[obj], p) {
			if s.locals == nil {
				s.locals = map[types.Object][]int{}
			}
			s.locals[obj] = append(s.locals[obj], p)
			grew = true
		}
	}
	return grew
}

// computeLocals iterates the body's bindings to a fixpoint, building the
// local variable → parameters map (flow-insensitive union).
func (s *Summary) computeLocals(body *ast.BlockStmt) {
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				changed = s.bindAssign(n) || changed
			case *ast.ValueSpec:
				for i, name := range n.Names {
					var rhs ast.Expr
					if i < len(n.Values) {
						rhs = n.Values[i]
					} else if len(n.Values) == 1 {
						rhs = n.Values[0]
					}
					if rhs != nil {
						changed = s.addLocal(s.info.ObjectOf(name), s.exprSources(rhs)) || changed
					}
				}
			case *ast.RangeStmt:
				// The value variable aliases an element of the ranged
				// container; for reference elements that keeps the
				// dependence alive.
				if n.Value != nil {
					changed = s.addLocal(BaseObject(s.info, n.Value), s.exprSources(n.X)) || changed
				}
			}
			return true
		})
	}
}

// bindAssign records one assignment's bindings. A tuple binding (one
// right-hand side) binds only its first variable: the comma-ok form's
// value, since a multi-result call's results are fresh values.
func (s *Summary) bindAssign(as *ast.AssignStmt) bool {
	changed := false
	for i, rhs := range as.Rhs {
		if id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident); ok {
			changed = s.addLocal(s.info.ObjectOf(id), s.exprSources(rhs)) || changed
		}
	}
	return changed
}

// carries reports whether e mentions parameter i or a local carrying it.
func (s *Summary) carries(e ast.Expr, i int) bool {
	return Mentions(s.info, e, func(o types.Object) bool {
		if pi, ok := s.params[o]; ok && pi == i {
			return true
		}
		return slices.Contains(s.locals[o], i)
	})
}

// computeFacts walks the body once, recording param-flow edges, sink
// reasons and returns.
func (s *Summary) computeFacts(body *ast.BlockStmt) {
	nparams := len(s.params)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			s.recordCall(n, nparams, "")
		case *ast.GoStmt:
			s.recordCall(n.Call, nparams, "launched in a goroutine")
			return true
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if _, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					obj := BaseObject(s.info, lhs)
					if _, local := s.locals[obj]; local {
						continue
					}
					if obj != nil {
						if _, isParam := s.params[obj]; isParam {
							continue
						}
						if v, isVar := obj.(*types.Var); isVar && !DeclaredWithin(v, s.Decl) {
							s.sinkMentioned(n.Rhs, "stored in a package-level variable")
						}
					}
					continue
				}
				s.sinkMentioned(n.Rhs, "stored into a field, slot or map")
			}
		case *ast.SendStmt:
			s.sinkMentioned([]ast.Expr{n.Value}, "sent on a channel")
		case *ast.FuncLit:
			for i := 0; i < nparams; i++ {
				if s.ParamSunk[i] == "" && s.carries(n, i) {
					s.ParamSunk[i] = "captured by a function literal"
				}
			}
			return false
		case *ast.ReturnStmt:
			for j, res := range n.Results {
				for _, p := range s.exprSources(res) {
					if !slices.Contains(s.Returns[j], p) {
						s.Returns[j] = append(s.Returns[j], p)
					}
				}
			}
		}
		return true
	})
}

// recordCall adds param-flow edges for one call's arguments; sunk, when
// non-empty, marks the whole call as an ownership sink (go statements).
func (s *Summary) recordCall(call *ast.CallExpr, nparams int, sunk string) {
	callee := CalleeFunc(s.info, call)
	if callee == nil {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if _, isBuiltin := s.info.Uses[id].(*types.Builtin); isBuiltin {
				return // len/cap/append/... neither sink nor propagate here
			}
		}
		if tv, ok := s.info.Types[call.Fun]; ok && tv.IsType() {
			return // conversion, not a call
		}
	}
	for argIdx, arg := range call.Args {
		for i := 0; i < nparams; i++ {
			if !s.carries(arg, i) {
				continue
			}
			switch {
			case sunk != "":
				if s.ParamSunk[i] == "" {
					s.ParamSunk[i] = sunk
				}
			case callee == nil:
				if s.ParamSunk[i] == "" {
					s.ParamSunk[i] = "passed through a function value"
				}
			default:
				s.ParamUses[i] = append(s.ParamUses[i], ParamUse{Call: call, Callee: callee, Arg: argIdx})
			}
		}
	}
}

// sinkMentioned marks every parameter mentioned by any of exprs as sunk.
func (s *Summary) sinkMentioned(exprs []ast.Expr, why string) {
	for _, pi := range s.params {
		if s.ParamSunk[pi] != "" {
			continue
		}
		for _, e := range exprs {
			if s.carries(e, pi) {
				s.ParamSunk[pi] = why
				break
			}
		}
	}
}

// Flow is the transitive fate of one parameter's value: every call site
// it may reach through chains of in-package calls, plus the sideways
// escapes observed anywhere along the way.
type Flow struct {
	// Uses lists every call site the value may reach, at any depth.
	// In-package callees with summaries are both listed and descended
	// into; everything else is terminal.
	Uses []ParamUse
	// Sunk, when non-empty, is the first sideways-escape reason seen.
	Sunk string
	// Returned reports that some function on the chain may return the
	// value to its caller.
	Returned bool
}

// ParamFlow resolves the transitive fate of parameter arg of fn,
// following summary edges across in-package calls.
func (r *Result) ParamFlow(fn *types.Func, arg int) Flow {
	var fl Flow
	type key struct {
		fn  *types.Func
		arg int
	}
	seen := map[key]bool{}
	var walk func(fn *types.Func, arg, depth int)
	walk = func(fn *types.Func, arg, depth int) {
		if depth > maxFlowDepth || seen[key{fn, arg}] {
			return
		}
		seen[key{fn, arg}] = true
		s := r.SummaryOf(fn)
		if s == nil {
			return
		}
		if why, ok := s.ParamSunk[arg]; ok && fl.Sunk == "" {
			fl.Sunk = why
		}
		for _, params := range s.Returns {
			if slices.Contains(params, arg) {
				fl.Returned = true
			}
		}
		for _, use := range s.ParamUses[arg] {
			fl.Uses = append(fl.Uses, use)
			callee := use.Callee
			cs := r.SummaryOf(callee)
			if cs == nil {
				continue
			}
			sig := callee.Type().(*types.Signature)
			target := use.Arg
			if target >= sig.Params().Len() {
				if !sig.Variadic() || sig.Params().Len() == 0 {
					continue
				}
				target = sig.Params().Len() - 1
			}
			walk(callee, target, depth+1)
		}
	}
	walk(fn, arg, 0)
	return fl
}

// Package leasepair enforces the repo's one acquire/release discipline,
// for two kinds of pair. Every sync.Pool is a built-in pair, Get and Put:
// the serving hot path recycles its pair/dist/byte/path buffers on every
// request, one early return that skips the Put quietly turns the pool
// into a per-request allocator, and one Put too early hands the same
// backing array to two concurrent requests. A leased type declares its
// pair with a
//
//	//pathsep:lease acquire=<name> release=<name>
//
// directive in the doc comment of its type declaration, naming the
// package's acquire and release functions. internal/serve hands out the
// current oracle image this way: acquire pins a generation, so a
// concurrent reload cannot retire it mid-query, and release unpins it; a
// missed release wedges reload drains forever, and a use after release
// races the swap.
//
// Wrappers are found by one fixpoint over the ssaflow direct summaries: a
// function one of whose results is an acquirer's result (pool.Get, the
// named acquire function, or another wrapper) acquires the same pair, and
// a function that passes one of its parameters to a releaser's release
// slot (pool.Put, the named release function, or another wrapper)
// releases it, however many levels deep the chain goes. The walk ignores
// a pair inside the bodies that acquire or release it for their callers:
// dropping a too-small buffer inside a getter is the resize policy, not a
// leak.
//
// One path-sensitive walk over every function body (test files excepted)
// then carries both kinds of obligation:
//
//   - all-paths release: a value obtained from an acquirer must reach a
//     releaser of its pair on every path out — early returns, falling off
//     the end, and panics. A deferred release covers every exit and
//     permits later uses.
//   - no use after release: after a non-deferred release, any mention of
//     the value races whoever holds it next.
//   - no overwrite: rebinding an open value to something unrelated drops
//     it. Rebinding through a self-slice (v = v[:n]), a self-append or
//     v = f(..., v, ...) keeps it.
//   - ownership transfer: returning the value, storing it into a
//     field/slice/map, sending it on a channel, or capturing it in a
//     goroutine or function literal moves the obligation elsewhere, and
//     the walk stops tracking it. A plain call argument does not.
//
// Pool buffers also must go back to the pool they came from, and must not
// be rebound to a different backing array (v = append(w, v...),
// v = w[i:j]) before the Put, which would poison the pool with a foreign
// array. Leases also allow one generation per response — acquiring a
// second lease while one is open can mix two generations' results — and
// no raw Load/Store/Swap/CompareAndSwap on an atomic.Pointer of the
// leased type outside the acquire/release bodies, which would bypass the
// reader count. A deliberate bypass (the reload swap, serialized by its
// own mutex) is annotated at the call site with
// `//pathsep:lease-bypass <reason>` on the same line or the line above,
// keeping the justification in the diff.
//
// Branches merge conservatively: a value is open after a branch if any
// surviving path left it open, and counts as released only if every
// surviving path released it.
package leasepair

import (
	"cmp"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"pathsep/internal/analyzers/ssaflow"
)

// Directive declares a leased type; BypassDirective sanctions one raw
// pointer access.
const (
	Directive       = "//pathsep:lease"
	BypassDirective = "//pathsep:lease-bypass"
)

// Analyzer is the leasepair pass.
var Analyzer = &analysis.Analyzer{
	Name:     "leasepair",
	Doc:      "acquire/release pairing for sync.Pool buffers and //pathsep:lease types: all paths release, no use-after-release, buffers back to their own pool, one lease generation per response, no raw atomic access",
	Requires: []*analysis.Analyzer{inspect.Analyzer, ssaflow.Analyzer},
	Run:      run,
}

// pair is one acquire/release discipline: a sync.Pool, or a type
// declared with Directive.
type pair struct {
	typ              *types.Named // the leased type; nil for a pool
	name             string       // the pool's or the leased type's name
	acquire, release string       // the directive's names; release is "Put" for a pool
	noun             string       // "pool buffer" or "lease", in messages
	origin           string       // how a message says the value was opened
	hazard           string       // what a use after release risks
}

func poolPair(pool types.Object) *pair {
	return &pair{
		name: pool.Name(), release: "Put",
		noun: "pool buffer", origin: "Get from " + pool.Name(),
		hazard: "the pool may have handed it to another goroutine",
	}
}

func leasePair(typ *types.Named, acquire, release string) *pair {
	return &pair{
		typ: typ, name: typ.Obj().Name(), acquire: acquire, release: release,
		noun: "lease", origin: "acquired",
		hazard: "the image may be swapped out from under it",
	}
}

// fits reports whether a wrapper's result or parameter of type t can
// carry the pair's value: any type for a pool (Get returns any), *T or T
// for a leased T.
func (p *pair) fits(t types.Type) bool {
	if p.typ == nil {
		return true
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj() == p.typ.Obj()
}

// parseDirective extracts acquire=/release= from a directive line.
func parseDirective(text string) (acquire, release string, ok bool) {
	rest := strings.TrimPrefix(strings.TrimSpace(text), Directive)
	if rest == text || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
		return "", "", false
	}
	for _, f := range strings.Fields(rest) {
		switch {
		case strings.HasPrefix(f, "acquire="):
			acquire = f[len("acquire="):]
		case strings.HasPrefix(f, "release="):
			release = f[len("release="):]
		}
	}
	return acquire, release, acquire != "" && release != ""
}

// declaredLeases finds //pathsep:lease directives on type declarations.
func declaredLeases(pass *analysis.Pass) []*pair {
	var out []*pair
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				var lines []*ast.Comment
				if gd.Doc != nil {
					lines = append(lines, gd.Doc.List...)
				}
				if ts.Doc != nil {
					lines = append(lines, ts.Doc.List...)
				}
				for _, c := range lines {
					acq, rel, ok := parseDirective(c.Text)
					if !ok {
						continue
					}
					obj, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
					if !ok {
						continue
					}
					named, ok := obj.Type().(*types.Named)
					if !ok {
						pass.Reportf(c.Pos(), "%s directive on %s: leased type must be a defined type", Directive, ts.Name.Name)
						continue
					}
					out = append(out, leasePair(named, acq, rel))
				}
			}
		}
	}
	return out
}

// pairs is one package's classification: the declared leases, the pools
// met so far, the functions that acquire and release each pair, and
// those functions' bodies, where the walk ignores that pair.
type pairs struct {
	info      *types.Info
	leases    []*pair
	pools     map[types.Object]*pair
	acquirers map[*types.Func]*pair
	releasers map[*types.Func]map[int]*pair // function -> parameter -> pair
	exempt    map[ast.Node]map[*pair]bool
}

// poolCall matches a direct sync.Pool method call, returning the pool's
// pair and the method name ("Get" or "Put").
func (ps *pairs) poolCall(call *ast.CallExpr) (*pair, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Get" && sel.Sel.Name != "Put") {
		return nil, ""
	}
	t := ps.info.TypeOf(sel.X)
	if t == nil {
		return nil, ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" || n.Obj().Name() != "Pool" {
		return nil, ""
	}
	obj := poolObj(ps.info, sel.X)
	if obj == nil {
		return nil, ""
	}
	p := ps.pools[obj]
	if p == nil {
		p = poolPair(obj)
		ps.pools[obj] = p
	}
	return p, sel.Sel.Name
}

// poolObj resolves a pool's identity from the receiver of pool.Get() or
// pool.Put(): the field object for s.pairBufs, the variable for a
// package-level pool.
func poolObj(info *types.Info, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.ObjectOf(x)
	case *ast.SelectorExpr:
		return info.ObjectOf(x.Sel)
	case *ast.IndexExpr:
		return poolObj(info, x.X)
	case *ast.StarExpr:
		return poolObj(info, x.X)
	}
	return nil
}

// acquired returns the pair whose value call's result is: a pool.Get, or
// a call to an acquirer. nil if neither.
func (ps *pairs) acquired(call *ast.CallExpr) *pair {
	if call == nil {
		return nil
	}
	if p, method := ps.poolCall(call); method == "Get" {
		return p
	}
	return ps.acquirers[ssaflow.CalleeFunc(ps.info, call)]
}

// released returns which of call's arguments it releases, and into which
// pair: a pool.Put's only argument, or a releaser's release slots.
func (ps *pairs) released(call *ast.CallExpr) map[int]*pair {
	if p, method := ps.poolCall(call); method == "Put" && len(call.Args) == 1 {
		return map[int]*pair{0: p}
	}
	return ps.releasers[ssaflow.CalleeFunc(ps.info, call)]
}

func (ps *pairs) addAcquirer(s *ssaflow.Summary, p *pair) {
	ps.acquirers[s.Fn] = p
	ps.exemptBody(s.Decl, p)
}

func (ps *pairs) addReleaser(s *ssaflow.Summary, i int, p *pair) {
	if ps.releasers[s.Fn] == nil {
		ps.releasers[s.Fn] = map[int]*pair{}
	}
	ps.releasers[s.Fn][i] = p
	ps.exemptBody(s.Decl, p)
}

func (ps *pairs) exemptBody(decl ast.Node, p *pair) {
	if ps.exempt[decl] == nil {
		ps.exempt[decl] = map[*pair]bool{}
	}
	ps.exempt[decl][p] = true
}

// classify seeds each lease's named functions, then finds every wrapper
// to a fixpoint over the direct summaries: a function one of whose
// results is an acquired value acquires that pair, and a function passing
// a parameter into a release slot releases it. (Transitive resolvers
// would see through the in-package acquire to its atomics; the direct
// summaries stop at the pair's own functions.) Summaries are visited in
// source order, so the first matching result or parameter wins
// deterministically.
func (ps *pairs) classify(res *ssaflow.Result) {
	sums := make([]*ssaflow.Summary, 0, len(res.Summaries))
	for _, s := range res.Summaries {
		sums = append(sums, s)
	}
	slices.SortFunc(sums, func(a, b *ssaflow.Summary) int { return cmp.Compare(a.Decl.Pos(), b.Decl.Pos()) })

	for _, s := range sums {
		sig := s.Fn.Type().(*types.Signature)
		for _, l := range ps.leases {
			switch s.Fn.Name() {
			case l.acquire:
				for j := 0; j < sig.Results().Len(); j++ {
					if l.fits(sig.Results().At(j).Type()) {
						ps.addAcquirer(s, l)
					}
				}
			case l.release:
				for i := 0; i < sig.Params().Len(); i++ {
					if l.fits(sig.Params().At(i).Type()) {
						ps.addReleaser(s, i, l)
					}
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, s := range sums {
			sig := s.Fn.Type().(*types.Signature)
		results:
			for j := 0; j < sig.Results().Len() && ps.acquirers[s.Fn] == nil; j++ {
				for _, src := range s.Returns[j] {
					if p := ps.acquired(src.Call); p != nil && p.fits(sig.Results().At(j).Type()) {
						ps.addAcquirer(s, p)
						changed = true
						break results
					}
				}
			}
			for i := 0; i < sig.Params().Len(); i++ {
				if ps.releasers[s.Fn][i] != nil {
					continue
				}
				for _, use := range s.ParamUses[i] {
					if p := ps.released(use.Call)[use.Arg]; p != nil && p.fits(sig.Params().At(i).Type()) {
						ps.addReleaser(s, i, p)
						changed = true
						break
					}
				}
			}
		}
	}
}

// bypassLines collects //pathsep:lease-bypass annotations per file.
func bypassLines(pass *analysis.Pass) map[string]map[int]bool {
	out := map[string]map[int]bool{}
	for _, file := range pass.Files {
		fname := pass.Fset.Position(file.Pos()).Filename
		lines := map[int]bool{}
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(strings.TrimSpace(c.Text), BypassDirective) {
					lines[pass.Fset.Position(c.Pos()).Line] = true
				}
			}
		}
		out[fname] = lines
	}
	return out
}

func run(pass *analysis.Pass) (interface{}, error) {
	res := pass.ResultOf[ssaflow.Analyzer].(*ssaflow.Result)
	ps := &pairs{
		info:      pass.TypesInfo,
		leases:    declaredLeases(pass),
		pools:     map[types.Object]*pair{},
		acquirers: map[*types.Func]*pair{},
		releasers: map[*types.Func]map[int]*pair{},
		exempt:    map[ast.Node]map[*pair]bool{},
	}
	ps.classify(res)
	if len(ps.leases) > 0 {
		rawAccess(pass, ps)
	}

	// Path-sensitive pairing walk over every function body.
	for _, fn := range res.Funcs {
		if strings.HasSuffix(pass.Fset.Position(fn.Node.Pos()).Filename, "_test.go") {
			continue
		}
		w := &walker{pass: pass, ps: ps, exempt: ps.exempt[fn.Node]}
		st := &state{open: map[types.Object]*held{}, done: map[types.Object]*held{}}
		w.stmts(st, fn.Body.List)
		if !st.dead {
			w.leaks(st, fn.Body.End(), "falls off the end of "+fn.Name)
		}
	}
	return nil, nil
}

// rawAccess reports Load/Store/Swap/CompareAndSwap on an
// atomic.Pointer[T] of a leased T outside the lease's acquire/release
// bodies and without a bypass annotation.
func rawAccess(pass *analysis.Pass, ps *pairs) {
	bypass := bypassLines(pass)
	inLeaseBody := func(pos token.Pos) bool {
		for node, ex := range ps.exempt {
			for p := range ex {
				if p.typ != nil && pos >= node.Pos() && pos < node.End() {
					return true
				}
			}
		}
		return false
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		switch sel.Sel.Name {
		case "Load", "Store", "Swap", "CompareAndSwap":
		default:
			return
		}
		for _, l := range ps.leases {
			if !isAtomicPtrOf(pass.TypesInfo.TypeOf(sel.X), l.typ) {
				continue
			}
			pos := pass.Fset.Position(call.Pos())
			if strings.HasSuffix(pos.Filename, "_test.go") || inLeaseBody(call.Pos()) {
				continue
			}
			if lines := bypass[pos.Filename]; lines[pos.Line] || lines[pos.Line-1] {
				continue
			}
			pass.Reportf(call.Pos(), "raw atomic %s of leased type %s bypasses the %s/%s lease; use the lease or annotate %s",
				sel.Sel.Name, l.name, l.acquire, l.release, BypassDirective)
		}
	})
}

// isAtomicPtrOf reports whether t is sync/atomic.Pointer[leased] (or a
// pointer to one).
func isAtomicPtrOf(t types.Type, leased *types.Named) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" || obj.Name() != "Pointer" {
		return false
	}
	args := n.TypeArgs()
	if args == nil || args.Len() != 1 {
		return false
	}
	arg, ok := args.At(0).(*types.Named)
	return ok && arg.Obj() == leased.Obj()
}

// held is one tracked value: its pair, where it was acquired (or, once
// released, where), and whether a rebind replaced its backing array.
type held struct {
	pos     token.Pos
	pair    *pair
	foreign token.Pos // position of the backing-array-replacing rebind
}

// state is the abstract store along one path.
type state struct {
	open map[types.Object]*held
	done map[types.Object]*held
	dead bool
}

func (st *state) clone() *state {
	c := &state{
		open: make(map[types.Object]*held, len(st.open)),
		done: make(map[types.Object]*held, len(st.done)),
		dead: st.dead,
	}
	for k, v := range st.open {
		cp := *v
		c.open[k] = &cp
	}
	for k, v := range st.done {
		c.done[k] = v
	}
	return c
}

// merge folds branch outcomes: open if open on any surviving path,
// released only if released on every surviving path.
func (st *state) merge(branches []*state) {
	live := branches[:0]
	for _, b := range branches {
		if !b.dead {
			live = append(live, b)
		}
	}
	if len(live) == 0 {
		st.dead = true
		return
	}
	open := map[types.Object]*held{}
	for _, b := range live {
		for k, v := range b.open {
			if _, ok := open[k]; !ok {
				open[k] = v
			}
		}
	}
	released := map[types.Object]*held{}
	for k, v := range live[0].done {
		onAll := true
		for _, b := range live[1:] {
			if _, ok := b.done[k]; !ok {
				onAll = false
				break
			}
		}
		if onAll {
			released[k] = v
		}
	}
	// A value released on some paths but still open on another stays
	// open: the remaining path still owes the release.
	for k := range open {
		delete(released, k)
	}
	st.open, st.done = open, released
}

// walker interprets one function body.
type walker struct {
	pass   *analysis.Pass
	ps     *pairs
	exempt map[*pair]bool // pairs this body acquires or releases for its callers
}

func (w *walker) info() *types.Info { return w.pass.TypesInfo }

func (w *walker) leaks(st *state, pos token.Pos, how string) {
	for obj, h := range st.open {
		w.pass.Reportf(pos, "%s %s (%s at %s) is never released: control %s without a %s",
			h.pair.noun, obj.Name(), h.pair.origin, w.pass.Fset.Position(h.pos), how, h.pair.release)
	}
	st.open = map[types.Object]*held{}
}

func (w *walker) stmts(st *state, list []ast.Stmt) {
	for _, s := range list {
		if st.dead {
			return
		}
		w.stmt(st, s)
	}
}

// useCheck reports mentions of already-released values inside e and
// scrubs them to avoid cascades. Values in skip (those the release call e
// is releasing) do not count.
func (w *walker) useCheck(st *state, e ast.Expr, skip map[types.Object]*pair) {
	if e == nil || len(st.done) == 0 {
		return
	}
	for obj, d := range st.done {
		if skip[obj] != nil {
			continue
		}
		if ssaflow.Mentions(w.info(), e, func(o types.Object) bool { return o == obj }) {
			w.pass.Reportf(e.Pos(), "%s %s used after %s at %s; %s",
				d.pair.noun, obj.Name(), d.pair.release, w.pass.Fset.Position(d.pos), d.pair.hazard)
			delete(st.done, obj)
		}
	}
}

// escapes stops tracking values mentioned by e: ownership has moved into
// a structure, channel, or closure the walk can't follow.
func (w *walker) escapes(st *state, e ast.Expr) {
	if e == nil || len(st.open) == 0 {
		return
	}
	for obj := range st.open {
		if ssaflow.Mentions(w.info(), e, func(o types.Object) bool { return o == obj }) {
			delete(st.open, obj)
		}
	}
}

// acquireCall matches an acquire (possibly behind a type assertion),
// returning its pair.
func (w *walker) acquireCall(e ast.Expr) *pair {
	e = ast.Unparen(e)
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ast.Unparen(ta.X)
	}
	call, _ := e.(*ast.CallExpr)
	if p := w.ps.acquired(call); p != nil && !w.exempt[p] {
		return p
	}
	return nil
}

// releasedObj names the value a release argument hands back: v for v,
// v[:0] or &v.
func (w *walker) releasedObj(arg ast.Expr) types.Object {
	arg = ast.Unparen(arg)
	if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
		arg = ast.Unparen(u.X)
	}
	return ssaflow.BaseObject(w.info(), arg)
}

// release closes obj against pair p.
func (w *walker) release(st *state, p *pair, obj types.Object, deferred bool, pos token.Pos) {
	h, ok := st.open[obj]
	if !ok {
		return // unknown origin (parameter, field, fresh buffer seeding a pool)
	}
	if h.pair != p {
		w.pass.Reportf(pos, "%s %s from %s is %s into %s; buffers must return to their own pool",
			h.pair.noun, obj.Name(), h.pair.name, p.release, p.name)
	}
	if h.foreign != token.NoPos {
		w.pass.Reportf(pos, "%s %s was rebound to a different backing array at %s; Putting the alias poisons %s",
			h.pair.noun, obj.Name(), w.pass.Fset.Position(h.foreign), p.name)
	}
	delete(st.open, obj)
	if !deferred {
		// A deferred release runs after every later use; a plain one
		// makes later mentions races.
		st.done[obj] = &held{pos: pos, pair: h.pair}
	}
}

// foreignRebind reports whether rhs rebinds obj to a (possibly)
// different backing array: slicing or appending another object.
func (w *walker) foreignRebind(obj types.Object, rhs ast.Expr) bool {
	switch r := ast.Unparen(rhs).(type) {
	case *ast.SliceExpr:
		return ssaflow.BaseObject(w.info(), r.X) != obj
	case *ast.CallExpr:
		if id, ok := ast.Unparen(r.Fun).(*ast.Ident); ok {
			if _, isBuiltin := w.info().Uses[id].(*types.Builtin); isBuiltin && id.Name == "append" && len(r.Args) > 0 {
				return ssaflow.BaseObject(w.info(), r.Args[0]) != obj
			}
		}
	}
	return false
}

// assign interprets one assignment or binding.
func (w *walker) assign(st *state, lhs, rhs ast.Expr, pos token.Pos) {
	info := w.info()
	w.useCheck(st, rhs, nil)

	id, isIdent := ast.Unparen(lhs).(*ast.Ident)
	if !isIdent {
		// Storing into a field, slot, or map transfers ownership of any
		// open value the RHS mentions.
		w.useCheck(st, lhs, nil)
		w.escapes(st, rhs)
		return
	}
	obj := info.ObjectOf(id)
	if obj == nil {
		return
	}
	var p *pair
	if rhs != nil {
		p = w.acquireCall(rhs)
	}
	if h, open := st.open[obj]; open {
		switch {
		case rhs == nil || !ssaflow.Mentions(info, rhs, func(o types.Object) bool { return o == obj }):
			w.pass.Reportf(pos, "%s %s (%s at %s) is overwritten without a %s",
				h.pair.noun, obj.Name(), h.pair.origin, w.pass.Fset.Position(h.pos), h.pair.release)
			delete(st.open, obj)
		case w.foreignRebind(obj, rhs):
			h.foreign = pos
		}
	}
	delete(st.done, obj) // rebinding after a release starts a fresh value
	if p == nil {
		return
	}
	if p.typ != nil {
		for other, h := range st.open {
			if h.pair.typ != nil {
				w.pass.Reportf(pos, "second lease generation acquired while %s (acquired at %s) is still held; one generation per response",
					other.Name(), w.pass.Fset.Position(h.pos))
			}
		}
	}
	st.open[obj] = &held{pos: pos, pair: p}
}

// call interprets a call in statement position.
func (w *walker) call(st *state, call *ast.CallExpr, deferred bool) {
	if rel := w.ps.released(call); len(rel) > 0 {
		released := map[types.Object]*pair{}
		for i, p := range rel {
			if i < len(call.Args) {
				if obj := w.releasedObj(call.Args[i]); obj != nil {
					released[obj] = p
				}
			}
		}
		w.useCheck(st, call, released)
		for obj, p := range released {
			w.release(st, p, obj, deferred, call.Pos())
		}
		return
	}
	w.useCheck(st, call, nil)
	if p := w.acquireCall(call); p != nil {
		// Acquiring without binding the result leaks it immediately.
		w.pass.Reportf(call.Pos(), "%s acquired and discarded; bind the result and %s it", p.noun, p.release)
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		if _, isBuiltin := w.info().Uses[id].(*types.Builtin); isBuiltin {
			// Open values at a panic leak unless a deferred release covers
			// them — and deferred releases already removed themselves.
			w.leaks(st, call.Pos(), "panics")
			st.dead = true
			return
		}
	}
	// Closures receiving the value take the obligation with them.
	for _, arg := range call.Args {
		if _, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			w.escapes(st, arg)
		}
	}
}

// exprEvents walks non-statement expressions for use-after-release and
// closure captures.
func (w *walker) exprEvents(st *state, e ast.Expr) {
	if e == nil {
		return
	}
	w.useCheck(st, e, nil)
	ast.Inspect(e, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			w.escapes(st, lit)
			return false
		}
		return true
	})
}

func (w *walker) stmt(st *state, s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			ast.Inspect(r, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					w.escapes(st, lit)
					return false
				}
				return true
			})
		}
		if len(s.Lhs) == len(s.Rhs) {
			for i := range s.Lhs {
				w.assign(st, s.Lhs[i], s.Rhs[i], s.Pos())
			}
		} else if len(s.Rhs) == 1 {
			for _, lhs := range s.Lhs {
				w.assign(st, lhs, s.Rhs[0], s.Pos())
			}
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, name := range vs.Names {
						var rhs ast.Expr
						if i < len(vs.Values) {
							rhs = vs.Values[i]
						} else if len(vs.Values) == 1 {
							rhs = vs.Values[0]
						}
						w.assign(st, name, rhs, s.Pos())
					}
				}
			}
		}
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			w.call(st, call, false)
		} else {
			w.exprEvents(st, s.X)
		}
	case *ast.DeferStmt:
		w.call(st, s.Call, true)
	case *ast.GoStmt:
		w.useCheck(st, s.Call, nil)
		w.escapes(st, s.Call)
	case *ast.SendStmt:
		w.useCheck(st, s.Value, nil)
		w.escapes(st, s.Value)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.useCheck(st, r, nil)
			w.escapes(st, r)
		}
		w.leaks(st, s.Pos(), "returns")
		st.dead = true
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(st, s.Init)
		}
		w.exprEvents(st, s.Cond)
		then := st.clone()
		w.stmts(then, s.Body.List)
		els := st.clone()
		if s.Else != nil {
			w.stmt(els, s.Else)
		}
		st.merge([]*state{then, els})
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(st, s.Init)
		}
		if s.Cond != nil {
			w.exprEvents(st, s.Cond)
		}
		body := st.clone()
		w.stmts(body, s.Body.List)
		if s.Post != nil && !body.dead {
			w.stmt(body, s.Post)
		}
		body.dead = false // breaking out rejoins the fall-through path
		st.merge([]*state{st.clone(), body})
	case *ast.RangeStmt:
		w.exprEvents(st, s.X)
		body := st.clone()
		w.stmts(body, s.Body.List)
		body.dead = false
		st.merge([]*state{st.clone(), body})
	case *ast.BlockStmt:
		w.stmts(st, s.List)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var init ast.Stmt
		var body *ast.BlockStmt
		if sw, ok := s.(*ast.SwitchStmt); ok {
			init, body = sw.Init, sw.Body
			if sw.Tag != nil {
				w.exprEvents(st, sw.Tag)
			}
		} else {
			ts := s.(*ast.TypeSwitchStmt)
			init, body = ts.Init, ts.Body
		}
		if init != nil {
			w.stmt(st, init)
		}
		var branches []*state
		hasDefault := false
		for _, c := range body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				if cc.List == nil {
					hasDefault = true
				}
				b := st.clone()
				w.stmts(b, cc.Body)
				branches = append(branches, b)
			}
		}
		if !hasDefault {
			branches = append(branches, st.clone())
		}
		if len(branches) > 0 {
			st.merge(branches)
		}
	case *ast.SelectStmt:
		var branches []*state
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				b := st.clone()
				if cc.Comm != nil {
					w.stmt(b, cc.Comm)
				}
				w.stmts(b, cc.Body)
				branches = append(branches, b)
			}
		}
		if len(branches) > 0 {
			st.merge(branches)
		}
	case *ast.LabeledStmt:
		w.stmt(st, s.Stmt)
	case *ast.IncDecStmt:
		w.exprEvents(st, s.X)
	case *ast.BranchStmt:
		// break/continue/goto end this path as far as the straight-line
		// walk can see; open values rejoin via the loop merge.
		st.dead = true
	}
}

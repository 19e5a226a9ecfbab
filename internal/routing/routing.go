// Package routing implements the labeled compact routing scheme of the
// paper (abstract, item 3) on top of the k-path separator decomposition.
//
// For every separator path Q (at node H, phase i of its separator) a
// small set of evenly spaced "global" portals is chosen. Each portal p
// carries a shortest-path tree of the residual graph J = H minus earlier
// phases; every vertex of J stores, per portal, its exact distance, its
// parent hop toward p, and DFS intervals for its tree children, so a
// packet can travel up to p and then down to any DFS number — classic
// interval routing on the portal tree. The attachment forest (the
// multi-source shortest-path forest from Q) is stored the same way, plus
// path-neighbor hops for walking along Q.
//
// The target's address holds, per (H, i, Q), its distance and DFS number
// under every portal tree and under the attachment forest. A route picks
// the plan minimizing the estimated length over all shared keys:
//
//	tree plan:   d(u,p) + d(p,t)                      (up, then down)
//	attach plan: d(u,Q) + d_Q(c(u),c(t)) + d(t,Q)     (up, creep, down)
//
// Every plan's estimate is exactly realizable, so delivery is guaranteed
// and the route length equals the chosen estimate. By the first-crossing
// argument the attach plan caps stretch at 3 while portal granularity
// takes it toward 1+ε — the portals-per-path knob trades table size for
// stretch, which experiment E6 measures.
package routing

import (
	"fmt"
	"math"
	"sort"

	"pathsep/internal/core"
	"pathsep/internal/graph"
	"pathsep/internal/obs"
	"pathsep/internal/oracle"
	"pathsep/internal/shortest"
)

// ChildIv is a downward-routing interval: forward to Next when the target
// DFS number lies in [Lo, Hi].
type ChildIv struct {
	Next   int32
	Lo, Hi int32
}

// PortState is a vertex's routing state for one global portal.
type PortState struct {
	Idx      int16   // portal index on the path
	Dist     float64 // exact distance to the portal in J
	Up       int32   // next hop toward the portal; -1 at the portal itself
	Children []ChildIv
}

// AttachState is a vertex's routing state for the attachment forest of
// one separator path.
type AttachState struct {
	Dist     float64 // d(v, Q)
	Pos      float64 // position of the closest path vertex c(v)
	Up       int32   // next hop toward c(v); -1 on the path
	Children []ChildIv
	OnPath   bool
	// PrevHop/NextHop walk along the path (valid when OnPath).
	PrevHop, NextHop int32
	PrevPos, NextPos float64
}

// Entry is one vertex's routing state for one separator path.
type Entry struct {
	Key    oracle.Key
	Ports  []PortState
	Attach AttachState
	HasAtt bool
}

// Table is one vertex's complete routing table.
type Table struct {
	Entries []Entry
}

// NumWords estimates the table size in machine words.
func (t *Table) NumWords() int {
	total := 0
	for _, e := range t.Entries {
		total += 3 // key + attach header
		total += 6
		total += 3 * len(e.Attach.Children)
		for _, p := range e.Ports {
			total += 3 + 3*len(p.Children)
		}
	}
	return total
}

// AddrPort is the target-side state for one portal: distance and DFS
// number in the portal tree.
type AddrPort struct {
	Idx  int16
	Dist float64
	DFS  int32
}

// AddrEntry is the target-side state for one separator path.
type AddrEntry struct {
	Key       oracle.Key
	Ports     []AddrPort
	AttDist   float64
	AttPos    float64
	AttDFS    int32
	HasAttach bool
}

// Addr is a vertex's routing address (its "label").
type Addr struct {
	Entries []AddrEntry
}

// NumWords estimates the address size in machine words.
func (a *Addr) NumWords() int {
	total := 0
	for _, e := range a.Entries {
		total += 6 + 3*len(e.Ports)
	}
	return total
}

// Router holds all tables and addresses.
type Router struct {
	G      *graph.Graph
	Tables []Table
	Addrs  []Addr
	// Route-time instruments, cached so the hot path costs one nil check
	// when metrics are disabled. Set via SetMetrics / Options.Metrics.
	rHops   *obs.Histogram
	rHeader *obs.Histogram
	rFailed *obs.Counter
}

// SetMetrics attaches (or, with nil, detaches) route-time metrics:
// "routing.hops" observes the hop count of each delivered route,
// "routing.header_bytes" the size of the target address consulted, and
// "routing.undelivered" counts failed routes.
func (r *Router) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		r.rHops, r.rHeader, r.rFailed = nil, nil, nil
		return
	}
	r.rHops = reg.Histogram("routing.hops")
	r.rHeader = reg.Histogram("routing.header_bytes")
	r.rFailed = reg.Counter("routing.undelivered")
}

// Options configures Build.
type Options struct {
	// Epsilon sizes the portal count per path: ceil(4/ε) when
	// PortalsPerPath is 0.
	Epsilon float64
	// PortalsPerPath overrides the portal count.
	PortalsPerPath int
	// Metrics, when non-nil, receives build-time accounting under
	// "routing.*" and "shortest.*" and attaches route-time histograms to
	// the router (equivalent to calling SetMetrics).
	Metrics *obs.Registry
}

// Build constructs routing tables and addresses from a decomposition tree.
func Build(t *core.Tree, opt Options) (*Router, error) {
	if opt.Epsilon <= 0 {
		opt.Epsilon = 0.25
	}
	portals := opt.PortalsPerPath
	if portals <= 0 {
		portals = int(math.Ceil(4 / opt.Epsilon))
	}
	span := opt.Metrics.StartSpan("routing.build")
	defer span.End()
	col := shortest.NewCollector(opt.Metrics)
	r := &Router{
		G:      t.G,
		Tables: make([]Table, t.G.N()),
		Addrs:  make([]Addr, t.G.N()),
	}
	for _, node := range t.Nodes {
		if node.Sep == nil {
			continue
		}
		err := core.Residuals(node.Sub.G, node.Sep, func(phaseIdx int, sub *graph.Sub, paths []core.ResidualPath) error {
			j := sub.G
			rootID := func(jv int) int { return node.Sub.Orig[sub.Orig[jv]] }
			for pi, p := range paths {
				k := oracle.Key{Node: int32(node.ID), Phase: int16(phaseIdx), Path: int16(pi)}
				verts, pos := p.Verts, p.Pos
				entryOf := make(map[int]*Entry, j.N()) // J-local -> table entry
				addrOf := make(map[int]*AddrEntry, j.N())
				getEntry := func(jv int) *Entry {
					if e, ok := entryOf[jv]; ok {
						return e
					}
					tb := &r.Tables[rootID(jv)]
					tb.Entries = append(tb.Entries, Entry{Key: k})
					e := &tb.Entries[len(tb.Entries)-1]
					entryOf[jv] = e
					return e
				}
				getAddr := func(jv int) *AddrEntry {
					if e, ok := addrOf[jv]; ok {
						return e
					}
					ad := &r.Addrs[rootID(jv)]
					ad.Entries = append(ad.Entries, AddrEntry{Key: k})
					e := &ad.Entries[len(ad.Entries)-1]
					addrOf[jv] = e
					return e
				}

				// Attachment forest.
				trQ := shortest.MultiSource(j, verts)
				col.Record(trQ)
				dfsA, err := dfsNumber(j.N(), trQ.Parent, trQ.Source)
				if err != nil {
					return err
				}
				idxOf := make(map[int]int, len(verts))
				for x, jv := range verts {
					idxOf[jv] = x
				}
				for w := 0; w < j.N(); w++ {
					if trQ.Source[w] < 0 {
						continue
					}
					e := getEntry(w)
					a := getAddr(w)
					cIdx := idxOf[trQ.Source[w]]
					att := AttachState{
						Dist: trQ.Dist[w],
						Pos:  pos[cIdx],
						Up:   -1,
					}
					if trQ.Parent[w] >= 0 {
						att.Up = int32(rootID(trQ.Parent[w]))
					}
					att.Children = childIntervals(w, dfsA, rootID)
					if x, on := idxOf[w]; on {
						att.OnPath = true
						att.PrevHop, att.NextHop = -1, -1
						if x > 0 {
							att.PrevHop = int32(rootID(verts[x-1]))
							att.PrevPos = pos[x-1]
						}
						if x+1 < len(verts) {
							att.NextHop = int32(rootID(verts[x+1]))
							att.NextPos = pos[x+1]
						}
					}
					e.Attach = att
					e.HasAtt = true
					a.AttDist = trQ.Dist[w]
					a.AttPos = pos[cIdx]
					a.AttDFS = dfsA.in[w]
					a.HasAttach = true
				}

				// Global portal trees.
				for portIdx, x := range evenPortalIdx(pos, portals) {
					tr := shortest.Dijkstra(j, verts[x])
					col.Record(tr)
					src := make([]int, j.N())
					for w := range src {
						if math.IsInf(tr.Dist[w], 1) {
							src[w] = -1
						} else {
							src[w] = verts[x]
						}
					}
					dfsP, err := dfsNumber(j.N(), tr.Parent, src)
					if err != nil {
						return err
					}
					for w := 0; w < j.N(); w++ {
						if src[w] < 0 {
							continue
						}
						e := getEntry(w)
						ps := PortState{
							Idx:  int16(portIdx),
							Dist: tr.Dist[w],
							Up:   -1,
						}
						if tr.Parent[w] >= 0 {
							ps.Up = int32(rootID(tr.Parent[w]))
						}
						ps.Children = childIntervals(w, dfsP, rootID)
						e.Ports = append(e.Ports, ps)
						a := getAddr(w)
						a.Ports = append(a.Ports, AddrPort{
							Idx:  int16(portIdx),
							Dist: tr.Dist[w],
							DFS:  dfsP.in[w],
						})
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("routing: node %d: %w", node.ID, err)
		}
	}
	for v := range r.Tables {
		sortEntries(&r.Tables[v], &r.Addrs[v])
	}
	if m := opt.Metrics; m != nil {
		tableHist := m.Histogram("routing.table_words")
		addrHist := m.Histogram("routing.addr_words")
		for v := range r.Tables {
			tableHist.Observe(float64(r.Tables[v].NumWords()))
			addrHist.Observe(float64(r.Addrs[v].NumWords()))
		}
		m.Gauge("routing.max_table_words").Set(int64(r.MaxTableWords()))
		m.Gauge("routing.max_addr_words").Set(int64(r.MaxAddrWords()))
		r.SetMetrics(m)
	}
	return r, nil
}

// dfsResult carries a DFS pre-order numbering of a forest: in[v] is the
// vertex's number, out[v] the max number in its subtree, children the
// child lists.
type dfsResult struct {
	in, out  []int32
	children [][]int
}

// dfsNumber numbers the forest given by parent pointers (roots have
// parent < 0 among vertices with src >= 0; vertices with src < 0 are
// outside the forest).
func dfsNumber(n int, parent, src []int) (*dfsResult, error) {
	d := &dfsResult{
		in:       make([]int32, n),
		out:      make([]int32, n),
		children: make([][]int, n),
	}
	for v := 0; v < n; v++ {
		d.in[v] = -1
		if src[v] >= 0 && parent[v] >= 0 {
			d.children[parent[v]] = append(d.children[parent[v]], v)
		}
	}
	counter := int32(0)
	var stack []int
	for root := 0; root < n; root++ {
		if src[root] < 0 || parent[root] >= 0 {
			continue
		}
		// Iterative DFS with post-processing of out[].
		stack = append(stack[:0], root)
		var order []int
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			d.in[v] = counter
			counter++
			order = append(order, v)
			for _, c := range d.children[v] {
				stack = append(stack, c)
			}
		}
		for i := len(order) - 1; i >= 0; i-- {
			v := order[i]
			d.out[v] = d.in[v]
			for _, c := range d.children[v] {
				if d.out[c] > d.out[v] {
					d.out[v] = d.out[c]
				}
			}
		}
	}
	for v := 0; v < n; v++ {
		if src[v] >= 0 && d.in[v] < 0 {
			return nil, fmt.Errorf("routing: forest numbering missed vertex %d", v)
		}
	}
	return d, nil
}

// childIntervals builds the downward-routing intervals of w.
func childIntervals(w int, d *dfsResult, rootID func(int) int) []ChildIv {
	if len(d.children[w]) == 0 {
		return nil
	}
	out := make([]ChildIv, 0, len(d.children[w]))
	for _, c := range d.children[w] {
		out = append(out, ChildIv{Next: int32(rootID(c)), Lo: d.in[c], Hi: d.out[c]})
	}
	return out
}

func evenPortalIdx(pos []float64, p int) []int {
	n := len(pos)
	if n == 0 {
		return nil
	}
	if p < 2 {
		p = 2
	}
	if n <= p {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	total := pos[n-1]
	out := []int{0}
	for i := 1; i < p-1; i++ {
		target := total * float64(i) / float64(p-1)
		x := sort.SearchFloat64s(pos, target)
		if x >= n {
			x = n - 1
		}
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	if out[len(out)-1] != n-1 {
		out = append(out, n-1)
	}
	return out
}

func keyLess(a, b oracle.Key) bool {
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	if a.Phase != b.Phase {
		return a.Phase < b.Phase
	}
	return a.Path < b.Path
}

func sortEntries(t *Table, a *Addr) {
	sort.Slice(t.Entries, func(i, j int) bool { return keyLess(t.Entries[i].Key, t.Entries[j].Key) })
	sort.Slice(a.Entries, func(i, j int) bool { return keyLess(a.Entries[i].Key, a.Entries[j].Key) })
}

// planKind distinguishes the two plan families.
type planKind uint8

const (
	planTree planKind = iota
	planAttach
)

type routePlan struct {
	kind      planKind
	key       oracle.Key
	est       float64
	portIdx   int16   // tree plan
	targetDFS int32   // tree plan / attach plan (attach forest DFS)
	targetPos float64 // attach plan: position of c(t)
}

// Route forwards a packet from s to target using only per-vertex tables
// and the target's address. It returns the vertex path and whether the
// target was reached. Delivery is guaranteed for connected pairs: the
// chosen plan's route is exactly realizable (up the portal tree, then
// down DFS intervals), so maxHops only guards against corrupted tables.
// Out-of-range vertex IDs fail the route (nil, false) rather than panic.
func (r *Router) Route(s, target int, maxHops int) ([]int, bool) {
	if s < 0 || target < 0 || s >= len(r.Tables) || target >= len(r.Addrs) {
		return nil, false
	}
	path, ok := r.route(s, target, maxHops)
	if r.rHops != nil {
		r.rHeader.Observe(float64(r.Addrs[target].NumWords() * 8))
		if ok {
			r.rHops.Observe(float64(len(path) - 1))
		} else {
			r.rFailed.Inc()
		}
	}
	return path, ok
}

func (r *Router) route(s, target int, maxHops int) ([]int, bool) {
	path := []int{s}
	if s == target {
		return path, true
	}
	addr := &r.Addrs[target]
	plan, ok := r.choosePlan(s, addr)
	if !ok {
		return path, false
	}
	cur := s
	stage := 0 // 0 = up, 1 = creep (attach only), 2 = down
	for hop := 0; hop < maxHops; hop++ {
		if cur == target {
			return path, true
		}
		next := r.step(cur, &plan, &stage)
		if next < 0 {
			return path, false
		}
		cur = next
		path = append(path, cur)
	}
	return path, cur == target
}

// EstimateAndRoute returns the chosen plan estimate along with the route;
// useful for auditing that realized length equals the estimate.
func (r *Router) EstimateAndRoute(s, target, maxHops int) (float64, []int, bool) {
	if s < 0 || target < 0 || s >= len(r.Tables) || target >= len(r.Addrs) {
		return math.Inf(1), nil, false
	}
	if s == target {
		return 0, []int{s}, true
	}
	plan, ok := r.choosePlan(s, &r.Addrs[target])
	if !ok {
		return math.Inf(1), []int{s}, false
	}
	path, delivered := r.Route(s, target, maxHops)
	return plan.est, path, delivered
}

// choosePlan merges the shared keys of cur's table and the address and
// returns the minimum-estimate plan.
func (r *Router) choosePlan(cur int, addr *Addr) (routePlan, bool) {
	tb := &r.Tables[cur]
	best := routePlan{est: math.Inf(1)}
	found := false
	i, j := 0, 0
	for i < len(tb.Entries) && j < len(addr.Entries) {
		a, b := tb.Entries[i], addr.Entries[j]
		switch {
		case a.Key == b.Key:
			// Tree plans: match portals by index (both lists are in
			// portal-index order by construction).
			pi, qi := 0, 0
			for pi < len(a.Ports) && qi < len(b.Ports) {
				p, q := a.Ports[pi], b.Ports[qi]
				switch {
				case p.Idx == q.Idx:
					if est := p.Dist + q.Dist; est < best.est {
						best = routePlan{kind: planTree, key: a.Key, est: est, portIdx: p.Idx, targetDFS: q.DFS}
						found = true
					}
					pi++
					qi++
				case p.Idx < q.Idx:
					pi++
				default:
					qi++
				}
			}
			if a.HasAtt && b.HasAttach {
				est := a.Attach.Dist + math.Abs(a.Attach.Pos-b.AttPos) + b.AttDist
				if est < best.est {
					best = routePlan{kind: planAttach, key: a.Key, est: est, targetDFS: b.AttDFS, targetPos: b.AttPos}
					found = true
				}
			}
			i++
			j++
		case keyLess(a.Key, b.Key):
			i++
		default:
			j++
		}
	}
	return best, found
}

// step advances one hop within the plan. stage: 0 up, 1 creep, 2 down.
func (r *Router) step(cur int, plan *routePlan, stage *int) int {
	e := r.entryFor(cur, plan.key)
	if e == nil {
		return -1
	}
	switch plan.kind {
	case planTree:
		ps := e.portState(plan.portIdx)
		if ps == nil {
			return -1
		}
		if *stage == 0 {
			if ps.Up >= 0 {
				return int(ps.Up)
			}
			*stage = 2
		}
		return downStep(ps.Children, plan.targetDFS)
	default: // planAttach
		att := &e.Attach
		if !e.HasAtt {
			return -1
		}
		if *stage == 0 {
			if att.Up >= 0 {
				return int(att.Up)
			}
			*stage = 1
		}
		if *stage == 1 {
			if !core.SameDist(att.Pos, plan.targetPos) {
				// Creep along the path toward the target attachment.
				if plan.targetPos > att.Pos && att.NextHop >= 0 {
					return int(att.NextHop)
				}
				if plan.targetPos < att.Pos && att.PrevHop >= 0 {
					return int(att.PrevHop)
				}
				return -1
			}
			*stage = 2
		}
		return downStep(att.Children, plan.targetDFS)
	}
}

func downStep(children []ChildIv, dfs int32) int {
	for _, c := range children {
		if c.Lo <= dfs && dfs <= c.Hi {
			return int(c.Next)
		}
	}
	return -1
}

func (e *Entry) portState(idx int16) *PortState {
	for i := range e.Ports {
		if e.Ports[i].Idx == idx {
			return &e.Ports[i]
		}
	}
	return nil
}

func (r *Router) entryFor(cur int, k oracle.Key) *Entry {
	tb := &r.Tables[cur]
	lo, hi := 0, len(tb.Entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if keyLess(tb.Entries[mid].Key, k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(tb.Entries) && tb.Entries[lo].Key == k {
		return &tb.Entries[lo]
	}
	return nil
}

// SpaceWords returns the total table size across vertices in words.
func (r *Router) SpaceWords() int {
	total := 0
	for i := range r.Tables {
		total += r.Tables[i].NumWords()
	}
	return total
}

// MaxTableWords returns the largest per-vertex table size in words.
func (r *Router) MaxTableWords() int {
	best := 0
	for i := range r.Tables {
		if w := r.Tables[i].NumWords(); w > best {
			best = w
		}
	}
	return best
}

// MaxAddrWords returns the largest address size in words.
func (r *Router) MaxAddrWords() int {
	best := 0
	for i := range r.Addrs {
		if w := r.Addrs[i].NumWords(); w > best {
			best = w
		}
	}
	return best
}

// RouteWeight returns the total weight of a vertex path in the base graph.
func (r *Router) RouteWeight(path []int) float64 {
	w, ok := shortest.PathLength(r.G, path)
	if !ok {
		return math.Inf(1)
	}
	return w
}

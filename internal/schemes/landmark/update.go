// Incremental rebuilds. After a one-edge flip most of a scheme's tables keep
// their value, and Update recomputes only what the flip changes. Every
// stored port is canonical — the port toward the smallest-id neighbour one
// step closer to the target — so each landmark-table entry is a function of
// the column's distances at u and its neighbours, and a repair that gets the
// distances right can name exactly the ports to recompute.
//
// Column repair, per landmark a, with D the column's distances before the
// flip and dx ≤ dy those of the endpoints (swapping x and y if need be):
//
//   - Added edge. Nothing changes unless dy > dx+1. Then y drops to dx+1,
//     and a wavefront from y relaxes a neighbour only when it strictly
//     improves it. It starts from one node, so it dequeues in
//     nondecreasing distance and sets every node it reaches once, to its
//     final distance.
//   - Removed edge. Nothing changes unless dy = dx+1. A node is raised when
//     it has no neighbour one step closer that keeps its distance: y first,
//     then, level by level, the children of raised nodes. A level is settled
//     before the next is examined, so each verdict reads final ones. The
//     raised nodes are exactly those whose distance grows, and each is
//     settled again at one more than its best unraised neighbour, merged in
//     distance order with the relaxations among raised nodes — a BFS with
//     many sources at different depths. A raised node nothing settles cannot
//     reach a, and Update reports ErrDisconnected.
//
// Neither repair falls back to the column's full BFS: the wavefront scans
// each lowered node's row once, and a removal scans each raised node's row
// at most three times (its verdict, its start, its settling), so a repair
// costs at most three BFS runs restricted to the nodes it changes. Where a
// removal raises much of a column, a budgeted repair that then reran the
// full BFS measured slower (EXPERIMENTS.md).
//
// Ports. A port at u changes only when u's distance, a neighbour's distance
// or u's own row changes, so after a repair the canonical port is recomputed
// for the changed nodes, their neighbours, and x and y (whose rows renumber).
// Restricted schemes keep non-owned rows zero.
//
// Homes. ℓ(v) and home(v) change only on rows with a changed distance; only
// those rows are rescanned.
//
// eport. eport(v) is the port at ℓ(v) toward the smallest-id first node of
// any shortest path to v: at distance 1 the port toward v itself, beyond it
// the least eport among v's neighbours one step closer. Those neighbours
// share v's home (a node on a shortest path from ℓ(v) to v is no closer to
// any other landmark, and a tie with a smaller landmark would pass to v), so
// eport depends only on v's home cell, and changes only for nodes whose home
// changed or below a node whose closer neighbours changed — one of the port
// candidates above. Update walks down the new shortest-path DAG from those
// inside their home cell and recomputes the nodes it reaches in distance
// order. When x or y is a landmark, its row renumbers every eport of its
// cell; it is itself a candidate and the root of that DAG, so the walk
// reaches the whole cell.
//
// Cluster rule. Destination v's entries come from a BFS from v truncated at
// depth L = home(v)−1, which scans the rows of the nodes closer than L. Only
// the rows of x and y differ between the graphs, so when neither x nor y is
// closer than L to v the two runs reach the same nodes at the same depths,
// and every holder keeps its closer neighbours. Entries are recomputed for v
// when home(v) changed or min(d(v,x), d(v,y)) < L, and the distances come
// from one BFS from {x,y} in the new graph (the condition is symmetric: if
// the new run scans neither endpoint, it equals the old run). A kept entry
// held at x or y keeps its neighbour, since the other endpoint is not one
// step closer to v, but its port renumbers: ports past the flipped
// neighbour's slot move up by one on an addition and down by one on a
// removal.
package landmark

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"routetab/internal/graph"
)

// unsettled is a raised node's distance until a surviving path settles it.
const unsettled = math.MaxInt32

// Update returns the scheme for g derived from prev, where prevPorts is the
// sorted port view of prev's graph and g differs from that graph by exactly
// the edge {x,y}. The result equals Build(g, ports, opt) restricted to
// prev.Owned() byte for byte, for the opt prev was built with. Both port
// views must be sorted (model IB). Callers fall back to Build on an error.
func Update(prev *Scheme, prevPorts *graph.Ports, g *graph.Graph, ports *graph.Ports, x, y int) (*Scheme, error) {
	s, _, err := update(prev, prevPorts, g, ports, x, y)
	return s, err
}

// update is Update that also counts the nodes its repairs visited, once per
// column, list or walk they enter.
func update(prev *Scheme, prevPorts *graph.Ports, g *graph.Graph, ports *graph.Ports, x, y int) (s *Scheme, touched int, err error) {
	n, k := prev.n, prev.k
	if g.N() != n {
		return nil, 0, fmt.Errorf("landmark: update of n=%d scheme to n=%d graph", n, g.N())
	}
	if x < 1 || x > n || y < 1 || y > n || x == y {
		return nil, 0, fmt.Errorf("landmark: update across bad edge {%d,%d}", x, y)
	}
	if !prevPorts.Sorted() || !ports.Sorted() {
		return nil, 0, fmt.Errorf("landmark: update needs sorted ports")
	}
	if err := ports.Validate(g); err != nil {
		return nil, 0, fmt.Errorf("landmark: %w", err)
	}
	_, had := prevPorts.PortToOK(x, y)
	added := g.HasEdge(x, y)
	if had == added {
		return nil, 0, fmt.Errorf("landmark: edge {%d,%d} is not flipped", x, y)
	}

	s = &Scheme{
		n:         n,
		k:         k,
		landmarks: prev.landmarks,
		homeIdx:   slices.Clone(prev.homeIdx),
		homeDist:  slices.Clone(prev.homeDist),
		eport:     slices.Clone(prev.eport),
		lmIdx:     prev.lmIdx,
		lmPort:    slices.Clone(prev.lmPort),
		lmDist:    slices.Clone(prev.lmDist),
		owned:     prev.owned,
	}
	r := newRepair(s, prev, g, x, y, added)
	for j := range s.landmarks {
		if err := r.column(j); err != nil {
			return nil, r.touched, err
		}
	}
	r.homes()
	r.eports()

	// The ports of the flipped edge, in the graph that has it.
	withEdge := prevPorts
	if added {
		withEdge = ports
	}
	px, _ := withEdge.PortToOK(x, y)
	py, _ := withEdge.PortToOK(y, x)
	renumber := func(p int32, slot int) int32 {
		if added && p >= int32(slot) {
			return p + 1
		}
		if !added && p > int32(slot) {
			return p - 1
		}
		return p
	}
	dirty := s.dirtyDestinations(prev, g, x, y)
	fresh := newEntries(n, prev.owned)
	for v := int32(1); v <= int32(n); v++ {
		if limit := s.homeDist[v] - 1; dirty[v] && limit >= 2 {
			fresh.emit(g, nil, v, limit)
		}
	}
	fStart, fDst, fPort, fDist := fresh.rows(n)
	// Merge each holder's kept old entries with its fresh ones by
	// destination; both runs are sorted and their destinations disjoint.
	ct := len(prev.clusterDst) + len(fDst)
	s.clusterStart = make([]int32, n+1)
	s.clusterDst = make([]int32, 0, ct)
	s.clusterPort = make([]int32, 0, ct)
	s.clusterDist = make([]int32, 0, ct)
	for u := 1; u <= n; u++ {
		i, hi := prev.clusterStart[u-1], prev.clusterStart[u]
		f, fhi := fStart[u-1], fStart[u]
		for i < hi || f < fhi {
			if i < hi && dirty[prev.clusterDst[i]] {
				i++
				continue
			}
			if f < fhi && (i == hi || fDst[f] < prev.clusterDst[i]) {
				s.clusterDst = append(s.clusterDst, fDst[f])
				s.clusterPort = append(s.clusterPort, fPort[f])
				s.clusterDist = append(s.clusterDist, fDist[f])
				f++
				continue
			}
			p := prev.clusterPort[i]
			switch u {
			case x:
				p = renumber(p, px)
			case y:
				p = renumber(p, py)
			}
			s.clusterDst = append(s.clusterDst, prev.clusterDst[i])
			s.clusterPort = append(s.clusterPort, p)
			s.clusterDist = append(s.clusterDist, prev.clusterDist[i])
			i++
		}
		s.clusterStart[u] = int32(len(s.clusterDst))
	}
	s.buildLabels()
	return s, r.touched, nil
}

// repair is the scratch of one Update's column repairs, indexed by node.
type repair struct {
	s, prev *Scheme
	g       *graph.Graph
	x, y    int
	added   bool

	// mark and raised are stamps: a node is marked (or raised) in the
	// current pass when its stamp equals epoch.
	mark, raised []uint32
	epoch        uint32

	changed []int32 // the nodes whose distance the current column changed
	queue   []int32
	settle  [][2]int32
	// rowDirty and rows collect the nodes with a changed distance in any
	// column: the rows the home rescan reads.
	rowDirty []bool
	rows     []int32
	// seeds are (column, node) pairs whose closer neighbours may have
	// changed: where the eport walk starts.
	seeds [][2]int32

	touched int
}

func newRepair(s, prev *Scheme, g *graph.Graph, x, y int, added bool) *repair {
	n := s.n
	return &repair{
		s: s, prev: prev, g: g, x: x, y: y, added: added,
		mark:     make([]uint32, n+1),
		raised:   make([]uint32, n+1),
		rowDirty: make([]bool, n+1),
	}
}

// nextEpoch starts a marking pass.
func (r *repair) nextEpoch() uint32 {
	r.epoch++
	return r.epoch
}

// column repairs landmark j's column: distances, then canonical ports, and
// records the changed rows and the eport seeds.
func (r *repair) column(j int) error {
	if r.added {
		r.lower(j)
	} else if err := r.raise(j); err != nil {
		return err
	}
	r.repairPorts(j)
	for _, u := range r.changed {
		if !r.rowDirty[u] {
			r.rowDirty[u] = true
			r.rows = append(r.rows, u)
		}
	}
	return nil
}

// lower repairs column j after {x,y} was added: a wavefront from the farther
// endpoint that relaxes only strict improvements.
func (r *repair) lower(j int) {
	k, dist := r.s.k, r.s.lmDist
	x, y := r.x, r.y
	if dist[(x-1)*k+j] > dist[(y-1)*k+j] {
		x, y = y, x
	}
	q := r.changed[:0]
	if d := dist[(x-1)*k+j] + 1; dist[(y-1)*k+j] > d {
		dist[(y-1)*k+j] = d
		q = append(q, int32(y))
	}
	for qi := 0; qi < len(q); qi++ {
		u := int(q[qi])
		du := dist[(u-1)*k+j] + 1
		for _, w := range r.g.Neighbors(u) {
			if at := (w-1)*k + j; dist[at] > du {
				dist[at] = du
				q = append(q, int32(w))
			}
		}
	}
	r.changed = q
	r.touched += len(q)
}

// raise repairs column j after {x,y} was removed: it raises the nodes left
// without a closer neighbour that keeps its distance, then settles them
// again from the rest. It reports ErrDisconnected when a raised node cannot
// be settled.
func (r *repair) raise(j int) error {
	k, dist := r.s.k, r.s.lmDist
	far, dnear := r.y, dist[(r.x-1)*k+j]
	if dfar := dist[(r.y-1)*k+j]; dfar == dnear {
		r.changed = r.changed[:0]
		return nil
	} else if dfar < dnear {
		far = r.x
	}
	// Examine candidates level by level; a raised node's children one
	// level down become candidates.
	marked, raised := r.nextEpoch(), r.epoch
	r.mark[far] = marked
	cand := append(r.queue[:0], int32(far))
	up := r.changed[:0]
	for qi := 0; qi < len(cand); qi++ {
		w := int(cand[qi])
		dw := dist[(w-1)*k+j]
		row := r.g.Neighbors(w)
		kept := false
		for _, p := range row {
			if dist[(p-1)*k+j] == dw-1 && r.raised[p] != raised {
				kept = true
				break
			}
		}
		if kept {
			continue
		}
		r.raised[w] = raised
		up = append(up, int32(w))
		for _, c := range row {
			if dist[(c-1)*k+j] == dw+1 && r.mark[c] != marked {
				r.mark[c] = marked
				cand = append(cand, int32(c))
			}
		}
	}
	r.queue = cand
	r.changed = up
	r.touched += len(cand)
	if len(up) == 0 {
		return nil
	}
	// Settle: each raised node starts one past its best unraised neighbour;
	// starts in ascending order merge with a FIFO of relaxations, so nodes
	// are finalised in distance order.
	starts := r.settle[:0] // (start distance, node) pairs
	for _, w := range up {
		best := int32(unsettled)
		for _, p := range r.g.Neighbors(int(w)) {
			if r.raised[p] != raised {
				best = min(best, dist[(p-1)*k+j]+1)
			}
		}
		dist[(int(w)-1)*k+j] = best
		if best != unsettled {
			starts = append(starts, [2]int32{best, w})
		}
	}
	r.settle = starts
	slices.SortFunc(starts, func(a, b [2]int32) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	fifo := cand[:0]
	for si, fi := 0, 0; si < len(starts) || fi < len(fifo); {
		var u int
		if fi < len(fifo) && (si == len(starts) || dist[(int(fifo[fi])-1)*k+j] <= starts[si][0]) {
			u = int(fifo[fi])
			fi++
		} else {
			u = int(starts[si][1])
			si++
			if dist[(u-1)*k+j] != starts[si-1][0] {
				continue // lowered since, and settled from the FIFO
			}
		}
		du := dist[(u-1)*k+j] + 1
		for _, c := range r.g.Neighbors(u) {
			if at := (c-1)*k + j; r.raised[c] == raised && dist[at] > du {
				dist[at] = du
				fifo = append(fifo, int32(c))
			}
		}
	}
	r.queue = fifo
	for _, w := range up {
		if dist[(int(w)-1)*k+j] == unsettled {
			return fmt.Errorf("%w: node %d cannot reach landmark %d", ErrDisconnected, w, r.s.landmarks[j])
		}
	}
	return nil
}

// repairPorts recomputes column j's canonical ports at the changed nodes,
// their neighbours, x and y, and records those nodes as eport seeds.
func (r *repair) repairPorts(j int) {
	s := r.s
	marked := r.nextEpoch()
	list := r.queue[:0]
	visit := func(u int) {
		if r.mark[u] != marked {
			r.mark[u] = marked
			list = append(list, int32(u))
		}
	}
	for _, u := range r.changed {
		visit(int(u))
		for _, w := range r.g.Neighbors(int(u)) {
			visit(w)
		}
	}
	visit(r.x)
	visit(r.y)
	for _, u := range list {
		if s.owned == nil || s.owned.Has(int(u)) {
			s.lmPort[(int(u)-1)*s.k+j] = r.canonicalPort(int(u), j)
		}
		r.seeds = append(r.seeds, [2]int32{int32(j), u})
	}
	r.queue = list
	r.touched += len(list)
}

// canonicalPort returns the port at u toward its smallest-id neighbour one
// step closer to landmark j, or 0 at the landmark. Ports are sorted, so the
// port of row entry i is i+1.
func (r *repair) canonicalPort(u, j int) int32 {
	k, dist := r.s.k, r.s.lmDist
	d := dist[(u-1)*k+j] - 1
	if d < 0 {
		return 0
	}
	for i, w := range r.g.Neighbors(u) {
		if dist[(w-1)*k+j] == d {
			return int32(i + 1)
		}
	}
	panic("landmark: repaired column has a node with no closer neighbour")
}

// homes rescans the rows with a changed distance for the nearest landmark,
// ties to the smallest index, and seeds eport at every node whose home moved.
func (r *repair) homes() {
	s, k := r.s, r.s.k
	for _, u := range r.rows {
		row := s.lmDist[(int(u)-1)*k : int(u)*k]
		best := 0
		for j, d := range row {
			if d < row[best] {
				best = j
			}
		}
		s.homeIdx[u], s.homeDist[u] = int32(best), row[best]
		if int32(best) != r.prev.homeIdx[u] {
			r.seeds = append(r.seeds, [2]int32{int32(best), u})
		}
	}
	r.touched += len(r.rows)
}

// eports recomputes eport on every node reached by walking down the new
// shortest-path DAG, inside its home cell, from a seed homed in the seed's
// column; nodes are taken in distance order, so each reads its closer
// neighbours' final eports.
func (r *repair) eports() {
	s, k, g := r.s, r.s.k, r.g
	marked := r.nextEpoch()
	walk := r.queue[:0]
	for _, sd := range r.seeds {
		j, u := sd[0], int(sd[1])
		if s.homeIdx[u] != j || r.mark[u] == marked {
			continue
		}
		r.mark[u] = marked
		from := len(walk)
		walk = append(walk, int32(u))
		for qi := from; qi < len(walk); qi++ {
			w := int(walk[qi])
			dw := s.lmDist[(w-1)*k+int(j)] + 1
			for _, c := range g.Neighbors(w) {
				if r.mark[c] != marked && s.homeIdx[c] == j && s.lmDist[(c-1)*k+int(j)] == dw {
					r.mark[c] = marked
					walk = append(walk, int32(c))
				}
			}
		}
	}
	slices.SortFunc(walk, func(a, b int32) int {
		return cmp.Or(cmp.Compare(s.homeDist[a], s.homeDist[b]), cmp.Compare(a, b))
	})
	for _, v := range walk {
		j := int(s.homeIdx[v])
		a := int(s.landmarks[j])
		switch dv := s.homeDist[v]; dv {
		case 0:
			s.eport[v] = 0
		case 1:
			i, _ := slices.BinarySearch(g.Neighbors(a), int(v))
			s.eport[v] = int32(i + 1)
		default:
			best := int32(math.MaxInt32)
			for _, p := range g.Neighbors(int(v)) {
				if s.lmDist[(p-1)*k+j] == dv-1 && s.eport[p] < best {
					best = s.eport[p]
				}
			}
			s.eport[v] = best
		}
	}
	r.queue = walk
	r.touched += len(walk)
}

// dirtyDestinations marks the destinations whose cluster entries the flip
// can change (the cluster rule above): s holds the new homes, prev the old.
func (s *Scheme) dirtyDestinations(prev *Scheme, g *graph.Graph, x, y int) []bool {
	n := s.n
	dirty := make([]bool, n+1)
	// near[v] = min(d(v,x), d(v,y)) up to the deepest limit that matters,
	// −1 beyond it.
	var reach int32
	for v := 1; v <= n; v++ {
		if s.homeDist[v] == prev.homeDist[v] {
			reach = max(reach, s.homeDist[v]-2)
		}
	}
	near := make([]int32, n+1)
	for i := range near {
		near[i] = -1
	}
	near[x], near[y] = 0, 0
	queue := []int32{int32(x), int32(y)}
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		if near[u] == reach {
			continue
		}
		for _, w := range g.Neighbors(int(u)) {
			if near[w] < 0 {
				near[w] = near[u] + 1
				queue = append(queue, int32(w))
			}
		}
	}
	for v := 1; v <= n; v++ {
		oldLimit, limit := prev.homeDist[v]-1, s.homeDist[v]-1
		if oldLimit != limit {
			dirty[v] = oldLimit >= 2 || limit >= 2
		} else {
			dirty[v] = limit >= 2 && near[v] >= 0 && near[v] < limit
		}
	}
	return dirty
}

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
// Restricted schemes have no rows for non-owned nodes.
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
//
// Storage. Update copies prev's blob once, every section before the cluster
// CSR in one memmove, and repairs columns, homes and eports in that copy;
// prev is only read, so a published scheme never changes under its
// readers, and a refused flip leaves nothing behind. The cluster CSR, in
// its int32 arrays and its blob sections alike, is rewritten from prev's:
// the entries of dirty destinations are dropped, the fresh ones inserted,
// and everything between two such edits is copied as one range; only the
// kept entries held at x and y, whose ports renumber, are rewritten one by
// one.
package landmark

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"routetab/internal/graph"
)

// unsettled is a raised node's distance until a surviving path settles it:
// the largest u16, above every distance of a graph with n ≤ 65535 nodes.
const unsettled = 0xFFFF

// Update returns the scheme for g derived from prev, where prevPorts is the
// sorted port view of prev's graph and g differs from that graph by exactly
// the edge {x,y}. The result equals Build(g, ports, opt) restricted to
// prev.Owned() byte for byte, for the opt prev was built with. Both port
// views must be sorted (model IB). prev is not modified. Callers fall back to
// Build on an error.
func Update(prev *Scheme, prevPorts *graph.Ports, g *graph.Graph, ports *graph.Ports, x, y int) (*Scheme, error) {
	s, _, err := update(prev, prevPorts, g, ports, x, y)
	return s, err
}

// update is Update that also counts the nodes its repairs visited, once per
// column, list or walk they enter.
func update(prev *Scheme, prevPorts *graph.Ports, g *graph.Graph, ports *graph.Ports, x, y int) (s *Scheme, touched int, err error) {
	n := prev.n
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
		k:         prev.k,
		landmarks: prev.landmarks,
		lmIdx:     prev.lmIdx,
		owned:     prev.owned,
		portRow:   prev.portRow,
	}
	// A flip moves few cluster entries; the spare room lets the CSR grow in
	// place instead of copying the blob a second time.
	ct := prev.TotalClusterEntries()
	s.setTables(prev.copyTables(ct, ct/32+64))
	r := newRepair(s, prev, g, x, y, added)
	for j := range s.landmarks {
		if err := r.column(j); err != nil {
			return nil, r.touched, err
		}
	}
	r.homes()
	r.eports()

	dirty := s.dirtyDestinations(prev, g, x, y)
	fresh := newEntries(n, prev.owned)
	for v := int32(1); v <= int32(n); v++ {
		if limit := u16(s.homeDist, int(v)-1) - 1; dirty[v] && limit >= 2 {
			fresh.emit(g, nil, v, limit)
		}
	}
	// The ports of the flipped edge, in the graph that has it.
	withEdge := prevPorts
	if added {
		withEdge = ports
	}
	px, _ := withEdge.PortToOK(x, y)
	py, _ := withEdge.PortToOK(y, x)
	s.mergeClusters(prev, fresh, fresh.held(prev, g, prevPorts, dirty, x, y))
	s.renumberRow(x, int32(px), added, dirty)
	s.renumberRow(y, int32(py), added, dirty)
	if bytes.Equal(s.homeIdx, prev.homeIdx) && bytes.Equal(s.eport, prev.eport) {
		s.labels = prev.labels // a label is its node's home landmark and eport
	} else {
		s.buildLabels()
	}
	return s, r.touched, nil
}

// held returns, in ascending order, the index in prev's cluster CSR of
// every entry whose destination is dirty, using c's BFS scratch.
// Destination v's entries are held by the owned nodes w with
// 2 ≤ d(v,w) < home(v) in prev's graph — g with the flip of {x,y} undone,
// whose sorted rows prevPorts holds — so a BFS from v truncated at depth
// home(v)−1 finds each holder, and a binary search of the holder's row its
// entry.
func (c *entries) held(prev *Scheme, g *graph.Graph, prevPorts *graph.Ports, dirty []bool, x, y int) []int32 {
	rowX, rowY := prevPorts.NeighborsByPort(x), prevPorts.NeighborsByPort(y)
	rows := func(u int) []int {
		switch u {
		case x:
			return rowX
		case y:
			return rowY
		}
		return g.Neighbors(u)
	}
	depth, queue := c.depth, c.queue
	var held []int32
	for v := 1; v <= prev.n; v++ {
		limit := u16(prev.homeDist, v-1) - 1
		if !dirty[v] || limit < 2 {
			continue
		}
		depth[v] = 0
		queue = append(queue[:0], int32(v))
		for qi := 0; qi < len(queue); qi++ {
			u := int(queue[qi])
			du := depth[u] + 1
			if du > limit {
				continue
			}
			for _, w := range rows(u) {
				if depth[w] >= 0 {
					continue
				}
				depth[w] = du
				queue = append(queue, int32(w))
				if du >= 2 && prev.portRowOf(w) >= 0 {
					i, ok := prev.clusterIndex(w, v)
					if !ok {
						panic("landmark: cluster entry missing from its holder's row")
					}
					held = append(held, int32(i))
				}
			}
		}
		for _, u := range queue {
			depth[u] = -1
		}
	}
	c.queue = queue
	slices.Sort(held)
	return held
}

// clusterIndex returns the index of the first entry of u's cluster row whose
// destination is at least v, and whether that destination is v.
func (s *Scheme) clusterIndex(u, v int) (int, bool) {
	row := s.clusterDst[s.clusterStart[u-1]:s.clusterStart[u]]
	i, ok := slices.BinarySearch(row, int32(v))
	return int(s.clusterStart[u-1]) + i, ok
}

// mergeClusters writes s's cluster CSR, arrays and blob sections alike:
// prev's, less the entries at the sorted indices held, plus the fresh
// entries, each placed before the first entry of its holder's row with a
// larger destination. Everything between two such edits is copied as one
// range, across holders.
func (s *Scheme) mergeClusters(prev *Scheme, fresh *entries, held []int32) {
	fStart, fDst, fPort, fDist := fresh.rows(s.n)
	prevCt := prev.TotalClusterEntries()
	ct := prevCt - len(held) + len(fDst)
	if size := len(s.tables) + 8*(ct-prevCt); size <= cap(s.tables) {
		b := s.tables[:size]
		binary.LittleEndian.PutUint32(b[16:], uint32(ct))
		s.setTables(b)
	} else {
		s.setTables(s.copyTables(ct, 0))
	}
	s.clusterStart = make([]int32, s.n+1)
	s.clusterDst = make([]int32, ct)
	s.clusterPort = make([]int32, ct)
	s.clusterDist = make([]int32, ct)
	_, pdB, ppB, pdistB := prev.clusterSections()
	startB, dB, pB, distB := s.clusterSections()
	// The pending run: prev's entries from..i−1 land at to onward.
	from, to := 0, 0
	flush := func(i int) int {
		copy(s.clusterDst[to:], prev.clusterDst[from:i])
		copy(s.clusterPort[to:], prev.clusterPort[from:i])
		copy(s.clusterDist[to:], prev.clusterDist[from:i])
		copy(dB[4*to:], pdB[4*from:4*i])
		copy(pB[2*to:], ppB[2*from:2*i])
		copy(distB[2*to:], pdistB[2*from:2*i])
		return to + i - from
	}
	h, dropped := 0, 0
	for u := 1; u <= s.n; u++ {
		for f := fStart[u-1]; f < fStart[u]; f++ {
			at, _ := prev.clusterIndex(u, int(fDst[f]))
			for ; h < len(held) && int(held[h]) < at; h++ {
				from, to = int(held[h])+1, flush(int(held[h]))
			}
			o := flush(at)
			s.clusterDst[o], s.clusterPort[o], s.clusterDist[o] = fDst[f], fPort[f], fDist[f]
			setU32(dB, o, fDst[f])
			setU16(pB, o, fPort[f])
			setU16(distB, o, fDist[f])
			from, to = at, o+1
		}
		end := prev.clusterStart[u]
		for dropped < len(held) && held[dropped] < end {
			dropped++
		}
		s.clusterStart[u] = end + fStart[u] - int32(dropped)
		setU32(startB, u, s.clusterStart[u])
	}
	for ; h < len(held); h++ {
		from, to = int(held[h])+1, flush(int(held[h]))
	}
	flush(prevCt)
}

// renumberRow shifts the ports of u's kept cluster entries across the
// flipped edge's slot at u: ports from slot on move up by one when the edge
// was added, ports past it down by one when it was removed. Fresh entries,
// those with dirty destinations, already hold the new graph's ports.
func (s *Scheme) renumberRow(u int, slot int32, added bool, dirty []bool) {
	_, _, pB, _ := s.clusterSections()
	for i := s.clusterStart[u-1]; i < s.clusterStart[u]; i++ {
		if dirty[s.clusterDst[i]] {
			continue
		}
		switch p := s.clusterPort[i]; {
		case added && p >= slot:
			s.clusterPort[i] = p + 1
		case !added && p > slot:
			s.clusterPort[i] = p - 1
		}
		setU16(pB, int(i), s.clusterPort[i])
	}
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
	if u16(dist, (x-1)*k+j) > u16(dist, (y-1)*k+j) {
		x, y = y, x
	}
	q := r.changed[:0]
	if d := u16(dist, (x-1)*k+j) + 1; u16(dist, (y-1)*k+j) > d {
		setU16(dist, (y-1)*k+j, d)
		q = append(q, int32(y))
	}
	for qi := 0; qi < len(q); qi++ {
		u := int(q[qi])
		du := u16(dist, (u-1)*k+j) + 1
		for _, w := range r.g.Neighbors(u) {
			if at := (w-1)*k + j; u16(dist, at) > du {
				setU16(dist, at, du)
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
	far, dnear := r.y, u16(dist, (r.x-1)*k+j)
	if dfar := u16(dist, (r.y-1)*k+j); dfar == dnear {
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
		dw := u16(dist, (w-1)*k+j)
		row := r.g.Neighbors(w)
		kept := false
		for _, p := range row {
			if u16(dist, (p-1)*k+j) == dw-1 && r.raised[p] != raised {
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
			if u16(dist, (c-1)*k+j) == dw+1 && r.mark[c] != marked {
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
				best = min(best, u16(dist, (p-1)*k+j)+1)
			}
		}
		setU16(dist, (int(w)-1)*k+j, best)
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
		if fi < len(fifo) && (si == len(starts) || u16(dist, (int(fifo[fi])-1)*k+j) <= starts[si][0]) {
			u = int(fifo[fi])
			fi++
		} else {
			u = int(starts[si][1])
			si++
			if u16(dist, (u-1)*k+j) != starts[si-1][0] {
				continue // lowered since, and settled from the FIFO
			}
		}
		du := u16(dist, (u-1)*k+j) + 1
		for _, c := range r.g.Neighbors(u) {
			if at := (c-1)*k + j; r.raised[c] == raised && u16(dist, at) > du {
				setU16(dist, at, du)
				fifo = append(fifo, int32(c))
			}
		}
	}
	r.queue = fifo
	for _, w := range up {
		if u16(dist, (int(w)-1)*k+j) == unsettled {
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
		if row := s.portRowOf(int(u)); row >= 0 {
			setU16(s.lmPort, row*s.k+j, r.canonicalPort(int(u), j))
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
	d := u16(dist, (u-1)*k+j) - 1
	if d < 0 {
		return 0
	}
	for i, w := range r.g.Neighbors(u) {
		if u16(dist, (w-1)*k+j) == d {
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
		row := s.lmDist[2*(int(u)-1)*k : 2*int(u)*k]
		best, bestDist := 0, u16(row, 0)
		for j := 1; j < k; j++ {
			if d := u16(row, j); d < bestDist {
				best, bestDist = j, d
			}
		}
		setU16(s.homeIdx, int(u)-1, int32(best))
		setU16(s.homeDist, int(u)-1, bestDist)
		if int32(best) != u16(r.prev.homeIdx, int(u)-1) {
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
		if u16(s.homeIdx, u-1) != j || r.mark[u] == marked {
			continue
		}
		r.mark[u] = marked
		from := len(walk)
		walk = append(walk, int32(u))
		for qi := from; qi < len(walk); qi++ {
			w := int(walk[qi])
			dw := u16(s.lmDist, (w-1)*k+int(j)) + 1
			for _, c := range g.Neighbors(w) {
				if r.mark[c] != marked && u16(s.homeIdx, c-1) == j && u16(s.lmDist, (c-1)*k+int(j)) == dw {
					r.mark[c] = marked
					walk = append(walk, int32(c))
				}
			}
		}
	}
	slices.SortFunc(walk, func(a, b int32) int {
		return cmp.Or(cmp.Compare(u16(s.homeDist, int(a)-1), u16(s.homeDist, int(b)-1)), cmp.Compare(a, b))
	})
	for _, v := range walk {
		j := int(u16(s.homeIdx, int(v)-1))
		a := int(s.landmarks[j])
		switch dv := u16(s.homeDist, int(v)-1); dv {
		case 0:
			setU16(s.eport, int(v)-1, 0)
		case 1:
			i, _ := slices.BinarySearch(g.Neighbors(a), int(v))
			setU16(s.eport, int(v)-1, int32(i+1))
		default:
			best := int32(math.MaxInt32)
			for _, p := range g.Neighbors(int(v)) {
				if ep := u16(s.eport, p-1); u16(s.lmDist, (p-1)*k+j) == dv-1 && ep < best {
					best = ep
				}
			}
			setU16(s.eport, int(v)-1, best)
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
		if d := u16(s.homeDist, v-1); d == u16(prev.homeDist, v-1) {
			reach = max(reach, d-2)
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
		oldLimit, limit := u16(prev.homeDist, v-1)-1, u16(s.homeDist, v-1)-1
		if oldLimit != limit {
			dirty[v] = oldLimit >= 2 || limit >= 2
		} else {
			dirty[v] = limit >= 2 && near[v] >= 0 && near[v] < limit
		}
	}
	return dirty
}

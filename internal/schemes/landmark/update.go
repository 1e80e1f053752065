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
// Storage. Update starts from prev's page lists (pages.go) and repairs
// columns, homes and eports through the table accessors, which copy a page
// the first time the update writes a changed value to it; every other page
// stays shared with prev. prev is only read, so a published scheme never
// changes under its readers, and a refused flip leaves nothing behind. The
// cluster CSR is merged by holder block: a block is rebuilt when it holds
// an entry of a dirty destination, a fresh entry, or the row of x or y,
// whose kept entries' ports renumber; every other block is shared. Sealing
// hashes the pages and blocks the update made, and the scratch indexed by
// node is pooled between updates.
package landmark

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"routetab/internal/graph"
	"routetab/internal/keyspace"
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

	s = prev.derive()
	r := newRepair(s, prev, g, x, y, added)
	defer r.release()
	for j := range s.landmarks {
		if err := r.column(j); err != nil {
			return nil, r.touched, err
		}
	}
	r.homes()
	r.eports()

	r.dirtyDestinations()
	// The ports of the flipped edge, in the graph that has it.
	withEdge := prevPorts
	if added {
		withEdge = ports
	}
	px, _ := withEdge.PortToOK(x, y)
	py, _ := withEdge.PortToOK(y, x)
	r.mergeClusters(prevPorts, int32(px), int32(py))
	if s.ct != prev.ct {
		s.head = bytes.Clone(prev.head)
		binary.LittleEndian.PutUint32(s.head[16:], uint32(s.ct))
	}
	s.relabel(prev)
	s.seal(false)
	return s, r.touched, nil
}

// relabel rebuilds the label pages that hold a node whose home landmark or
// eport changed — a label is those two fields — and shares the others with
// prev. s was derived from prev and is not sealed.
func (s *Scheme) relabel(prev *Scheme) {
	for i, t := range [2]*table{&s.homeIdx, &s.eport} {
		pt := [2]*table{&prev.homeIdx, &prev.eport}[i]
		for p, own := range t.own {
			for r := p << t.shift; own && r < min(s.n, (p+1)<<t.shift); r++ {
				lp := (r + 1) >> labelShift
				if t.at(r, 0) == pt.at(r, 0) || &s.labels[lp][0] != &prev.labels[lp][0] {
					continue
				}
				if &s.labels[0] == &prev.labels[0] {
					s.labels = slices.Clone(prev.labels)
				}
				s.labels[lp] = s.labelPage(lp)
			}
		}
	}
}

// derive returns an unsealed scheme that shares every page, block and
// label of prev: the start of an update.
func (prev *Scheme) derive() *Scheme {
	return &Scheme{
		n:         prev.n,
		k:         prev.k,
		landmarks: prev.landmarks,
		lmIdx:     prev.lmIdx,
		head:      prev.head,
		homeIdx:   prev.homeIdx.share(),
		homeDist:  prev.homeDist.share(),
		eport:     prev.eport.share(),
		lmDist:    prev.lmDist.share(),
		lmPort:    prev.lmPort.share(),
		cluster:   prev.cluster.share(),
		ct:        prev.ct,
		homeCount: prev.homeCount,
		sums:      bytes.Clone(prev.sums),
		labels:    prev.labels,
		owned:     prev.owned,
		portRow:   prev.portRow,
	}
}

// changedBlocks emits the fresh entries of every dirty destination and
// lists, ascending, the cluster blocks whose content the flip changes,
// stamped changed in blockMark: the blocks of a holder that loses an entry
// or whose entry changes port or distance, of a holder that gains one, and
// of x or y when a kept entry there renumbers across the flipped edge's
// port px or py. Destination v's old
// entries are held by the owned nodes w with 2 ≤ d(v,w) < home(v) in prev's
// graph — g with the flip of {x,y} undone, whose sorted rows prevPorts
// holds — so a BFS from v truncated at depth home(v)−1 finds each holder,
// and a binary search of its row the entry.
func (r *repair) changedBlocks(prevPorts *graph.Ports, px, py int32) (blocks []int32, changed uint32) {
	s, prev, fresh := r.s, r.prev, r.fresh
	rowX, rowY := prevPorts.NeighborsByPort(r.x), prevPorts.NeighborsByPort(r.y)
	rows := func(u int) []int {
		switch u {
		case r.x:
			return rowX
		case r.y:
			return rowY
		}
		return r.g.Neighbors(u)
	}
	changed = r.nextEpoch()
	blocks = r.blocks[:0]
	touch := func(u int) {
		if b := (u - 1) >> blockShift; r.blockMark[b] != changed {
			r.blockMark[b] = changed
			blocks = append(blocks, int32(b))
		}
	}
	// raised stamps the holders of v's fresh entries, whose index emit left
	// in fresh.slot; mark stamps those whose old entry is the same.
	depth, queue := fresh.depth, r.queue
	for _, v := range r.dirty {
		from := len(fresh.holder)
		if limit := s.homeDist.cell(int(v)-1) - 1; limit >= 2 {
			fresh.emit(r.g, nil, v, limit)
		}
		has, same := r.nextEpoch(), r.nextEpoch()
		for _, w := range fresh.holder[from:] {
			r.raised[w] = has
		}
		limit := prev.homeDist.cell(int(v)-1) - 1
		if limit < 2 {
			limit = 0 // no old entries: the BFS below only resets v
		}
		depth[v] = 0
		queue = append(queue[:0], v)
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
				if du < 2 || prev.portRowOf(w) < 0 {
					continue
				}
				port, ok := prev.clusterPortAt(w, v)
				if !ok {
					panic("landmark: cluster entry missing from its holder's row")
				}
				if i := fresh.slot[w]; r.raised[w] == has && fresh.port[i] == port && fresh.dist[i] == du {
					r.mark[w] = same
				} else {
					touch(w)
				}
			}
		}
		for _, u := range queue {
			depth[u] = -1
		}
		for _, w := range fresh.holder[from:] {
			if r.mark[w] != same {
				touch(int(w))
			}
		}
	}
	r.queue = queue
	for _, u := range [2]int{r.x, r.y} {
		slot := px
		if u == r.y {
			slot = py
		}
		blk, i := prev.cluster.blocks[(u-1)>>blockShift], (u-1)&(blockHolders-1)
		c, e := blk[blockHolders], blk[blockHolders+1:]
		for at := blk[i]; at < blk[i+1]; at++ {
			if r.dirtyMark[e[at]] != r.dirtyEpoch && renumber(e[c+at], slot, r.added) != e[c+at] {
				touch(u)
				break
			}
		}
	}
	slices.Sort(blocks)
	r.blocks = blocks
	return blocks, changed
}

// clusterPortAt returns the port of u's cluster entry for v, and whether u
// holds one.
func (s *Scheme) clusterPortAt(u int, v int32) (int32, bool) {
	blk, i := s.cluster.blocks[(u-1)>>blockShift], (u-1)&(blockHolders-1)
	c, e := blk[blockHolders], blk[blockHolders+1:]
	at, ok := slices.BinarySearch(e[blk[i]:blk[i+1]], v)
	return e[c+blk[i]+int32(at)], ok
}

// renumber returns a kept cluster port p at x or y after the flip of the
// edge at port slot there: ports from slot on move up by one when the edge
// was added, ports past it down by one when it was removed.
func renumber(p, slot int32, added bool) int32 {
	switch {
	case added && p >= slot:
		return p + 1
	case !added && p > slot:
		return p - 1
	}
	return p
}

// mergeClusters rebuilds the cluster blocks the flip changes (changedBlocks):
// prev's block, less every entry whose destination is dirty, plus the fresh
// entries of its holders, each row merged in destination order, with the
// kept entries held at x and y renumbered across the flipped edge's ports
// px and py. Every other block stays shared with prev: its entries of dirty
// destinations equal the fresh ones.
func (r *repair) mergeClusters(prevPorts *graph.Ports, px, py int32) {
	s, prev, fresh := r.s, r.prev, r.fresh
	blocks, changed := r.changedBlocks(prevPorts, px, py)
	// The fresh entries of the changed blocks by holder; the sort is stable,
	// so each holder's stay in ascending destination order, as emitted.
	ord := r.ord[:0]
	for i, w := range fresh.holder {
		if r.blockMark[(w-1)>>blockShift] == changed {
			ord = append(ord, int32(i))
		}
	}
	slices.SortStableFunc(ord, func(a, b int32) int { return cmp.Compare(fresh.holder[a], fresh.holder[b]) })
	r.ord = ord

	f := 0
	for _, b := range blocks {
		old := prev.cluster.blocks[b]
		c, e := old[blockHolders], old[blockHolders+1:]
		keep := c
		for _, v := range e[:c] {
			if r.dirtyMark[v] == r.dirtyEpoch {
				keep--
			}
		}
		f0 := f
		for f < len(ord) && (fresh.holder[ord[f]]-1)>>blockShift == b {
			f++
		}
		nc := keep + int32(f-f0)
		s.ct += int(nc - c)
		if nc == 0 {
			s.cluster.blocks[b], s.cluster.own[b] = emptyBlock, true
			continue
		}
		blk := make([]int32, blockHolders+1+3*nc)
		o := blk[blockHolders+1:]
		w, fi := int32(0), f0
		for i := 0; i < blockHolders; i++ {
			u := int32(b)<<blockShift + int32(i) + 1
			slot, moved := int32(0), false
			switch int(u) {
			case r.x:
				slot, moved = px, true
			case r.y:
				slot, moved = py, true
			}
			for lo, hi := old[i], old[i+1]; ; w++ {
				for lo < hi && r.dirtyMark[e[lo]] == r.dirtyEpoch {
					lo++
				}
				kept, isFresh := lo < hi, fi < f && fresh.holder[ord[fi]] == u
				if isFresh && (!kept || fresh.dst[ord[fi]] < e[lo]) {
					q := ord[fi]
					o[w], o[nc+w], o[2*nc+w] = fresh.dst[q], fresh.port[q], fresh.dist[q]
					fi++
					continue
				}
				if !kept {
					break
				}
				p := e[c+lo]
				if moved {
					p = renumber(p, slot, r.added)
				}
				o[w], o[nc+w], o[2*nc+w] = e[lo], p, e[2*c+lo]
				lo++
			}
			blk[i+1] = w
		}
		s.cluster.blocks[b], s.cluster.own[b] = blk, true
	}
}

// scratch is the working memory of one update, indexed by node: pooled
// between updates of schemes with the same n.
type scratch struct {
	// mark, raised, rowMark, dirtyMark and blockMark are stamps: a node (or
	// block) is marked in a pass when its stamp equals the pass's epoch.
	mark, raised, rowMark, dirtyMark, blockMark []uint32
	epoch                                       uint32

	changed []int32 // the nodes whose distance the current column changed
	queue   []int32
	settle  [][2]int32
	// rows collects the nodes with a changed distance in any column, marked
	// in rowMark: the rows the home rescan reads.
	rows []int32
	// seeds are (column, node) pairs whose closer neighbours may have
	// changed: where the eport walk starts.
	seeds [][2]int32
	// dirty lists the dirty destinations, ascending, marked in dirtyMark.
	dirty []int32
	// fresh collects the entries of dirty destinations; ord and blocks are
	// the cluster merge's.
	fresh  *entries
	ord    []int32
	blocks []int32
}

var scratchPool sync.Pool

// getScratch returns a pooled scratch for n nodes, or a new one, emptied,
// whose fresh entries keep the holders in owned.
func getScratch(n int, owned *keyspace.Set) *scratch {
	sc, _ := scratchPool.Get().(*scratch)
	if sc == nil || len(sc.mark) != n+1 {
		sc = &scratch{
			mark:      make([]uint32, n+1),
			raised:    make([]uint32, n+1),
			rowMark:   make([]uint32, n+1),
			dirtyMark: make([]uint32, n+1),
			blockMark: make([]uint32, blockCount(n)),
			fresh:     newEntries(n, nil),
		}
	}
	// An update takes far fewer than 1<<20 epochs, so none wraps mid-update.
	if sc.epoch > math.MaxUint32-1<<20 {
		for _, m := range [][]uint32{sc.mark, sc.raised, sc.rowMark, sc.dirtyMark, sc.blockMark} {
			clear(m)
		}
		sc.epoch = 0
	}
	sc.rows, sc.seeds, sc.dirty = sc.rows[:0], sc.seeds[:0], sc.dirty[:0]
	f := sc.fresh
	f.owned = owned
	f.holder, f.dst, f.port, f.dist = f.holder[:0], f.dst[:0], f.port[:0], f.dist[:0]
	return sc
}

// repair is one update's state: the schemes, the flip, and its scratch.
type repair struct {
	*scratch
	s, prev *Scheme
	g       *graph.Graph
	x, y    int
	added   bool
	// rowEpoch and dirtyEpoch stamp rowMark and dirtyMark for this update.
	rowEpoch, dirtyEpoch uint32
	// ownCount is set once s.homeCount stops sharing prev's.
	ownCount bool

	touched int
}

func newRepair(s, prev *Scheme, g *graph.Graph, x, y int, added bool) *repair {
	r := &repair{scratch: getScratch(s.n, prev.owned), s: s, prev: prev, g: g, x: x, y: y, added: added}
	r.rowEpoch = r.nextEpoch()
	return r
}

// release returns the scratch to the pool.
func (r *repair) release() {
	scratchPool.Put(r.scratch)
	r.scratch = nil
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
		if r.rowMark[u] != r.rowEpoch {
			r.rowMark[u] = r.rowEpoch
			r.rows = append(r.rows, u)
		}
	}
	return nil
}

// lower repairs column j after {x,y} was added: a wavefront from the farther
// endpoint that relaxes only strict improvements.
func (r *repair) lower(j int) {
	dist := &r.s.lmDist
	x, y := r.x, r.y
	if dist.at(x-1, j) > dist.at(y-1, j) {
		x, y = y, x
	}
	q := r.changed[:0]
	if d := dist.at(x-1, j) + 1; dist.at(y-1, j) > d {
		dist.set(y-1, j, d)
		q = append(q, int32(y))
	}
	for qi := 0; qi < len(q); qi++ {
		u := int(q[qi])
		du := dist.at(u-1, j) + 1
		for _, w := range r.g.Neighbors(u) {
			if dist.at(w-1, j) > du {
				dist.set(w-1, j, du)
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
	dist := &r.s.lmDist
	far, dnear := r.y, dist.at(r.x-1, j)
	if dfar := dist.at(r.y-1, j); dfar == dnear {
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
		dw := dist.at(w-1, j)
		row := r.g.Neighbors(w)
		kept := false
		for _, p := range row {
			if dist.at(p-1, j) == dw-1 && r.raised[p] != raised {
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
			if dist.at(c-1, j) == dw+1 && r.mark[c] != marked {
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
				best = min(best, dist.at(p-1, j)+1)
			}
		}
		dist.set(int(w)-1, j, best)
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
		if fi < len(fifo) && (si == len(starts) || dist.at(int(fifo[fi])-1, j) <= starts[si][0]) {
			u = int(fifo[fi])
			fi++
		} else {
			u = int(starts[si][1])
			si++
			if dist.at(u-1, j) != starts[si-1][0] {
				continue // lowered since, and settled from the FIFO
			}
		}
		du := dist.at(u-1, j) + 1
		for _, c := range r.g.Neighbors(u) {
			if r.raised[c] == raised && dist.at(c-1, j) > du {
				dist.set(c-1, j, du)
				fifo = append(fifo, int32(c))
			}
		}
	}
	r.queue = fifo
	for _, w := range up {
		if dist.at(int(w)-1, j) == unsettled {
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
			s.lmPort.set(row, j, r.canonicalPort(int(u), j))
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
	dist := &r.s.lmDist
	d := dist.at(u-1, j) - 1
	if d < 0 {
		return 0
	}
	for i, w := range r.g.Neighbors(u) {
		if dist.at(w-1, j) == d {
			return int32(i + 1)
		}
	}
	panic("landmark: repaired column has a node with no closer neighbour")
}

// homes rescans the rows with a changed distance for the nearest landmark,
// ties to the smallest index, keeps homeCount up to date, and seeds eport at
// every node whose home moved.
func (r *repair) homes() {
	s, k := r.s, r.s.k
	for _, u := range r.rows {
		row := s.lmDist.row(int(u) - 1)
		best, bestDist := 0, u16(row, 0)
		for j := 1; j < k; j++ {
			if d := u16(row, j); d < bestDist {
				best, bestDist = j, d
			}
		}
		s.homeIdx.set(int(u)-1, 0, int32(best))
		if old := r.prev.homeDist.cell(int(u) - 1); bestDist != old {
			s.homeDist.set(int(u)-1, 0, bestDist)
			r.countHome(old, bestDist)
		}
		if int32(best) != r.prev.homeIdx.cell(int(u)-1) {
			r.seeds = append(r.seeds, [2]int32{int32(best), u})
		}
	}
	hc := s.homeCount
	for hc[len(hc)-1] == 0 {
		hc = hc[:len(hc)-1]
	}
	s.homeCount = hc
	r.touched += len(r.rows)
}

// countHome moves one node from home distance old to d in s.homeCount,
// copying prev's counts first.
func (r *repair) countHome(old, d int32) {
	if !r.ownCount {
		r.s.homeCount, r.ownCount = slices.Clone(r.s.homeCount), true
	}
	for int(d) >= len(r.s.homeCount) {
		r.s.homeCount = append(r.s.homeCount, 0)
	}
	r.s.homeCount[old]--
	r.s.homeCount[d]++
}

// eports recomputes eport on every node reached by walking down the new
// shortest-path DAG, inside its home cell, from a seed homed in the seed's
// column; nodes are taken in distance order, so each reads its closer
// neighbours' final eports.
func (r *repair) eports() {
	s, g := r.s, r.g
	marked := r.nextEpoch()
	walk := r.queue[:0]
	for _, sd := range r.seeds {
		j, u := sd[0], int(sd[1])
		if s.homeIdx.cell(u-1) != j || r.mark[u] == marked {
			continue
		}
		r.mark[u] = marked
		from := len(walk)
		walk = append(walk, int32(u))
		for qi := from; qi < len(walk); qi++ {
			w := int(walk[qi])
			dw := s.lmDist.at(w-1, int(j)) + 1
			for _, c := range g.Neighbors(w) {
				if r.mark[c] != marked && s.homeIdx.cell(c-1) == j && s.lmDist.at(c-1, int(j)) == dw {
					r.mark[c] = marked
					walk = append(walk, int32(c))
				}
			}
		}
	}
	slices.SortFunc(walk, func(a, b int32) int {
		return cmp.Or(cmp.Compare(s.homeDist.cell(int(a)-1), s.homeDist.cell(int(b)-1)), cmp.Compare(a, b))
	})
	for _, v := range walk {
		j := int(s.homeIdx.cell(int(v) - 1))
		a := int(s.landmarks[j])
		switch dv := s.homeDist.cell(int(v) - 1); dv {
		case 0:
			s.eport.set(int(v)-1, 0, 0)
		case 1:
			i, _ := slices.BinarySearch(g.Neighbors(a), int(v))
			s.eport.set(int(v)-1, 0, int32(i+1))
		default:
			best := int32(math.MaxInt32)
			for _, p := range g.Neighbors(int(v)) {
				if ep := s.eport.cell(p - 1); s.lmDist.at(p-1, j) == dv-1 && ep < best {
					best = ep
				}
			}
			s.eport.set(int(v)-1, 0, best)
		}
	}
	r.queue = walk
	r.touched += len(walk)
}

// dirtyDestinations lists, ascending, the destinations whose cluster
// entries the flip can change (the cluster rule above) and marks them in
// dirtyMark: s holds the new homes, prev the old. A destination whose home
// distance changed is among the rows the column repairs changed; any other
// one is dirty only within its limit of x or y, which a BFS from {x,y} in
// the new graph finds, to depth at most the largest home distance − 2.
func (r *repair) dirtyDestinations() []int32 {
	s, prev := r.s, r.prev
	r.dirtyEpoch = r.nextEpoch()
	list := r.dirty[:0]
	for _, v := range r.rows {
		oldLimit, limit := prev.homeDist.cell(int(v)-1)-1, s.homeDist.cell(int(v)-1)-1
		if oldLimit != limit && (oldLimit >= 2 || limit >= 2) {
			r.dirtyMark[v] = r.dirtyEpoch
			list = append(list, v)
		}
	}
	// near[v] = min(d(v,x), d(v,y)), −1 off the BFS.
	reach := max(0, int32(len(s.homeCount))-3)
	near := r.fresh.depth
	near[r.x], near[r.y] = 0, 0
	queue := append(r.queue[:0], int32(r.x), int32(r.y))
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		if limit := s.homeDist.cell(int(u)-1) - 1; limit >= 2 && near[u] < limit && limit == prev.homeDist.cell(int(u)-1)-1 {
			r.dirtyMark[u] = r.dirtyEpoch
			list = append(list, u)
		}
		if near[u] == reach {
			continue
		}
		for _, w := range r.g.Neighbors(int(u)) {
			if near[w] < 0 {
				near[w] = near[u] + 1
				queue = append(queue, int32(w))
			}
		}
	}
	for _, u := range queue {
		near[u] = -1
	}
	r.queue = queue
	slices.Sort(list)
	r.dirty = list
	return list
}

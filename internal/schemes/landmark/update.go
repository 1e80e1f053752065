// Incremental rebuilds. After a one-edge flip most of a scheme's tables keep
// their value, and Update recomputes only the parts the flip can reach. Both
// skip rules reason about the FIFO BFS runs Build makes, not about
// distances: an unchanged distance does not imply an unchanged BFS parent,
// and the parent is what a stored port names.
//
// Column rule. Landmark a's column keeps its BFS run, and so every distance,
// parent and first port, when
//
//   - d(a,x) = d(a,y): all of a level's nodes are discovered before any of
//     them is dequeued, so an edge inside one level never discovers a node,
//     whether it is present or not; or
//   - the flip removes {x,y} and it is not the BFS-tree parent edge of the
//     farther endpoint y: y's parent was dequeued before x, so when x scans
//     its row y is already discovered and the edge discovers nothing.
//     The check reads y's lmPort row, so it needs y owned.
//
// Any other column is rerun. A kept column's tree spans the new graph, so a
// disconnecting flip always reruns some column, which reports it.
//
// Cluster rule. Destination v's entries come from a BFS from v truncated at
// depth L = home(v)−1, which scans the rows of the nodes closer than L. Only
// the rows of x and y differ between the graphs, so when neither x nor y is
// closer than L to v the two runs are step for step the same. Entries are
// recomputed for v when home(v) changed or min(d(v,x), d(v,y)) < L, and the
// distances come from one BFS from {x,y} in the new graph (the condition is
// symmetric: if the new run scans neither endpoint, it equals the old run).
//
// Ports. On the sorted assignment only the rows of x and y renumber: ports
// past the flipped neighbour's slot move up by one on an addition and down
// by one on a removal. Kept lmPort entries and kept cluster entries held at
// x or y are renumbered so. eport(v) is a port at ℓ(v), and no kept column
// belongs to x or y (each rule fails at a = x or a = y), so a kept eport
// needs no renumbering.
package landmark

import (
	"fmt"
	"slices"

	"routetab/internal/graph"
)

// Update returns the scheme for g derived from prev, where prevPorts is the
// sorted port view of prev's graph and g differs from that graph by exactly
// the edge {x,y}. The result equals Build(g, ports, opt) restricted to
// prev.Owned() byte for byte, for the opt prev was built with. Both port
// views must be sorted (model IB). Callers fall back to Build on an error.
func Update(prev *Scheme, prevPorts *graph.Ports, g *graph.Graph, ports *graph.Ports, x, y int) (*Scheme, error) {
	n, k := prev.n, prev.k
	if g.N() != n {
		return nil, fmt.Errorf("landmark: update of n=%d scheme to n=%d graph", n, g.N())
	}
	if x < 1 || x > n || y < 1 || y > n || x == y {
		return nil, fmt.Errorf("landmark: update across bad edge {%d,%d}", x, y)
	}
	if !prevPorts.Sorted() || !ports.Sorted() {
		return nil, fmt.Errorf("landmark: update needs sorted ports")
	}
	if err := ports.Validate(g); err != nil {
		return nil, fmt.Errorf("landmark: %w", err)
	}
	_, had := prevPorts.PortToOK(x, y)
	added := g.HasEdge(x, y)
	if had == added {
		return nil, fmt.Errorf("landmark: edge {%d,%d} is not flipped", x, y)
	}
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
	owns := func(u int) bool { return prev.owned == nil || prev.owned.Has(u) }

	s := &Scheme{
		n:         n,
		k:         k,
		landmarks: prev.landmarks,
		homeIdx:   make([]int32, n+1),
		homeDist:  make([]int32, n+1),
		eport:     make([]int32, n+1),
		lmIdx:     prev.lmIdx,
		lmPort:    slices.Clone(prev.lmPort),
		lmDist:    slices.Clone(prev.lmDist),
		owned:     prev.owned,
	}
	xi := newPortIndex(g, ports)
	c := newColumn(n)
	// Homes stream over the columns in ascending order as in Build. A home
	// in a kept column that was already u's home keeps its eport; a home
	// that moved to a kept column gets eport −1 until that column is rerun.
	for j, a := range s.landmarks {
		if keepColumn(prev, prevPorts, x, y, j, added) {
			for _, e := range [2][2]int{{x, px}, {y, py}} {
				if owns(e[0]) {
					at := (e[0]-1)*k + j
					s.lmPort[at] = renumber(s.lmPort[at], e[1])
				}
			}
			for u := 1; u <= n; u++ {
				if d := s.lmDist[(u-1)*k+j]; j == 0 || d < s.homeDist[u] {
					s.homeIdx[u], s.homeDist[u], s.eport[u] = int32(j), d, -1
					if int32(j) == prev.homeIdx[u] {
						s.eport[u] = prev.eport[u]
					}
				}
			}
			continue
		}
		if err := c.bfs(xi, a); err != nil {
			return nil, err
		}
		for u := 1; u <= n; u++ {
			d := c.dist[u]
			at := (u-1)*k + j
			s.lmDist[at] = d
			if owns(u) {
				s.lmPort[at] = c.up[u]
			}
			if j == 0 || d < s.homeDist[u] {
				s.homeIdx[u], s.homeDist[u], s.eport[u] = int32(j), d, c.hop[u]
			}
		}
	}
	// A kept column's tree is unchanged, so rerunning it on g yields the
	// first ports its moved-in homes need.
	rerun := make([]bool, k)
	for u := 1; u <= n; u++ {
		if s.eport[u] < 0 {
			rerun[s.homeIdx[u]] = true
		}
	}
	for j, a := range s.landmarks {
		if !rerun[j] {
			continue
		}
		if err := c.bfs(xi, a); err != nil {
			return nil, err
		}
		for u := 1; u <= n; u++ {
			if s.eport[u] < 0 && s.homeIdx[u] == int32(j) {
				s.eport[u] = c.hop[u]
			}
		}
	}

	dirty := s.dirtyDestinations(prev, xi, x, y)
	fresh := newEntries(n, prev.owned)
	for v := int32(1); v <= int32(n); v++ {
		if limit := s.homeDist[v] - 1; dirty[v] && limit >= 2 {
			fresh.emit(xi, v, limit)
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
	return s, nil
}

// keepColumn reports whether landmark j's BFS run survives the flip of
// {x,y} unchanged (the column rule above).
func keepColumn(prev *Scheme, prevPorts *graph.Ports, x, y, j int, added bool) bool {
	k := prev.k
	dx, dy := prev.lmDist[(x-1)*k+j], prev.lmDist[(y-1)*k+j]
	if dx == dy {
		return true
	}
	if added {
		return false
	}
	near, far := x, y
	if dx > dy {
		near, far = y, x
	}
	if prev.owned != nil && !prev.owned.Has(far) {
		return false
	}
	parent, err := prevPorts.Neighbor(far, int(prev.lmPort[(far-1)*k+j]))
	return err == nil && parent != near
}

// dirtyDestinations marks the destinations whose cluster entries the flip
// can change (the cluster rule above): s holds the new homes, prev the old.
func (s *Scheme) dirtyDestinations(prev *Scheme, xi *portIndex, x, y int) []bool {
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
		for _, w := range xi.adj[xi.off[u]:xi.off[u+1]] {
			if near[w] < 0 {
				near[w] = near[u] + 1
				queue = append(queue, w)
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

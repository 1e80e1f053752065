//rt:hotpath — port lookups: PortToOK and Neighbor run on every routed hop
// and every served lookup, so this file holds no maps and must not allocate
// on success paths.

package graph

import (
	"fmt"
	"math/rand"
	"slices"
)

// Ports is a port assignment: for every node u with degree d(u), a bijection
// between its incident edges and port labels 1,…,d(u). This is the minimal
// local knowledge of the paper's introduction — a node can tell its ports
// apart but, in models IA/IB, does not know which neighbour sits behind
// which port.
//
// A Ports is a view over the graph's sorted neighbour rows, which it shares
// and never mutates: the graph's mutations publish fresh rows, so a view
// keeps the topology it was built from. The sorted assignment of model IB is
// the rows themselves. A model-IA assignment adds a per-node permutation,
// stored flat: for the edge slot e = off[u]+i, byPort[e] is the row index of
// the neighbour behind port i+1, and portOf[e] is the port (minus one) of
// row entry i.
type Ports struct {
	n    int
	rows [][]int // rows[u] = u's neighbours in increasing label order

	off    []int   // nil for the sorted assignment
	byPort []int32 // byPort[off[u]+p-1] = row index behind port p of u
	portOf []int32 // portOf[off[u]+i] = port of rows[u][i], minus one
}

// SortedPorts builds the canonical "free" port assignment of model IB: the
// i-th smallest neighbour of u is connected to port i. Theorem 1 uses exactly
// this mapping so that an (n−1)-bit neighbour vector determines every port.
func SortedPorts(g *Graph) *Ports {
	return &Ports{n: g.N(), rows: g.ensureLists()}
}

// permuted returns the sorted view of g with an identity overlay for the
// caller to permute and then invert: byPort[off[u]:off[u+1]] is
// 0,1,…,d(u)−1 on return.
func permuted(g *Graph) *Ports {
	p := SortedPorts(g)
	p.off = make([]int, g.N()+2)
	for u := 1; u <= g.N(); u++ {
		p.off[u+1] = p.off[u] + len(p.rows[u])
	}
	p.byPort = make([]int32, p.off[g.N()+1])
	p.portOf = make([]int32, len(p.byPort))
	for u := 1; u <= g.N(); u++ {
		for i := range p.rows[u] {
			p.byPort[p.off[u]+i] = int32(i)
		}
	}
	return p
}

// invert fills portOf from byPort.
func (p *Ports) invert() {
	for u := 1; u <= p.n; u++ {
		for i, idx := range p.byPort[p.off[u]:p.off[u+1]] {
			p.portOf[p.off[u]+int(idx)] = int32(i)
		}
	}
}

// RandomPorts builds an adversarial fixed port assignment (model IA): each
// node's neighbours are scattered over its ports by a seeded random
// permutation. Theorem 8's lower bound comes precisely from such
// permutations having entropy log₂(d!).
func RandomPorts(g *Graph, rng *rand.Rand) *Ports {
	p := permuted(g)
	for u := 1; u <= g.N(); u++ {
		perm := p.byPort[p.off[u]:p.off[u+1]]
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	}
	p.invert()
	return p
}

// PermutedPorts applies explicit per-node permutations: perms[u][i] is the
// 0-based index into the sorted neighbour list of the neighbour placed behind
// port i+1. Used by lower-bound experiments that need a specific adversary.
func PermutedPorts(g *Graph, perms [][]int) (*Ports, error) {
	p := permuted(g)
	seen := make([]bool, g.N())
	for u := 1; u <= g.N(); u++ {
		perm, d := perms[u], len(p.rows[u])
		if len(perm) != d {
			return nil, fmt.Errorf("graph: ports of %d: permutation length %d, want %d", u, len(perm), d)
		}
		for i, idx := range perm {
			if idx < 0 || idx >= d || seen[idx] {
				return nil, fmt.Errorf("%w: node %d", ErrBadPermutation, u)
			}
			seen[idx] = true
			p.byPort[p.off[u]+i] = int32(idx)
		}
		clear(seen[:d])
	}
	p.invert()
	return p, nil
}

// Sorted reports whether p is the sorted assignment of model IB: port i of u
// leads to u's i-th smallest neighbour.
func (p *Ports) Sorted() bool { return p.off == nil }

// Degree returns the number of ports at u.
func (p *Ports) Degree(u int) int {
	if u < 1 || u > p.n {
		return 0
	}
	return len(p.rows[u])
}

// Neighbor returns the neighbour behind port port of node u, or an error for
// invalid port numbers.
func (p *Ports) Neighbor(u, port int) (int, error) {
	if u < 1 || u > p.n {
		return 0, fmt.Errorf("%w: node %d", ErrNodeRange, u)
	}
	row := p.rows[u]
	if port < 1 || port > len(row) {
		return 0, fmt.Errorf("graph: node %d has no port %d (degree %d)", u, port, len(row))
	}
	if p.off == nil {
		return row[port-1], nil
	}
	return row[p.byPort[p.off[u]+port-1]], nil
}

// PortTo returns the port of u leading to neighbour v, or an error when v is
// not adjacent to u.
func (p *Ports) PortTo(u, v int) (int, error) {
	if u < 1 || u > p.n {
		return 0, fmt.Errorf("%w: node %d", ErrNodeRange, u)
	}
	port, ok := p.PortToOK(u, v)
	if !ok {
		return 0, fmt.Errorf("graph: %d is not a neighbour of %d", v, u)
	}
	return port, nil
}

// PortToOK is the allocation-free variant of PortTo for hot paths that probe
// adjacency: a miss reports (0, false) instead of constructing an error. It
// binary-searches u's sorted neighbour row.
func (p *Ports) PortToOK(u, v int) (int, bool) {
	if u < 1 || u > p.n {
		return 0, false
	}
	i, ok := slices.BinarySearch(p.rows[u], v)
	if !ok {
		return 0, false
	}
	if p.off == nil {
		return i + 1, true
	}
	return int(p.portOf[p.off[u]+i]) + 1, true
}

// NeighborsByPort returns a copy of u's port table: entry i is the neighbour
// behind port i+1.
func (p *Ports) NeighborsByPort(u int) []int {
	if u < 1 || u > p.n {
		return nil
	}
	out := make([]int, len(p.rows[u]))
	for i := range out {
		out[i], _ = p.Neighbor(u, i+1) // every port in 1…d(u) exists
	}
	return out
}

// Validate checks the assignment is consistent with g: every port leads to a
// distinct true neighbour and every neighbour is behind exactly one port.
// Duplicates are found with one bitset over the labels, reused across nodes
// and cleared word by word after each, so the check is O(n·words + m).
//
// The sorted view over the rows g publishes now is consistent by
// construction and returns nil at once. A view taken before a mutation holds
// rows g no longer publishes, so it gets the full check.
func (p *Ports) Validate(g *Graph) error {
	if p.n != g.N() {
		return fmt.Errorf("graph: port table for n=%d used with n=%d", p.n, g.N())
	}
	if l := g.lists.Load(); p.off == nil && l != nil && &(*l)[0] == &p.rows[0] {
		return nil
	}
	seen := make([]uint64, g.Words())
	for u := 1; u <= g.N(); u++ {
		d := p.Degree(u)
		if d != g.Degree(u) {
			return fmt.Errorf("graph: node %d has %d ports, degree %d", u, d, g.Degree(u))
		}
		for port := 1; port <= d; port++ {
			v, _ := p.Neighbor(u, port) // every port in 1…d exists
			if !g.HasEdge(u, v) {
				return fmt.Errorf("graph: port %d of %d leads to non-neighbour %d", port, u, v)
			}
			bit := uint64(1) << uint((v-1)%64)
			if seen[(v-1)/64]&bit != 0 {
				return fmt.Errorf("graph: neighbour %d behind two ports of %d", v, u)
			}
			seen[(v-1)/64] |= bit
		}
		for _, v := range p.rows[u] {
			seen[(v-1)/64] = 0
		}
	}
	return nil
}

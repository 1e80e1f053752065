package graph

import (
	"fmt"
	"math/rand"
)

// Ports is a port assignment: for every node u with degree d(u), a bijection
// between its incident edges and port labels 1,…,d(u). This is the minimal
// local knowledge of the paper's introduction — a node can tell its ports
// apart but, in models IA/IB, does not know which neighbour sits behind
// which port.
type Ports struct {
	n          int
	toNeighbor [][]int // toNeighbor[u][p-1] = neighbour behind port p of u
	portOf     []map[int]int
}

// SortedPorts builds the canonical "free" port assignment of model IB: the
// i-th smallest neighbour of u is connected to port i. Theorem 1 uses exactly
// this mapping so that an (n−1)-bit neighbour vector determines every port.
func SortedPorts(g *Graph) *Ports {
	p := &Ports{
		n:          g.N(),
		toNeighbor: make([][]int, g.N()+1),
		portOf:     make([]map[int]int, g.N()+1),
	}
	for u := 1; u <= g.N(); u++ {
		nb := g.Neighbors(u)
		row := make([]int, len(nb))
		copy(row, nb)
		p.toNeighbor[u] = row
		m := make(map[int]int, len(row))
		for i, v := range row {
			m[v] = i + 1
		}
		p.portOf[u] = m
	}
	return p
}

// RandomPorts builds an adversarial fixed port assignment (model IA): each
// node's neighbours are scattered over its ports by a seeded random
// permutation. Theorem 8's lower bound comes precisely from such
// permutations having entropy log₂(d!).
func RandomPorts(g *Graph, rng *rand.Rand) *Ports {
	p := SortedPorts(g)
	for u := 1; u <= g.N(); u++ {
		row := p.toNeighbor[u]
		rng.Shuffle(len(row), func(i, j int) { row[i], row[j] = row[j], row[i] })
		m := make(map[int]int, len(row))
		for i, v := range row {
			m[v] = i + 1
		}
		p.portOf[u] = m
	}
	return p
}

// PermutedPorts applies explicit per-node permutations: perms[u][i] is the
// 0-based index into the sorted neighbour list of the neighbour placed behind
// port i+1. Used by lower-bound experiments that need a specific adversary.
func PermutedPorts(g *Graph, perms [][]int) (*Ports, error) {
	p := SortedPorts(g)
	for u := 1; u <= g.N(); u++ {
		perm := perms[u]
		sorted := g.Neighbors(u)
		if len(perm) != len(sorted) {
			return nil, fmt.Errorf("graph: ports of %d: permutation length %d, want %d", u, len(perm), len(sorted))
		}
		row := make([]int, len(sorted))
		seen := make([]bool, len(sorted))
		for i, idx := range perm {
			if idx < 0 || idx >= len(sorted) || seen[idx] {
				return nil, fmt.Errorf("%w: node %d", ErrBadPermutation, u)
			}
			seen[idx] = true
			row[i] = sorted[idx]
		}
		p.toNeighbor[u] = row
		m := make(map[int]int, len(row))
		for i, v := range row {
			m[v] = i + 1
		}
		p.portOf[u] = m
	}
	return p, nil
}

// Degree returns the number of ports at u.
func (p *Ports) Degree(u int) int {
	if u < 1 || u > p.n {
		return 0
	}
	return len(p.toNeighbor[u])
}

// Neighbor returns the neighbour behind port port of node u, or an error for
// invalid port numbers.
func (p *Ports) Neighbor(u, port int) (int, error) {
	if u < 1 || u > p.n {
		return 0, fmt.Errorf("%w: node %d", ErrNodeRange, u)
	}
	if port < 1 || port > len(p.toNeighbor[u]) {
		return 0, fmt.Errorf("graph: node %d has no port %d (degree %d)", u, port, len(p.toNeighbor[u]))
	}
	return p.toNeighbor[u][port-1], nil
}

// PortTo returns the port of u leading to neighbour v, or an error when v is
// not adjacent to u.
func (p *Ports) PortTo(u, v int) (int, error) {
	if u < 1 || u > p.n {
		return 0, fmt.Errorf("%w: node %d", ErrNodeRange, u)
	}
	port, ok := p.portOf[u][v]
	if !ok {
		return 0, fmt.Errorf("graph: %d is not a neighbour of %d", v, u)
	}
	return port, nil
}

// PortToOK is the allocation-free variant of PortTo for hot paths that probe
// adjacency: a miss reports (0, false) instead of constructing an error.
func (p *Ports) PortToOK(u, v int) (int, bool) {
	if u < 1 || u > p.n {
		return 0, false
	}
	port, ok := p.portOf[u][v]
	return port, ok
}

// NeighborsByPort returns a copy of u's port table: entry i is the neighbour
// behind port i+1.
func (p *Ports) NeighborsByPort(u int) []int {
	if u < 1 || u > p.n {
		return nil
	}
	out := make([]int, len(p.toNeighbor[u]))
	copy(out, p.toNeighbor[u])
	return out
}

// Validate checks the assignment is consistent with g: every port leads to a
// distinct true neighbour and every neighbour is behind exactly one port.
// Duplicates are found with one bitset over the labels, reused across nodes
// and cleared word by word after each, so the check is O(n·words + m).
func (p *Ports) Validate(g *Graph) error {
	if p.n != g.N() {
		return fmt.Errorf("graph: port table for n=%d used with n=%d", p.n, g.N())
	}
	seen := make([]uint64, g.Words())
	for u := 1; u <= g.N(); u++ {
		row := p.toNeighbor[u]
		if len(row) != g.Degree(u) {
			return fmt.Errorf("graph: node %d has %d ports, degree %d", u, len(row), g.Degree(u))
		}
		for i, v := range row {
			if !g.HasEdge(u, v) {
				return fmt.Errorf("graph: port %d of %d leads to non-neighbour %d", i+1, u, v)
			}
			bit := uint64(1) << uint((v-1)%64)
			if seen[(v-1)/64]&bit != 0 {
				return fmt.Errorf("graph: neighbour %d behind two ports of %d", v, u)
			}
			seen[(v-1)/64] |= bit
		}
		for _, v := range row {
			seen[(v-1)/64] = 0
		}
	}
	return nil
}

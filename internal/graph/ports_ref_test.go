package graph_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"routetab/internal/gengraph"
	"routetab/internal/graph"
)

// refPorts is the map-based port assignment that graph.Ports replaced, kept
// as the differential oracle: each node's port row is copied, and a map per
// node takes a neighbour back to its port.
type refPorts struct {
	n          int
	toNeighbor [][]int
	portOf     []map[int]int
}

func refSorted(g *graph.Graph) *refPorts {
	p := &refPorts{n: g.N(), toNeighbor: make([][]int, g.N()+1), portOf: make([]map[int]int, g.N()+1)}
	for u := 1; u <= g.N(); u++ {
		p.toNeighbor[u] = slices.Clone(g.Neighbors(u))
		p.index(u)
	}
	return p
}

func (p *refPorts) index(u int) {
	p.portOf[u] = make(map[int]int, len(p.toNeighbor[u]))
	for i, v := range p.toNeighbor[u] {
		p.portOf[u][v] = i + 1
	}
}

func refRandom(g *graph.Graph, rng *rand.Rand) *refPorts {
	p := refSorted(g)
	for u := 1; u <= g.N(); u++ {
		row := p.toNeighbor[u]
		rng.Shuffle(len(row), func(i, j int) { row[i], row[j] = row[j], row[i] })
		p.index(u)
	}
	return p
}

func refPermuted(g *graph.Graph, perms [][]int) (*refPorts, error) {
	p := refSorted(g)
	for u := 1; u <= g.N(); u++ {
		perm, sorted := perms[u], g.Neighbors(u)
		if len(perm) != len(sorted) {
			return nil, fmt.Errorf("graph: ports of %d: permutation length %d, want %d", u, len(perm), len(sorted))
		}
		seen := make([]bool, len(sorted))
		for i, idx := range perm {
			if idx < 0 || idx >= len(sorted) || seen[idx] {
				return nil, fmt.Errorf("%w: node %d", graph.ErrBadPermutation, u)
			}
			seen[idx] = true
			p.toNeighbor[u][i] = sorted[idx]
		}
		p.index(u)
	}
	return p, nil
}

func (p *refPorts) Degree(u int) int {
	if u < 1 || u > p.n {
		return 0
	}
	return len(p.toNeighbor[u])
}

func (p *refPorts) Neighbor(u, port int) (int, error) {
	if u < 1 || u > p.n {
		return 0, fmt.Errorf("%w: node %d", graph.ErrNodeRange, u)
	}
	if port < 1 || port > len(p.toNeighbor[u]) {
		return 0, fmt.Errorf("graph: node %d has no port %d (degree %d)", u, port, len(p.toNeighbor[u]))
	}
	return p.toNeighbor[u][port-1], nil
}

func (p *refPorts) PortTo(u, v int) (int, error) {
	if u < 1 || u > p.n {
		return 0, fmt.Errorf("%w: node %d", graph.ErrNodeRange, u)
	}
	port, ok := p.portOf[u][v]
	if !ok {
		return 0, fmt.Errorf("graph: %d is not a neighbour of %d", v, u)
	}
	return port, nil
}

func (p *refPorts) PortToOK(u, v int) (int, bool) {
	if u < 1 || u > p.n {
		return 0, false
	}
	port, ok := p.portOf[u][v]
	return port, ok
}

func (p *refPorts) NeighborsByPort(u int) []int {
	if u < 1 || u > p.n {
		return nil
	}
	return slices.Clone(p.toNeighbor[u])
}

func (p *refPorts) Validate(g *graph.Graph) error {
	if p.n != g.N() {
		return fmt.Errorf("graph: port table for n=%d used with n=%d", p.n, g.N())
	}
	for u := 1; u <= g.N(); u++ {
		row := p.toNeighbor[u]
		if len(row) != g.Degree(u) {
			return fmt.Errorf("graph: node %d has %d ports, degree %d", u, len(row), g.Degree(u))
		}
		seen := map[int]bool{}
		for i, v := range row {
			if !g.HasEdge(u, v) {
				return fmt.Errorf("graph: port %d of %d leads to non-neighbour %d", i+1, u, v)
			}
			if seen[v] {
				return fmt.Errorf("graph: neighbour %d behind two ports of %d", v, u)
			}
			seen[v] = true
		}
	}
	return nil
}

// errText renders an error for comparison; nil renders empty.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// compareToReference checks every query of got against want on g, including
// out-of-range nodes, ports past the degree and non-neighbours.
func compareToReference(t *testing.T, g *graph.Graph, got *graph.Ports, want *refPorts) {
	t.Helper()
	n := g.N()
	for u := -1; u <= n+1; u++ {
		if a, b := got.Degree(u), want.Degree(u); a != b {
			t.Fatalf("Degree(%d) = %d, want %d", u, a, b)
		}
		if a, b := got.NeighborsByPort(u), want.NeighborsByPort(u); !slices.Equal(a, b) || (a == nil) != (b == nil) {
			t.Fatalf("NeighborsByPort(%d) = %v, want %v", u, a, b)
		}
		for port := -1; port <= want.Degree(u)+1; port++ {
			a, aerr := got.Neighbor(u, port)
			b, berr := want.Neighbor(u, port)
			if a != b || errText(aerr) != errText(berr) {
				t.Fatalf("Neighbor(%d,%d) = %d, %v; want %d, %v", u, port, a, aerr, b, berr)
			}
		}
		for v := -1; v <= n+1; v++ {
			a, aerr := got.PortTo(u, v)
			b, berr := want.PortTo(u, v)
			if a != b || errText(aerr) != errText(berr) {
				t.Fatalf("PortTo(%d,%d) = %d, %v; want %d, %v", u, v, a, aerr, b, berr)
			}
			a, aok := got.PortToOK(u, v)
			b, bok := want.PortToOK(u, v)
			if a != b || aok != bok {
				t.Fatalf("PortToOK(%d,%d) = %d, %v; want %d, %v", u, v, a, aok, b, bok)
			}
		}
	}
	if a, b := got.Validate(g), want.Validate(g); errText(a) != errText(b) {
		t.Fatalf("Validate = %v, want %v", a, b)
	}
}

// portFamily builds one graph of the differential test's families from a
// seed; a family that has no graph on n nodes returns an error.
func portFamily(family, n int, rng *rand.Rand) (*graph.Graph, error) {
	switch family % 7 {
	case 0:
		return gengraph.Chain(n)
	case 1:
		return gengraph.Star(n)
	case 2:
		return gengraph.Grid(1+n/4, 4)
	case 3:
		return gengraph.RandomTree(n, rng)
	case 4:
		return gengraph.GnHalf(n, rng)
	case 5:
		return gengraph.SparseConnected(n, 3, rng)
	default:
		// Sparse G(n,p): some nodes have degree 0.
		return gengraph.Gnp(n, 1/float64(n), rng)
	}
}

// checkPortsMatchReference builds all three assignments both ways from one
// seed and compares them, then mutates the graph and compares Validate's
// verdicts on the stale assignments.
func checkPortsMatchReference(t *testing.T, family, n int, seed int64) {
	g, err := portFamily(family, n, rand.New(rand.NewSource(seed)))
	if err != nil {
		return // the family rejects this n
	}
	compareToReference(t, g, graph.SortedPorts(g), refSorted(g))
	rp := graph.RandomPorts(g, rand.New(rand.NewSource(seed+1)))
	compareToReference(t, g, rp, refRandom(g, rand.New(rand.NewSource(seed+1))))

	rng := rand.New(rand.NewSource(seed + 2))
	perms := make([][]int, g.N()+1)
	for u := 1; u <= g.N(); u++ {
		perms[u] = rng.Perm(g.Degree(u))
	}
	pp, err := graph.PermutedPorts(g, perms)
	if err != nil {
		t.Fatalf("PermutedPorts: %v", err)
	}
	want, err := refPermuted(g, perms)
	if err != nil {
		t.Fatalf("reference PermutedPorts: %v", err)
	}
	compareToReference(t, g, pp, want)

	// A corrupted permutation is rejected with the reference's error.
	for u := 1; u <= g.N(); u++ {
		if len(perms[u]) >= 2 {
			perms[u][1] = perms[u][0]
			_, aerr := graph.PermutedPorts(g, perms)
			_, berr := refPermuted(g, perms)
			if aerr == nil || errText(aerr) != errText(berr) {
				t.Fatalf("corrupted PermutedPorts: err %v, want %v", aerr, berr)
			}
			break
		}
	}

	// Flip one pair: every assignment is now stale, and both sides must say
	// why in the same words.
	if g.N() >= 2 {
		u, v := 1+rng.Intn(g.N()), 1+rng.Intn(g.N())
		if u != v {
			stale := []*graph.Ports{graph.SortedPorts(g), rp, pp}
			ref := []*refPorts{refSorted(g), refRandom(g, rand.New(rand.NewSource(seed+1))), want}
			var err error
			if g.HasEdge(u, v) {
				err = g.RemoveEdge(u, v)
			} else {
				err = g.AddEdge(u, v)
			}
			if err != nil {
				t.Fatal(err)
			}
			for i := range stale {
				if a, b := stale[i].Validate(g), ref[i].Validate(g); a == nil || errText(a) != errText(b) {
					t.Fatalf("stale assignment %d: Validate = %v, want %v", i, a, b)
				}
			}
		}
	}
}

func TestPortsMatchReference(t *testing.T) {
	for family := 0; family < 7; family++ {
		for _, n := range []int{1, 2, 3, 5, 16, 33, 70} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("family%d/n%d/seed%d", family, n, seed), func(t *testing.T) {
					checkPortsMatchReference(t, family, n, seed)
				})
			}
		}
	}
}

// TestPortsEdgeless covers a graph with no edges at all: every node has
// degree 0 and every query misses.
func TestPortsEdgeless(t *testing.T) {
	for _, n := range []int{0, 1, 4} {
		g := graph.MustNew(n)
		compareToReference(t, g, graph.SortedPorts(g), refSorted(g))
		compareToReference(t, g, graph.RandomPorts(g, rand.New(rand.NewSource(1))), refSorted(g))
	}
}

func FuzzPortsMatchReference(f *testing.F) {
	for family := 0; family < 7; family++ {
		f.Add(uint8(family), uint8(12), int64(family))
	}
	f.Fuzz(func(t *testing.T, family, n uint8, seed int64) {
		if n == 0 || n > 80 {
			return
		}
		checkPortsMatchReference(t, int(family), int(n), seed)
	})
}

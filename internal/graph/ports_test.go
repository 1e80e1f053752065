package graph

import (
	"math/rand"
	"testing"
)

func ring(t *testing.T, n int) *Graph {
	t.Helper()
	g := MustNew(n)
	for u := 1; u <= n; u++ {
		v := u%n + 1
		if err := g.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestSortedPorts(t *testing.T) {
	g := ring(t, 5)
	p := SortedPorts(g)
	if err := p.Validate(g); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Node 3's neighbours are {2,4}; sorted assignment puts 2 on port 1.
	v, err := p.Neighbor(3, 1)
	if err != nil || v != 2 {
		t.Fatalf("Neighbor(3,1) = %d, %v; want 2", v, err)
	}
	v, err = p.Neighbor(3, 2)
	if err != nil || v != 4 {
		t.Fatalf("Neighbor(3,2) = %d, %v; want 4", v, err)
	}
	port, err := p.PortTo(3, 4)
	if err != nil || port != 2 {
		t.Fatalf("PortTo(3,4) = %d, %v; want 2", port, err)
	}
}

func TestPortErrors(t *testing.T) {
	g := ring(t, 4)
	p := SortedPorts(g)
	if _, err := p.Neighbor(1, 3); err == nil {
		t.Error("Neighbor(1,3) on degree-2 node: want error")
	}
	if _, err := p.Neighbor(0, 1); err == nil {
		t.Error("Neighbor(0,1): want error")
	}
	if _, err := p.PortTo(1, 3); err == nil {
		t.Error("PortTo(1,3) non-neighbour: want error")
	}
	if _, err := p.PortTo(9, 1); err == nil {
		t.Error("PortTo(9,1): want error")
	}
	if p.Degree(0) != 0 || p.Degree(99) != 0 {
		t.Error("Degree of invalid node should be 0")
	}
}

func TestRandomPortsIsPermutation(t *testing.T) {
	g := MustNew(30)
	rng := rand.New(rand.NewSource(3))
	for u := 1; u <= 30; u++ {
		for v := u + 1; v <= 30; v++ {
			if rng.Intn(2) == 0 {
				if err := g.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	p := RandomPorts(g, rand.New(rand.NewSource(4)))
	if err := p.Validate(g); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// PortTo and Neighbor must be inverse.
	for u := 1; u <= 30; u++ {
		for _, v := range g.Neighbors(u) {
			port, err := p.PortTo(u, v)
			if err != nil {
				t.Fatal(err)
			}
			back, err := p.Neighbor(u, port)
			if err != nil || back != v {
				t.Fatalf("Neighbor(%d,%d) = %d, %v; want %d", u, port, back, err, v)
			}
		}
	}
}

func TestRandomPortsDeterministic(t *testing.T) {
	g := ring(t, 20)
	p1 := RandomPorts(g, rand.New(rand.NewSource(99)))
	p2 := RandomPorts(g, rand.New(rand.NewSource(99)))
	for u := 1; u <= 20; u++ {
		for port := 1; port <= p1.Degree(u); port++ {
			v1, _ := p1.Neighbor(u, port)
			v2, _ := p2.Neighbor(u, port)
			if v1 != v2 {
				t.Fatalf("same seed, different assignment at node %d port %d", u, port)
			}
		}
	}
}

func TestPermutedPorts(t *testing.T) {
	g := ring(t, 4) // every node has neighbours {u−1,u+1} mod ring
	perms := make([][]int, 5)
	for u := 1; u <= 4; u++ {
		perms[u] = []int{1, 0} // swap the two neighbours
	}
	p, err := PermutedPorts(g, perms)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	// Node 2's sorted neighbours are {1,3}; swapped puts 3 on port 1.
	v, err := p.Neighbor(2, 1)
	if err != nil || v != 3 {
		t.Fatalf("Neighbor(2,1) = %d, %v; want 3", v, err)
	}
}

func TestPermutedPortsValidation(t *testing.T) {
	g := ring(t, 3)
	bad := [][]int{nil, {0, 0}, {0, 1}, {0, 1}}
	if _, err := PermutedPorts(g, bad); err == nil {
		t.Fatal("duplicate index permutation accepted")
	}
	short := [][]int{nil, {0}, {0, 1}, {0, 1}}
	if _, err := PermutedPorts(g, short); err == nil {
		t.Fatal("short permutation accepted")
	}
}

func TestNeighborsByPortCopy(t *testing.T) {
	g := ring(t, 4)
	p := SortedPorts(g)
	row := p.NeighborsByPort(1)
	if len(row) != 2 {
		t.Fatalf("NeighborsByPort(1) = %v", row)
	}
	row[0] = 999
	v, err := p.Neighbor(1, 1)
	if err != nil || v == 999 {
		t.Fatal("NeighborsByPort exposes internal state")
	}
	if p.NeighborsByPort(0) != nil {
		t.Fatal("NeighborsByPort(0) should be nil")
	}
}

func TestValidateDetectsMismatch(t *testing.T) {
	g := ring(t, 4)
	p := SortedPorts(g)
	h := ring(t, 5)
	if err := p.Validate(h); err == nil {
		t.Fatal("Validate accepted wrong-size graph")
	}
	// Mutate g after building ports: degree mismatch must be caught.
	if err := g.AddEdge(1, 3); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g); err == nil {
		t.Fatal("Validate accepted stale port table")
	}
}

// TestValidateErrorBranches pins each rejection Validate can report, with
// its message: a port count that disagrees with the degree, a port leading
// to a non-neighbour, and one neighbour behind two ports.
func TestValidateErrorBranches(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(t *testing.T, g *Graph, p *Ports)
		want   string
	}{
		{"port count", func(t *testing.T, g *Graph, _ *Ports) {
			if err := g.AddEdge(1, 3); err != nil {
				t.Fatal(err)
			}
		}, "graph: node 1 has 2 ports, degree 3"},
		{"non-neighbour", func(t *testing.T, g *Graph, _ *Ports) {
			if err := g.RemoveEdge(1, 2); err != nil {
				t.Fatal(err)
			}
			if err := g.AddEdge(1, 3); err != nil {
				t.Fatal(err)
			}
		}, "graph: port 1 of 1 leads to non-neighbour 2"},
		{"two ports", func(_ *testing.T, g *Graph, p *Ports) {
			*p = *permuted(g)
			p.byPort[p.off[3]+1] = 0 // port 2 of node 3 now also leads to neighbour 2
		}, "graph: neighbour 2 behind two ports of 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := ring(t, 4)
			p := SortedPorts(g)
			if err := p.Validate(g); err != nil {
				t.Fatalf("fresh ports rejected: %v", err)
			}
			tc.mutate(t, g, p)
			err := p.Validate(g)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("Validate = %v, want %q", err, tc.want)
			}
		})
	}
}

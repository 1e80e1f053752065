package graph

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// flipRandom adds or removes one seeded random pair of g.
func flipRandom(t *testing.T, g *Graph, rng *rand.Rand) {
	t.Helper()
	x, y := 1+rng.Intn(g.N()), 1+rng.Intn(g.N())
	for x == y {
		y = 1 + rng.Intn(g.N())
	}
	var err error
	if g.HasEdge(x, y) {
		err = g.RemoveEdge(x, y)
	} else {
		err = g.AddEdge(x, y)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// adjWords concatenates g's AdjRows: a copy of its bitset that shares no
// page with it.
func adjWords(g *Graph) []uint64 {
	out := make([]uint64, 0, g.N()*g.Words())
	for u := 1; u <= g.N(); u++ {
		out = append(out, g.AdjRow(u)...)
	}
	return out
}

// requireFreshRows checks every neighbour row of g against a derivation
// from scratch of a graph with the same bitsets.
func requireFreshRows(t *testing.T, g *Graph, step string) {
	t.Helper()
	ref, err := FromAdjWords(g.N(), adjWords(g))
	if err != nil {
		t.Fatal(err)
	}
	for u := 1; u <= g.N(); u++ {
		if !slices.Equal(g.Neighbors(u), ref.Neighbors(u)) {
			t.Fatalf("%s: row %d = %v, fresh derivation %v", step, u, g.Neighbors(u), ref.Neighbors(u))
		}
	}
}

// TestCloneRowsMatchFreshDerivation chains clones over seeded flips, reading
// the rows at varying points (after every flip, every few flips, or only
// through a clone of a clone), and compares every published row with a
// fresh derivation. Bursts of flips past the dirty-row bound take the full
// derivation.
func TestCloneRowsMatchFreshDerivation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     int
		p     float64
		every int // read the rows after every this many flips
		burst int // flips per clone
	}{
		{"dense-each", 130, 0.5, 1, 1},
		{"dense-every3", 130, 0.5, 3, 1},
		{"sparse-bursts", 300, 0.02, 1, 5},
		{"small-past-bound", 12, 0.3, 1, 4},
		{"unread-chain", 70, 0.1, 5, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.n)))
			g := randomGraph(tc.n, tc.p, rng)
			g.Neighbors(1)
			for i := 1; i <= 40; i++ {
				g = g.Clone()
				for k := 0; k < tc.burst; k++ {
					flipRandom(t, g, rng)
				}
				if i%tc.every == 0 {
					requireFreshRows(t, g, "clone")
				}
			}
			// Mutating a graph in place after it published its rows re-derives
			// only the touched rows too.
			for i := 0; i < 5; i++ {
				flipRandom(t, g, rng)
				requireFreshRows(t, g, "in place")
			}
		})
	}
}

// TestCloneLeavesParentRows: while a child clone mutates and republishes
// its rows, concurrent readers of the parent's Neighbors and of a
// SortedPorts view taken from it keep seeing the parent's topology. Run
// under -race this also checks that no row or outer slice the parent
// published is written.
func TestCloneLeavesParentRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	parent := randomGraph(150, 0.3, rng)
	ports := SortedPorts(parent)
	want := make([][]int, parent.N()+1)
	for u := 1; u <= parent.N(); u++ {
		want[u] = slices.Clone(parent.Neighbors(u))
	}
	check := func(errorf func(string, ...any)) {
		for u := 1; u <= parent.N(); u++ {
			if !slices.Equal(parent.Neighbors(u), want[u]) {
				errorf("parent row %d changed", u)
				return
			}
			if ports.Degree(u) != len(want[u]) {
				errorf("port view of %d: degree %d, want %d", u, ports.Degree(u), len(want[u]))
				return
			}
			for i, v := range want[u] {
				if w, err := ports.Neighbor(u, i+1); err != nil || w != v {
					errorf("port %d of %d leads to %d (%v), want %d", i+1, u, w, err, v)
					return
				}
			}
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					check(t.Errorf)
				}
			}
		}()
	}
	child := parent.Clone()
	for i := 0; i < 30; i++ {
		flipRandom(t, child, rng)
		SortedPorts(child)
		if i%10 == 9 {
			child = child.Clone()
		}
	}
	close(stop)
	wg.Wait()
	check(t.Fatalf)
	requireFreshRows(t, child, "child")
}

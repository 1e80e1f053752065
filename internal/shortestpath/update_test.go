package shortestpath

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"routetab/internal/gengraph"
	"routetab/internal/graph"
)

// updateFamilies are the graph families the update tests churn: the
// paper's dense regime, sparse random graphs, the high-diameter and tree
// families, the Figure-1 graph G_B, and a 300-node chain whose distances
// saturate at MaxDistance.
var updateFamilies = []struct {
	name  string
	flips int
	mk    func(rng *rand.Rand) (*graph.Graph, error)
}{
	{"gnhalf40", 30, func(rng *rand.Rand) (*graph.Graph, error) { return gengraph.GnHalf(40, rng) }},
	{"gnhalf130", 20, func(rng *rand.Rand) (*graph.Graph, error) { return gengraph.GnHalf(130, rng) }},
	{"sparse300", 30, func(rng *rand.Rand) (*graph.Graph, error) { return gengraph.SparseConnected(300, 8, rng) }},
	{"sparse400deg2.5", 30, func(rng *rand.Rand) (*graph.Graph, error) { return gengraph.SparseConnected(400, 2.5, rng) }},
	{"chain50", 30, func(*rand.Rand) (*graph.Graph, error) { return gengraph.Chain(50) }},
	{"chain300", 30, func(*rand.Rand) (*graph.Graph, error) { return gengraph.Chain(300) }},
	{"cycle50", 30, func(*rand.Rand) (*graph.Graph, error) { return gengraph.Cycle(50) }},
	{"star40", 30, func(*rand.Rand) (*graph.Graph, error) { return gengraph.Star(40) }},
	{"grid7x9", 30, func(*rand.Rand) (*graph.Graph, error) { return gengraph.Grid(7, 9) }},
	{"tree60", 30, func(rng *rand.Rand) (*graph.Graph, error) { return gengraph.RandomTree(60, rng) }},
	{"gb12", 30, func(rng *rand.Rand) (*graph.Graph, error) {
		gb, err := gengraph.RandomGB(12, rng)
		if err != nil {
			return nil, err
		}
		return gb.G, nil
	}},
}

// flipEdge picks, with equal odds, a present edge to remove or an absent
// pair to add, and returns a clone of g with it flipped.
func flipEdge(t testing.TB, g *graph.Graph, rng *rand.Rand) (next *graph.Graph, x, y int) {
	t.Helper()
	n := g.N()
	if g.M() > 0 && rng.Intn(2) == 0 {
		e := g.Edges()[rng.Intn(g.M())]
		x, y = e[0], e[1]
	} else {
		for x == y || (g.HasEdge(x, y) && g.M() < n*(n-1)/2) {
			x, y = 1+rng.Intn(n), 1+rng.Intn(n)
		}
	}
	next = g.Clone()
	var err error
	if next.HasEdge(x, y) {
		err = next.RemoveEdge(x, y)
	} else {
		err = next.AddEdge(x, y)
	}
	if err != nil {
		t.Fatal(err)
	}
	return next, x, y
}

// TestUpdateAllPairsMatchesAllPairs chains Update over seeded churn on
// every family and checks, after every flip, the packed matrix against
// AllPairs and the changed list against the rows that really changed.
// Disconnecting flips are kept, so later flips also run on disconnected
// graphs.
func TestUpdateAllPairsMatchesAllPairs(t *testing.T) {
	for fi, fam := range updateFamilies {
		t.Run(fam.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(fi + 1)))
			g, err := fam.mk(rng)
			if err != nil {
				t.Fatal(err)
			}
			prev, err := AllPairs(g)
			if err != nil {
				t.Fatal(err)
			}
			n := g.N()
			for i := 0; i < fam.flips; i++ {
				next, x, y := flipEdge(t, g, rng)
				got, changed, err := Update(prev, next, x, y)
				if err != nil {
					t.Fatalf("flip %d {%d,%d}: %v", i, x, y, err)
				}
				want, err := AllPairs(next)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Packed(), want.Packed()) {
					t.Fatalf("flip %d {%d,%d}: updated matrix differs from AllPairs", i, x, y)
				}
				var wantChanged []int
				for u := 1; u <= n; u++ {
					if !bytes.Equal(prev.Packed()[(u-1)*n:u*n], want.Packed()[(u-1)*n:u*n]) {
						wantChanged = append(wantChanged, u)
					}
				}
				if !slices.Equal(changed, wantChanged) {
					t.Fatalf("flip %d {%d,%d}: changed rows %v, want %v", i, x, y, changed, wantChanged)
				}
				prev, g = got, next
			}
		})
	}
}

// TestUpdateLeavesPrevUntouched: Update reads the previous matrix and never
// writes it, so a snapshot still serving it keeps its distances.
func TestUpdateLeavesPrevUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g, err := gengraph.SparseConnected(200, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := AllPairs(g)
	if err != nil {
		t.Fatal(err)
	}
	before := slices.Clone(prev.Packed())
	for i := 0; i < 10; i++ {
		next, x, y := flipEdge(t, g, rng)
		if _, _, err := Update(prev, next, x, y); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(prev.Packed(), before) {
			t.Fatalf("flip {%d,%d} wrote the previous matrix", x, y)
		}
	}
}

func TestUpdateRejectsBadInput(t *testing.T) {
	g, err := gengraph.Chain(5)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := AllPairs(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]int{{0, 1}, {1, 6}, {3, 3}} {
		if _, _, err := Update(dm, g, e[0], e[1]); err == nil {
			t.Errorf("edge %v accepted", e)
		}
	}
	if _, _, err := Update(dm, graph.MustNew(6), 1, 2); err == nil {
		t.Error("matrix of another size accepted")
	}
}

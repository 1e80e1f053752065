package interval

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"routetab/internal/gengraph"
	"routetab/internal/graph"
	"routetab/internal/models"
	"routetab/internal/routing"
	"routetab/internal/shortestpath"
)

func fixture(t *testing.T, g *graph.Graph, root int) (*Scheme, *routing.Sim, *shortestpath.Distances) {
	t.Helper()
	ports := graph.SortedPorts(g)
	s, err := Build(g, ports, root)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := routing.NewSim(g, ports, s)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := shortestpath.AllPairs(g)
	if err != nil {
		t.Fatal(err)
	}
	return s, sim, dm
}

func TestOptimalOnTrees(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g, err := gengraph.RandomTree(40, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		_, sim, dm := fixture(t, g, 1)
		rep, err := routing.VerifyAll(sim, dm, 100)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.AllDelivered() {
			t.Fatalf("seed %d: undelivered: %s %v", seed, rep, rep.Failures)
		}
		if rep.MaxStretch != 1 {
			t.Fatalf("seed %d: stretch = %v on a tree, want 1", seed, rep.MaxStretch)
		}
	}
}

func TestOptimalOnChainAnyRoot(t *testing.T) {
	g, err := gengraph.Chain(15)
	if err != nil {
		t.Fatal(err)
	}
	for _, root := range []int{1, 7, 15} {
		_, sim, dm := fixture(t, g, root)
		rep, err := routing.VerifyAll(sim, dm, 100)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.AllDelivered() || rep.MaxStretch != 1 {
			t.Fatalf("root %d: %s %v", root, rep, rep.Failures)
		}
	}
}

func TestDeliversOnGeneralGraphsWithStretch(t *testing.T) {
	g, err := gengraph.GnHalf(50, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	_, sim, dm := fixture(t, g, 1)
	rep, err := routing.VerifyAll(sim, dm, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AllDelivered() {
		t.Fatalf("undelivered: %s %v", rep, rep.Failures)
	}
	// Tree routing on a diameter-2 graph has real stretch; it must still be
	// bounded by the tree depth ≤ 2·BFS-depth.
	if rep.MaxStretch < 1 {
		t.Fatalf("stretch = %v < 1?", rep.MaxStretch)
	}
	if rep.MaxHops > 2*3 { // BFS tree of a diameter-2 graph has depth ≤ 2
		t.Logf("maxHops = %d (tree detours)", rep.MaxHops)
	}
}

func TestDFSNumbersAreAPermutation(t *testing.T) {
	g, err := gengraph.GnHalf(30, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	s, _, _ := fixture(t, g, 1)
	seen := make([]bool, 31)
	for u := 1; u <= 30; u++ {
		d, err := s.DFSNumber(u)
		if err != nil {
			t.Fatal(err)
		}
		if d < 1 || d > 30 || seen[d] {
			t.Fatalf("DFS numbers not a permutation: dfs[%d]=%d", u, d)
		}
		seen[d] = true
		if s.Label(u).ID != d {
			t.Fatalf("Label(%d).ID = %d, want dfs %d", u, s.Label(u).ID, d)
		}
	}
	if _, err := s.DFSNumber(0); err == nil {
		t.Error("DFSNumber(0) accepted")
	}
}

// TestSimResolvesDFSLabels routes by raw label ID: the simulator's dense
// label table must take each DFS number back to its node, not to the node
// whose original label happens to equal it.
func TestSimResolvesDFSLabels(t *testing.T) {
	g, err := gengraph.GnHalf(30, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	s, sim, _ := fixture(t, g, 7)
	moved := 0
	for dst := 1; dst <= 30; dst++ {
		id := s.Label(dst).ID
		if id != dst {
			moved++
		}
		tr, err := sim.Route(1, id, routing.DefaultHopLimit(30))
		if err != nil || tr.Dest != dst || tr.Path[len(tr.Path)-1] != dst {
			t.Fatalf("Route(1, ID %d) = %+v, %v; want node %d", id, tr, err, dst)
		}
	}
	if moved == 0 {
		t.Fatal("DFS numbering is the identity; the test needs a relabelling")
	}
}

func TestSpaceIsNLogN(t *testing.T) {
	n := 128
	g, err := gengraph.GnHalf(n, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	s, _, _ := fixture(t, g, 1)
	sp, err := routing.MeasureSpace(s, models.IABeta)
	if err != nil {
		t.Fatal(err)
	}
	// 2(n−1) tree-edge entries, each ≈ 2·log n + a port field.
	bound := 6 * float64(n) * math.Log2(float64(n))
	if float64(sp.Total) > bound {
		t.Fatalf("total = %d > %v", sp.Total, bound)
	}
	if sp.Total < n { // sanity floor
		t.Fatalf("total = %d too small", sp.Total)
	}
}

func TestModelBetaRequired(t *testing.T) {
	g, err := gengraph.Complete(8)
	if err != nil {
		t.Fatal(err)
	}
	s, _, _ := fixture(t, g, 1)
	if _, err := routing.MeasureSpace(s, models.IAAlpha); err == nil {
		t.Error("α model accepted a relabelling scheme")
	}
	for _, m := range []models.Model{models.IABeta, models.IBBeta, models.IIBeta, models.IIGamma} {
		if _, err := routing.MeasureSpace(s, m); err != nil {
			t.Errorf("model %s rejected: %v", m, err)
		}
	}
}

func TestValidation(t *testing.T) {
	g := graph.MustNew(4)
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	ports := graph.SortedPorts(g)
	if _, err := Build(g, ports, 1); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("disconnected: err = %v", err)
	}
	if _, err := Build(g, ports, 0); err == nil {
		t.Error("root 0 accepted")
	}
	if _, err := Build(g, ports, 9); err == nil {
		t.Error("root 9 accepted")
	}
}

func TestRouteErrors(t *testing.T) {
	g, err := gengraph.Chain(5)
	if err != nil {
		t.Fatal(err)
	}
	s, _, _ := fixture(t, g, 1)
	if _, _, err := s.Route(0, nil, routing.Label{ID: 2}, 0, 0); !errors.Is(err, routing.ErrNoRoute) {
		t.Errorf("bad node: %v", err)
	}
	if _, _, err := s.Route(1, nil, routing.Label{ID: 99}, 0, 0); !errors.Is(err, routing.ErrNoRoute) {
		t.Errorf("bad dest: %v", err)
	}
	if s.FunctionBits(0) != 0 || s.LabelBits(2) != 0 {
		t.Error("accounting wrong")
	}
	if s.Label(0).ID != 0 {
		t.Error("out-of-range label should be zero")
	}
	if s.Name() == "" || s.N() != 5 {
		t.Error("metadata wrong")
	}
}

func TestSingleNodeTree(t *testing.T) {
	g := graph.MustNew(1)
	ports := graph.SortedPorts(g)
	s, err := Build(g, ports, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 1 || s.FunctionBits(1) != 0 {
		t.Fatalf("single node: n=%d bits=%d", s.N(), s.FunctionBits(1))
	}
}

package shortestpath

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"routetab/internal/gengraph"
	"routetab/internal/graph"
)

// diffGraphs builds the differential-test corpus: random graphs at several
// densities plus the deterministic worst-case families.
func diffGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	out := map[string]*graph.Graph{}
	mk := func(name string) func(*graph.Graph, error) {
		return func(g *graph.Graph, err error) {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out[name] = g
		}
	}
	mk("gnhalf96")(gengraph.GnHalf(96, rand.New(rand.NewSource(1))))
	mk("gnp70-sparse")(gengraph.Gnp(70, 0.05, rand.New(rand.NewSource(2))))
	mk("gnp70-dense")(gengraph.Gnp(70, 0.6, rand.New(rand.NewSource(3))))
	mk("chain80")(gengraph.Chain(80))
	mk("cycle81")(gengraph.Cycle(81))
	mk("star80")(gengraph.Star(80))
	mk("grid9x9")(gengraph.Grid(9, 9))
	mk("tree77")(gengraph.RandomTree(77, rand.New(rand.NewSource(4))))
	mk("complete65")(gengraph.Complete(65))
	disc := graph.MustNew(70)
	for u := 1; u < 35; u++ {
		if err := disc.AddEdge(u, u+1); err != nil {
			t.Fatal(err)
		}
	}
	for u := 36; u < 70; u++ {
		if err := disc.AddEdge(u, u+1); err != nil {
			t.Fatal(err)
		}
	}
	out["disconnected70"] = disc
	return out
}

// TestBitsetVsListDifferential checks the two kernels agree pair-for-pair,
// and that Eccentricity/Diameter computed from either matrix match.
func TestBitsetVsListDifferential(t *testing.T) {
	for name, g := range diffGraphs(t) {
		t.Run(name, func(t *testing.T) {
			byList, err := AllPairsStrategy(g, StrategyList)
			if err != nil {
				t.Fatal(err)
			}
			byBitset, err := AllPairsStrategy(g, StrategyBitset)
			if err != nil {
				t.Fatal(err)
			}
			n := g.N()
			for u := 1; u <= n; u++ {
				for v := 1; v <= n; v++ {
					if byList.Dist(u, v) != byBitset.Dist(u, v) {
						t.Fatalf("Dist(%d,%d): list %d, bitset %d",
							u, v, byList.Dist(u, v), byBitset.Dist(u, v))
					}
				}
				if byList.Eccentricity(u) != byBitset.Eccentricity(u) {
					t.Fatalf("Eccentricity(%d): list %d, bitset %d",
						u, byList.Eccentricity(u), byBitset.Eccentricity(u))
				}
			}
			if byList.Diameter() != byBitset.Diameter() {
				t.Fatalf("Diameter: list %d, bitset %d", byList.Diameter(), byBitset.Diameter())
			}
		})
	}
}

// TestAutoStrategyMatchesForced checks StrategyAuto picks a kernel that
// agrees with both forced kernels on a dense and a sparse graph.
func TestAutoStrategyMatchesForced(t *testing.T) {
	dense, err := gengraph.GnHalf(80, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := gengraph.Chain(80)
	if err != nil {
		t.Fatal(err)
	}
	if !useBitset(dense) {
		t.Error("G(80,1/2) should select the bitset kernel")
	}
	if useBitset(sparse) {
		t.Error("chain80 should select the list kernel")
	}
	for _, g := range []*graph.Graph{dense, sparse} {
		auto, err := AllPairs(g)
		if err != nil {
			t.Fatal(err)
		}
		forced, err := AllPairsStrategy(g, StrategyList)
		if err != nil {
			t.Fatal(err)
		}
		for u := 1; u <= g.N(); u++ {
			for v := 1; v <= g.N(); v++ {
				if auto.Dist(u, v) != forced.Dist(u, v) {
					t.Fatalf("auto Dist(%d,%d) = %d, want %d", u, v, auto.Dist(u, v), forced.Dist(u, v))
				}
			}
		}
	}
}

// TestDistancesSaturation covers the uint8 packing: on a chain longer than
// MaxDistance hops, far pairs saturate to exactly MaxDistance (never wrap,
// never collide with Unreachable), and both kernels saturate identically.
func TestDistancesSaturation(t *testing.T) {
	const n = MaxDistance + 47 // distances up to 300 > MaxDistance
	g, err := gengraph.Chain(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{StrategyList, StrategyBitset} {
		dm, err := AllPairsStrategy(g, strat)
		if err != nil {
			t.Fatal(err)
		}
		for v := 1; v <= n; v++ {
			want := v - 1
			if want > MaxDistance {
				want = MaxDistance
			}
			if got := dm.Dist(1, v); got != want {
				t.Fatalf("strategy %d: Dist(1,%d) = %d, want %d", strat, v, got, want)
			}
		}
		// The true diameter n−1 saturates; saturation must also flow through
		// Eccentricity and Diameter consistently.
		if ecc := dm.Eccentricity(1); ecc != MaxDistance {
			t.Fatalf("strategy %d: Eccentricity(1) = %d, want %d", strat, ecc, MaxDistance)
		}
		if diam := dm.Diameter(); diam != MaxDistance {
			t.Fatalf("strategy %d: Diameter = %d, want %d", strat, diam, MaxDistance)
		}
	}
}

// TestUnreachableRoundTrip checks the Unreachable sentinel survives packing
// under both kernels and keeps its Eccentricity/Diameter semantics.
func TestUnreachableRoundTrip(t *testing.T) {
	g := graph.MustNew(300)
	for u := 1; u < 150; u++ {
		if err := g.AddEdge(u, u+1); err != nil {
			t.Fatal(err)
		}
	}
	// Nodes 151…300 are isolated from component one (151-…-300 chained).
	for u := 151; u < 300; u++ {
		if err := g.AddEdge(u, u+1); err != nil {
			t.Fatal(err)
		}
	}
	for _, strat := range []Strategy{StrategyList, StrategyBitset} {
		dm, err := AllPairsStrategy(g, strat)
		if err != nil {
			t.Fatal(err)
		}
		if d := dm.Dist(1, 300); d != Unreachable {
			t.Fatalf("strategy %d: cross-component Dist = %d, want Unreachable", strat, d)
		}
		if d := dm.Dist(1, 150); d != 149 {
			t.Fatalf("strategy %d: within-component Dist = %d, want 149", strat, d)
		}
		if d := dm.Dist(151, 300); d != 149 {
			t.Fatalf("strategy %d: second-component Dist = %d, want 149", strat, d)
		}
		if ecc := dm.Eccentricity(1); ecc != Unreachable {
			t.Fatalf("strategy %d: Eccentricity = %d, want Unreachable", strat, ecc)
		}
		if diam := dm.Diameter(); diam != Unreachable {
			t.Fatalf("strategy %d: Diameter = %d, want Unreachable", strat, diam)
		}
	}
}

// TestAllPairsErrorNoDeadlock is the regression test for the fan-out
// deadlock: when every worker dies on a row error, the old dispatcher blocked
// forever on `sources <- src`. The injected failure must surface as the
// returned error, promptly.
func TestAllPairsErrorNoDeadlock(t *testing.T) {
	errBoom := errors.New("boom")
	testRowErr = func(src int) error { return fmt.Errorf("%w: src %d", errBoom, src) }
	defer func() { testRowErr = nil }()

	g, err := gengraph.GnHalf(128, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	finished := make(chan error, 1)
	go func() {
		_, err := AllPairs(g)
		finished <- err
	}()
	select {
	case err := <-finished:
		if !errors.Is(err, errBoom) {
			t.Fatalf("err = %v, want injected error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("AllPairs deadlocked on worker error")
	}
}

func TestCacheHitsAndInvalidation(t *testing.T) {
	c := NewCache(2)
	g, err := gengraph.GnHalf(40, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	dm1, err := c.AllPairs(g)
	if err != nil {
		t.Fatal(err)
	}
	dm2, err := c.AllPairs(g)
	if err != nil {
		t.Fatal(err)
	}
	if dm1 != dm2 {
		t.Fatal("second lookup recomputed the matrix")
	}
	// Mutation bumps Version and must invalidate.
	u, v := 1, 2
	if g.HasEdge(u, v) {
		err = g.RemoveEdge(u, v)
	} else {
		err = g.AddEdge(u, v)
	}
	if err != nil {
		t.Fatal(err)
	}
	dm3, err := c.AllPairs(g)
	if err != nil {
		t.Fatal(err)
	}
	if dm3 == dm1 {
		t.Fatal("mutated graph served a stale matrix")
	}
	fresh, err := AllPairs(g)
	if err != nil {
		t.Fatal(err)
	}
	for a := 1; a <= g.N(); a++ {
		for b := 1; b <= g.N(); b++ {
			if dm3.Dist(a, b) != fresh.Dist(a, b) {
				t.Fatalf("cached Dist(%d,%d) = %d, want %d", a, b, dm3.Dist(a, b), fresh.Dist(a, b))
			}
		}
	}
}

func TestCacheEviction(t *testing.T) {
	c := NewCache(2)
	var graphs []*graph.Graph
	for i := 0; i < 3; i++ {
		g, err := gengraph.GnHalf(24, rand.New(rand.NewSource(int64(10+i))))
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
		if _, err := c.AllPairs(g); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.Len())
	}
	// graphs[0] was evicted (LRU); re-requesting recomputes without error.
	if _, err := c.AllPairs(graphs[0]); err != nil {
		t.Fatal(err)
	}
}

// TestCacheConcurrentSingleFlight hammers the shared entry from many
// goroutines; run under -race this also exercises the graph's concurrent
// lazy neighbour-list publish.
func TestCacheConcurrentSingleFlight(t *testing.T) {
	c := NewCache(4)
	g, err := gengraph.GnHalf(64, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan *Distances, 16)
	for i := 0; i < 16; i++ {
		go func() {
			dm, err := c.AllPairs(g)
			if err != nil {
				t.Error(err)
			}
			results <- dm
		}()
	}
	first := <-results
	for i := 1; i < 16; i++ {
		if dm := <-results; dm != first {
			t.Fatal("concurrent lookups returned different matrices")
		}
	}
}

// TestFirstHopKernelsDifferential forces each first-hop kernel on the
// differential corpus, plus a dense graph with a long tail (bitset kernel,
// many levels), and checks they agree entry for entry and with the
// definition: the smallest neighbour w of src with d(w,v) = d(src,v) − 1,
// and 0 on the diagonal and for unreachable v.
func TestFirstHopKernelsDifferential(t *testing.T) {
	corpus := diffGraphs(t)
	lollipop, err := gengraph.Complete(40)
	if err != nil {
		t.Fatal(err)
	}
	tail := graph.MustNew(80)
	for _, e := range lollipop.Edges() {
		if err := tail.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	for u := 40; u < 80; u++ {
		if err := tail.AddEdge(u, u+1); err != nil {
			t.Fatal(err)
		}
	}
	corpus["lollipop80"] = tail
	for name, g := range corpus {
		t.Run(name, func(t *testing.T) {
			dm, err := AllPairs(g)
			if err != nil {
				t.Fatal(err)
			}
			n := g.N()
			byList := make([]int32, n+1)
			byBitset := make([]int32, n+1)
			for src := 1; src <= n; src++ {
				listFirstHops(g, src, byList)
				bitsetFirstHops(g, src, byBitset)
				for v := 1; v <= n; v++ {
					want := int32(0)
					if d := dm.Dist(src, v); v != src && d != Unreachable {
						for _, w := range g.Neighbors(src) {
							if dm.Dist(w, v) == d-1 {
								want = int32(w)
								break
							}
						}
					}
					if byList[v] != want || byBitset[v] != want {
						t.Fatalf("first hop %d→%d: list %d, bitset %d, want %d", src, v, byList[v], byBitset[v], want)
					}
				}
			}
		})
	}
}

func TestFirstHopRowValidation(t *testing.T) {
	g, err := gengraph.Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := FirstHopRow(g, 0, make([]int32, 5)); !errors.Is(err, ErrNodeRange) {
		t.Errorf("source 0: err = %v, want ErrNodeRange", err)
	}
	if err := FirstHopRow(g, 1, make([]int32, 4)); err == nil {
		t.Error("short row accepted")
	}
	hop := []int32{7, 7, 7, 7, 7}
	if err := FirstHopRow(g, 2, hop); err != nil {
		t.Fatal(err)
	}
	if want := []int32{0, 1, 0, 3, 3}; fmt.Sprint(hop) != fmt.Sprint(want) {
		t.Errorf("FirstHopRow(chain4, 2) = %v, want %v", hop, want)
	}
}

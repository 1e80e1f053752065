package serve

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"routetab/internal/gengraph"
	"routetab/internal/graph"
	"routetab/internal/shortestpath"
)

func testGraph(t *testing.T, n int, seed int64) *graph.Graph {
	t.Helper()
	g, err := gengraph.GnHalf(n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSchemeRegistry(t *testing.T) {
	names := SchemeNames()
	if len(names) != 7 {
		t.Fatalf("expected 7 schemes, got %v", names)
	}
	for _, name := range names {
		if !KnownScheme(name) {
			t.Fatalf("%s not known", name)
		}
	}
	if KnownScheme("nope") {
		t.Fatal("unknown scheme reported known")
	}
	for _, name := range []string{"fulltable", "compact", "fullinfo"} {
		if !IsShortestPath(name) {
			t.Fatalf("%s should be shortest-path", name)
		}
	}
	if IsShortestPath("hub") {
		t.Fatal("hub is stretch-2, not shortest-path")
	}
}

// TestEngineServesEveryScheme: the engine builds a queryable snapshot for
// every registered scheme, and NextHop answers something sane on each.
func TestEngineServesEveryScheme(t *testing.T) {
	g := testGraph(t, 48, 7)
	dm, err := shortestpath.AllPairs(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range SchemeNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			eng, err := NewEngine(g, name)
			if err != nil {
				t.Fatal(err)
			}
			snap := eng.Current()
			if snap.Seq != 1 || snap.SchemeName() != name || snap.N() != 48 {
				t.Fatalf("snapshot header: %+v", snap)
			}
			if snap.SpaceBits() <= 0 {
				t.Fatal("scheme reports no storage")
			}
			for src := 1; src <= 8; src++ {
				for dst := 40; dst <= 48; dst++ {
					next, err := snap.NextHop(src, dst)
					if err != nil {
						t.Fatalf("NextHop(%d,%d): %v", src, dst, err)
					}
					if !g.HasEdge(src, next) {
						t.Fatalf("NextHop(%d,%d) = %d: not a neighbour", src, dst, next)
					}
					if IsShortestPath(name) && dm.Dist(next, dst) != dm.Dist(src, dst)-1 {
						t.Fatalf("%s NextHop(%d,%d) = %d does not decrease distance", name, src, dst, next)
					}
					tr, err := snap.Route(src, dst)
					if err != nil {
						t.Fatalf("Route(%d,%d): %v", src, dst, err)
					}
					if tr.Path[len(tr.Path)-1] != dst {
						t.Fatalf("Route(%d,%d) ended at %d", src, dst, tr.Path[len(tr.Path)-1])
					}
				}
			}
		})
	}
}

// TestFullTierFlipSkipsAllPairs: on the full tier a one-edge Mutate updates
// the matrix for every scheme, through the scheme's own update (fulltable)
// or a build on the updated matrix (the rest), and counts an incremental
// rebuild; the snapshot answers as a freshly built engine does.
func TestFullTierFlipSkipsAllPairs(t *testing.T) {
	g := testGraph(t, 48, 7)
	for _, name := range SchemeNames() {
		t.Run(name, func(t *testing.T) {
			eng, err := NewEngine(g, name)
			if err != nil {
				t.Fatal(err)
			}
			// An added edge never lengthens a path, so schemes that need
			// diameter 2 still build.
			x, y := 1, 2
			for g.HasEdge(x, y) {
				y++
			}
			snap, err := eng.Mutate(func(g *graph.Graph) error { return g.AddEdge(x, y) })
			if err != nil {
				t.Fatal(err)
			}
			if inc, full := eng.Rebuilds(); inc != 1 || full != 1 {
				t.Fatalf("rebuilds = %d incremental, %d full; want 1, 1", inc, full)
			}
			ref, err := NewEngine(snap.Graph, name)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.Current()
			if !bytes.Equal(snap.Dist.Packed(), want.Dist.Packed()) {
				t.Fatal("updated matrix differs from a fresh engine's")
			}
			if snap.SpaceBits() != want.SpaceBits() {
				t.Fatalf("space %d bits, fresh engine %d", snap.SpaceBits(), want.SpaceBits())
			}
			for src := 1; src <= snap.N(); src++ {
				for dst := 1; dst <= snap.N(); dst++ {
					if src == dst {
						continue
					}
					got, gerr := snap.NextHop(src, dst)
					exp, werr := want.NextHop(src, dst)
					if got != exp || (gerr == nil) != (werr == nil) {
						t.Fatalf("NextHop(%d,%d) = %d, %v; fresh engine %d, %v", src, dst, got, gerr, exp, werr)
					}
				}
			}
		})
	}
}

func TestSelfLookupRejected(t *testing.T) {
	eng, err := NewEngine(testGraph(t, 32, 3), "fulltable")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Current().NextHop(5, 5); !errors.Is(err, ErrSelfLookup) {
		t.Fatalf("self lookup: %v", err)
	}
	if _, err := eng.Current().Route(5, 5); !errors.Is(err, ErrSelfLookup) {
		t.Fatalf("self route: %v", err)
	}
}

func TestUnknownScheme(t *testing.T) {
	if _, err := NewEngine(testGraph(t, 32, 3), "bogus"); err == nil {
		t.Fatal("bogus scheme accepted")
	}
}

// TestMutatePublishesNewSnapshot: a topology change produces a new snapshot
// whose answers reflect the change, while the old snapshot keeps answering
// from the old topology (immutability).
func TestMutatePublishesNewSnapshot(t *testing.T) {
	g := testGraph(t, 32, 5)
	eng, err := NewEngine(g, "fulltable")
	if err != nil {
		t.Fatal(err)
	}
	old := eng.Current()
	hadEdge := old.Graph.HasEdge(1, 2)
	snap, err := eng.Mutate(func(g *graph.Graph) error {
		if hadEdge {
			return g.RemoveEdge(1, 2)
		}
		return g.AddEdge(1, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq != old.Seq+1 {
		t.Fatalf("seq %d after %d", snap.Seq, old.Seq)
	}
	if eng.Current() != snap {
		t.Fatal("mutated snapshot not current")
	}
	if snap.Graph.HasEdge(1, 2) == hadEdge {
		t.Fatal("mutation did not land in the new snapshot")
	}
	if old.Graph.HasEdge(1, 2) != hadEdge {
		t.Fatal("old snapshot's graph was mutated in place")
	}
	// Distances must match each snapshot's own topology.
	wantOld, wantNew := 1, 2
	if !hadEdge {
		wantOld, wantNew = 2, 1
	}
	if old.Dist.Dist(1, 2) != wantOld || snap.Dist.Dist(1, 2) != wantNew {
		t.Fatalf("dist old=%d new=%d, want %d/%d",
			old.Dist.Dist(1, 2), snap.Dist.Dist(1, 2), wantOld, wantNew)
	}
}

// TestMutateErrorKeepsOldSnapshot: a failing mutation publishes nothing.
func TestMutateErrorKeepsOldSnapshot(t *testing.T) {
	eng, err := NewEngine(testGraph(t, 32, 5), "fulltable")
	if err != nil {
		t.Fatal(err)
	}
	old := eng.Current()
	boom := errors.New("boom")
	if _, err := eng.Mutate(func(*graph.Graph) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("mutate error: %v", err)
	}
	if eng.Current() != old {
		t.Fatal("failed mutation replaced the snapshot")
	}
	if eng.Swaps() != 1 {
		t.Fatalf("swaps = %d after failed mutation", eng.Swaps())
	}
	// The engine must still be able to mutate successfully afterwards.
	if _, err := eng.Reload(); err != nil {
		t.Fatal(err)
	}
	if eng.Current().Seq != 2 {
		t.Fatalf("seq = %d after reload", eng.Current().Seq)
	}
}

// TestEngineClonesInput: mutating the caller's graph after NewEngine must
// not affect the serving snapshot.
func TestEngineClonesInput(t *testing.T) {
	g := testGraph(t, 32, 9)
	eng, err := NewEngine(g, "fulltable")
	if err != nil {
		t.Fatal(err)
	}
	had := g.HasEdge(3, 4)
	if had {
		if err := g.RemoveEdge(3, 4); err != nil {
			t.Fatal(err)
		}
	} else {
		if err := g.AddEdge(3, 4); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Current().Graph.HasEdge(3, 4) != had {
		t.Fatal("caller-side mutation leaked into the snapshot")
	}
}

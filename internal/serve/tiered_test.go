package serve

import (
	"bytes"
	"math/rand"
	"testing"

	"routetab/internal/gengraph"
	"routetab/internal/graph"
)

// sparseGraph builds the connected sparse family the tables tier targets —
// G(n,1/2) at tiered sizes would be millions of edges and diameter 2.
func sparseGraph(t testing.TB, n int, seed int64) *graph.Graph {
	t.Helper()
	g, err := gengraph.SparseConnected(n, 6, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func tieredEngine(t testing.TB, n int, seed int64) *Engine {
	t.Helper()
	eng, err := NewTieredEngine(sparseGraph(t, n, seed), "landmark")
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestTieredEngineServes: a tables-tier engine publishes a matrix-free
// snapshot that still answers every lookup with a real neighbour and a
// delivering route, and its DistEstimate upper-bounds within stretch 3.
func TestTieredEngineServes(t *testing.T) {
	eng := tieredEngine(t, 120, 5)
	if eng.Tier() != TierTables {
		t.Fatalf("tier = %q", eng.Tier())
	}
	snap := eng.Current()
	if snap.Tier != TierTables || snap.Dist != nil {
		t.Fatalf("snapshot tier=%q dist=%v", snap.Tier, snap.Dist)
	}
	if len(snap.TablesBytes()) == 0 {
		t.Fatal("no encoded tables on a tables-tier snapshot")
	}
	for src := 1; src <= 120; src += 7 {
		for dst := 1; dst <= 120; dst += 11 {
			if src == dst {
				continue
			}
			next, err := snap.NextHop(src, dst)
			if err != nil {
				t.Fatalf("NextHop(%d,%d): %v", src, dst, err)
			}
			if !snap.Graph.HasEdge(src, next) {
				t.Fatalf("NextHop(%d,%d) = %d: not a neighbour", src, dst, next)
			}
			tr, err := snap.Route(src, dst)
			if err != nil {
				t.Fatalf("Route(%d,%d): %v", src, dst, err)
			}
			if tr.Path[len(tr.Path)-1] != dst {
				t.Fatalf("Route(%d,%d) ended at %d", src, dst, tr.Path[len(tr.Path)-1])
			}
			est := snap.DistEstimate(src, dst)
			if est < 1 || tr.Hops > 3*est {
				t.Fatalf("estimate %d vs %d hops for (%d,%d)", est, tr.Hops, src, dst)
			}
		}
	}
}

// TestTablesTierUndercutsFullTier is the tier's space bound, the figure a
// TZ-style scheme is judged by: on the sparse family at n=1024, the landmark
// tables-tier snapshot takes fewer bytes per node than the fulltable
// full-tier snapshot of the same graph.
func TestTablesTierUndercutsFullTier(t *testing.T) {
	const n = 1024
	g, err := gengraph.SparseConnected(n, 8, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewEngine(g, "fulltable")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := NewTieredEngine(g, "landmark")
	if err != nil {
		t.Fatal(err)
	}
	fullSize, tablesSize := full.Current().ArenaSize(), tables.Current().ArenaSize()
	t.Logf("n=%d: landmark %d B (%.0f B/node), fulltable %d B (%.0f B/node)",
		n, tablesSize, float64(tablesSize)/n, fullSize, float64(fullSize)/n)
	if tablesSize >= fullSize {
		t.Fatalf("landmark %d B does not undercut fulltable %d B at n=%d", tablesSize, fullSize, n)
	}
}

// TestTieredMutateRebuildsDeterministically: a mutation republishes a new
// tables-tier snapshot, and rebuilding over the same topology reproduces the
// table bytes exactly — the determinism contract the arena CRC leans on.
func TestTieredMutateRebuildsDeterministically(t *testing.T) {
	eng := tieredEngine(t, 90, 9)
	old := eng.Current()
	snap, err := eng.Mutate(func(g *graph.Graph) error {
		if g.HasEdge(1, 2) {
			return g.RemoveEdge(1, 2)
		}
		return g.AddEdge(1, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq != old.Seq+1 || snap.Tier != TierTables {
		t.Fatalf("seq=%d tier=%q after mutate", snap.Seq, snap.Tier)
	}
	if bytes.Equal(snap.TablesBytes(), old.TablesBytes()) {
		t.Fatal("mutation did not change the encoded tables")
	}
	re, err := eng.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re.TablesBytes(), snap.TablesBytes()) {
		t.Fatal("rebuild over the same topology changed the table bytes")
	}
}

// TestAdoptRejectsTierMismatch: replication adoption across tiers is refused
// in both directions — a tables blob cannot land in a full-tier engine nor a
// matrix in a tables-tier engine.
func TestAdoptRejectsTierMismatch(t *testing.T) {
	g := sparseGraph(t, 60, 4)
	fullEng, err := NewEngine(g, "landmark")
	if err != nil {
		t.Fatal(err)
	}
	tabEng, err := NewTieredEngine(g, "landmark")
	if err != nil {
		t.Fatal(err)
	}
	fullSnap, tabSnap := fullEng.Current(), tabEng.Current()
	tabSD := tabSnap.data()
	tabSD.Seq = 9
	if err := fullEng.Adopt(tabSD); err == nil {
		t.Fatal("full-tier engine adopted a tables-tier snapshot")
	}
	fullSD := fullSnap.data()
	fullSD.Seq = 9
	if err := tabEng.Adopt(fullSD); err == nil {
		t.Fatal("tables-tier engine adopted a full-tier snapshot")
	}
	if err := tabEng.Adopt(tabSD); err != nil {
		t.Fatalf("same-tier adoption failed: %v", err)
	}
	if got := tabEng.Current().Seq; got != 9 {
		t.Fatalf("adopted seq = %d", got)
	}
}

// TestTieredSnapshotNextHopZeroAlloc pins the acceptance contract: the
// tables-tier hot path — cluster binary search, landmark fallback,
// DistEstimate — allocates nothing per lookup.
func TestTieredSnapshotNextHopZeroAlloc(t *testing.T) {
	skipIfRace(t)
	snap := tieredEngine(t, 200, 11).Current()
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := snap.NextHop(1, 150); err != nil {
			t.Fatal(err)
		}
		if snap.DistEstimate(1, 150) < 1 {
			t.Fatal("bad estimate")
		}
	})
	if allocs != 0 {
		t.Fatalf("tables-tier NextHop allocates %.1f/op, want 0", allocs)
	}
}

// TestTieredServerLookupBatchZeroAlloc: the whole sharded batch pipeline over
// a tables-tier snapshot stays allocation-free in steady state, same as the
// full tier.
func TestTieredServerLookupBatchZeroAlloc(t *testing.T) {
	skipIfRace(t)
	eng := tieredEngine(t, 200, 11)
	s := NewServer(eng, ServerOptions{Shards: 4, StretchSampleEvery: -1})
	t.Cleanup(s.Close)
	pairs := make([][2]int, 16)
	for i := range pairs {
		pairs[i] = [2]int{i%200 + 1, (i*13 + 57) % 200}
		if pairs[i][1] < 1 {
			pairs[i][1] = 200
		}
		if pairs[i][0] == pairs[i][1] {
			pairs[i][1] = pairs[i][1]%200 + 1
		}
	}
	out := make([]Result, len(pairs))
	for i := 0; i < 32; i++ {
		if err := s.LookupBatch(pairs, out); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		if err := s.LookupBatch(pairs, out); err != nil {
			t.Fatal(err)
		}
		for i := range out {
			if out[i].Err != nil {
				t.Fatal(out[i].Err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("tables-tier LookupBatch allocates %.1f/op, want 0", allocs)
	}
}

// TestAdoptRejectionLeavesEngineServing pins the no-partial-adoption
// contract: a rejected Adopt — wrong scheme, wrong tier, or a corrupt table
// blob — must leave the previous snapshot serving with Seq and the swap
// counter untouched. Replication leans on this: a replica that receives a bad
// state fetch keeps answering from its last good tables.
func TestAdoptRejectionLeavesEngineServing(t *testing.T) {
	eng := tieredEngine(t, 60, 9)
	before := eng.Current()
	swapsBefore := eng.Swaps()

	good := before.data()
	good.Seq = before.Seq + 7

	// Scheme mismatch.
	bad := *good
	bad.Scheme = "fulltable"
	if err := eng.Adopt(&bad); err == nil {
		t.Fatal("scheme mismatch adopted")
	}
	// Tier mismatch: a matrix-bearing payload on a tables-tier engine.
	full := buildTestEngine(t, 24, 6, "landmark").Current().data()
	full.Seq = before.Seq + 7
	if err := eng.Adopt(full); err == nil {
		t.Fatal("full-tier snapshot adopted by tables-tier engine")
	}
	// Corrupt tables: flip one header byte so DecodeTableScheme rejects it.
	corrupt := *good
	corrupt.Tables = bytes.Clone(good.Tables)
	corrupt.Tables[8] ^= 0x40
	if err := eng.Adopt(&corrupt); err == nil {
		t.Fatal("corrupt table blob adopted")
	}
	// Truncated tables.
	truncated := *good
	truncated.Tables = good.Tables[:len(good.Tables)/2]
	if err := eng.Adopt(&truncated); err == nil {
		t.Fatal("truncated table blob adopted")
	}

	if cur := eng.Current(); cur != before {
		t.Fatalf("rejected adoption swapped the snapshot: seq %d → %d", before.Seq, cur.Seq)
	}
	if eng.Swaps() != swapsBefore {
		t.Fatalf("rejected adoption moved the swap counter: %d → %d", swapsBefore, eng.Swaps())
	}
	if _, err := eng.Current().NextHop(1, 50); err != nil {
		t.Fatalf("engine stopped serving after rejected adoptions: %v", err)
	}

	// And the control: the untouched payload still adopts cleanly.
	if err := eng.Adopt(good); err != nil {
		t.Fatalf("clean adoption failed: %v", err)
	}
	if got := eng.Current().Seq; got != good.Seq {
		t.Fatalf("adopted seq = %d, want %d", got, good.Seq)
	}
}

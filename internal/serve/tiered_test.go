package serve

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"routetab/internal/gengraph"
	"routetab/internal/graph"
)

// sparseGraph builds the connected sparse family the tables tier targets —
// G(n,1/2) at tiered sizes would be millions of edges and diameter 2.
func sparseGraph(t *testing.T, n int, seed int64) *graph.Graph {
	t.Helper()
	g, err := gengraph.SparseConnected(n, 6, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func tieredEngine(t *testing.T, n int, seed int64) *Engine {
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

// TestTieredArenaRoundTrip: a tables-tier snapshot persists through RTARENA2
// and restores into an engine serving identical answers, with a byte-identical
// re-encode and no distance matrix anywhere.
func TestTieredArenaRoundTrip(t *testing.T) {
	eng := tieredEngine(t, 100, 3)
	snap := eng.Current()
	path := filepath.Join(t.TempDir(), "tiered.rtarena")
	if err := SaveSnapshot(path, snap); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a, err := OpenArena(buf)
	if err != nil {
		t.Fatal(err)
	}
	if a.Version() != 2 {
		t.Fatalf("arena version = %d, want 2", a.Version())
	}
	if a.PackedDist() != nil {
		t.Fatal("tables-tier arena reports a packed distance matrix")
	}
	if !bytes.Equal(a.Tables(), snap.TablesBytes()) {
		t.Fatal("arena tables differ from the snapshot's")
	}

	restored, err := RestoreEngine(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Tier() != TierTables {
		t.Fatalf("restored tier = %q", restored.Tier())
	}
	rs := restored.Current()
	if rs.Seq != snap.Seq || rs.Dist != nil {
		t.Fatalf("restored seq=%d dist=%v", rs.Seq, rs.Dist)
	}
	for src := 1; src <= 100; src += 13 {
		for dst := 1; dst <= 100; dst += 17 {
			if src == dst {
				continue
			}
			a, aerr := snap.NextHop(src, dst)
			b, berr := rs.NextHop(src, dst)
			if a != b || (aerr == nil) != (berr == nil) {
				t.Fatalf("NextHop(%d,%d): %d/%v vs restored %d/%v", src, dst, a, aerr, b, berr)
			}
			if snap.DistEstimate(src, dst) != rs.DistEstimate(src, dst) {
				t.Fatalf("DistEstimate(%d,%d) differs after restore", src, dst)
			}
		}
	}
	reenc := EncodeArena(&SnapshotData{
		Seq: rs.Seq, Scheme: rs.Scheme, Graph: rs.Graph, Ports: rs.Ports, Tables: rs.TablesBytes(),
	})
	if !bytes.Equal(reenc, buf) {
		t.Fatal("restored snapshot does not re-encode byte-identically")
	}
}

// TestTieredArenaGoldenFile pins the RTARENA2 on-disk bytes the same way the
// RTARENA1 golden does: any layout drift fails here, not at a restart.
func TestTieredArenaGoldenFile(t *testing.T) {
	const golden = "testdata/snapshot_n32_seed2_landmark.rtarena"
	snap := tieredEngine(t, 32, 2).Current()
	want := EncodeArena(&SnapshotData{
		Seq: snap.Seq, Scheme: snap.Scheme, Graph: snap.Graph, Ports: snap.Ports, Tables: snap.TablesBytes(),
	})
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file unreadable (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("golden RTARENA2 differs from seeded rebuild (%d vs %d bytes)", len(got), len(want))
	}
	a, err := OpenArena(got)
	if err != nil {
		t.Fatal(err)
	}
	if a.Scheme() != "landmark" || a.N() != 32 || a.Version() != 2 {
		t.Fatalf("golden header: scheme=%q n=%d version=%d", a.Scheme(), a.N(), a.Version())
	}
}

// TestTieredArenaRejectsCorruption: the full truncation and bit-flip matrix
// over an RTARENA2 buffer — the tiered layout inherits the v1 rule that
// nothing in the arena is slack the CRC ignores.
func TestTieredArenaRejectsCorruption(t *testing.T) {
	snap := tieredEngine(t, 32, 2).Current()
	buf := EncodeArena(&SnapshotData{
		Seq: snap.Seq, Scheme: snap.Scheme, Graph: snap.Graph, Ports: snap.Ports, Tables: snap.TablesBytes(),
	})
	t.Run("truncation", func(t *testing.T) {
		for l := 0; l < len(buf); l++ {
			if _, err := OpenArena(buf[:l]); err == nil {
				t.Fatalf("truncation to %d bytes accepted", l)
			}
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		for i := 0; i < len(buf); i++ {
			mut := bytes.Clone(buf)
			mut[i] ^= 1 << uint(i%8)
			if _, err := OpenArena(mut); err == nil {
				t.Fatalf("bit flip at byte %d accepted", i)
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		if _, err := OpenArena(append(bytes.Clone(buf), 0xEE)); err == nil {
			t.Fatal("trailing byte accepted")
		}
	})
}

// TestArenaVersionNegotiation pins cross-version behaviour: full-tier
// snapshots still encode as RTARENA1 byte-for-byte (a pre-tiering reader
// keeps working), and tables-tier snapshots announce RTARENA2.
func TestArenaVersionNegotiation(t *testing.T) {
	full := snapshotData(t, 24, 6, "fulltable")
	fb := EncodeArena(full)
	if string(fb[:8]) != "RTARENA1" {
		t.Fatalf("full-tier magic %q", fb[:8])
	}
	a, err := OpenArena(fb)
	if err != nil {
		t.Fatal(err)
	}
	if a.Version() != 1 || a.Tables() != nil {
		t.Fatalf("full-tier arena: version=%d tables=%v", a.Version(), a.Tables())
	}

	snap := tieredEngine(t, 40, 6).Current()
	tsd := &SnapshotData{
		Seq: snap.Seq, Scheme: snap.Scheme, Graph: snap.Graph, Ports: snap.Ports, Tables: snap.TablesBytes(),
	}
	tb := EncodeArena(tsd)
	if string(tb[:8]) != "RTARENA2" {
		t.Fatalf("tables-tier magic %q", tb[:8])
	}
	// Magic/version cross-wiring must fail: v2 bytes claiming v1 magic and
	// vice versa die on the version field (and then the CRC).
	swapped := bytes.Clone(tb)
	copy(swapped, "RTARENA1")
	if _, err := OpenArena(swapped); err == nil {
		t.Fatal("v2 body under v1 magic accepted")
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
	tabSD := &SnapshotData{Seq: 9, Scheme: "landmark", Graph: tabSnap.Graph, Ports: tabSnap.Ports, Tables: tabSnap.TablesBytes()}
	if err := fullEng.Adopt(tabSD); err == nil {
		t.Fatal("full-tier engine adopted a tables-tier snapshot")
	}
	fullSD := &SnapshotData{Seq: 9, Scheme: "landmark", Graph: fullSnap.Graph, Ports: fullSnap.Ports, Dist: fullSnap.Dist}
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

	good := &SnapshotData{
		Seq: before.Seq + 7, Scheme: before.Scheme,
		Graph: before.Graph, Ports: before.Ports, Tables: before.TablesBytes(),
	}

	// Scheme mismatch.
	bad := *good
	bad.Scheme = "fulltable"
	if err := eng.Adopt(&bad); err == nil {
		t.Fatal("scheme mismatch adopted")
	}
	// Tier mismatch: a matrix-bearing payload on a tables-tier engine.
	full := snapshotData(t, 24, 6, "landmark")
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

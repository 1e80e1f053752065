package serve

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"routetab/internal/graph"
	"routetab/internal/keyspace"
)

func halfOwned(t *testing.T, n int) *keyspace.Set {
	t.Helper()
	owned, err := keyspace.New(n)
	if err != nil {
		t.Fatal(err)
	}
	for u := 1; u <= n/2; u++ {
		owned.Add(u)
	}
	return owned
}

// TestShardEngineTablesTier: a restricted tables-tier engine answers owned
// sources exactly like an unrestricted engine, refuses foreign sources with
// ErrWrongShard, and its encoded tables are strictly smaller than the full
// build — the per-shard resync-bytes win.
func TestShardEngineTablesTier(t *testing.T) {
	const n = 120
	g := sparseGraph(t, n, 5)
	owned := halfOwned(t, n)
	eng, err := NewShardEngine(g, "landmark", TierTables, owned)
	if err != nil {
		t.Fatal(err)
	}
	full := tieredEngine(t, n, 5)
	snap, fullSnap := eng.Current(), full.Current()
	if snap.Owned() == nil || !snap.Owned().Equal(owned) {
		t.Fatalf("snapshot owned = %v, want %v", snap.Owned(), owned)
	}
	if len(snap.TablesBytes()) >= len(fullSnap.TablesBytes()) {
		t.Fatalf("restricted tables %dB not below full %dB",
			len(snap.TablesBytes()), len(fullSnap.TablesBytes()))
	}
	srv := NewServer(eng, ServerOptions{Shards: 2, StretchSampleEvery: -1})
	defer srv.Close()
	for src := 1; src <= n; src += 3 {
		for dst := 1; dst <= n; dst += 17 {
			if src == dst {
				continue
			}
			res := srv.NextHop(src, dst)
			if !owned.Has(src) {
				if !errors.Is(res.Err, ErrWrongShard) {
					t.Fatalf("NextHop(%d,%d) from foreign source: err = %v, want ErrWrongShard", src, dst, res.Err)
				}
				continue
			}
			if res.Err != nil {
				t.Fatalf("NextHop(%d,%d): %v", src, dst, res.Err)
			}
			want, err := fullSnap.NextHop(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			if res.Next != want {
				t.Fatalf("NextHop(%d,%d) = %d, full engine says %d", src, dst, res.Next, want)
			}
		}
	}
}

// TestShardEngineFullTier: full-tier restriction is serve-level only — the
// matrix stays whole, but foreign sources are still refused.
func TestShardEngineFullTier(t *testing.T) {
	const n = 48
	g := sparseGraph(t, n, 7)
	owned := halfOwned(t, n)
	eng, err := NewShardEngine(g, "fulltable", TierFull, owned)
	if err != nil {
		t.Fatal(err)
	}
	snap := eng.Current()
	if snap.Dist == nil {
		t.Fatal("full-tier shard engine lost its matrix")
	}
	srv := NewServer(eng, ServerOptions{Shards: 2, StretchSampleEvery: -1})
	defer srv.Close()
	if res := srv.NextHop(n, 1); !errors.Is(res.Err, ErrWrongShard) {
		t.Fatalf("foreign source err = %v, want ErrWrongShard", res.Err)
	}
	if res := srv.NextHop(1, n); res.Err != nil {
		t.Fatalf("owned source: %v", res.Err)
	}
}

// TestShardEngineDeterminism: two shard engines fed the same mutation
// sequence publish byte-identical restricted tables — the digest-convergence
// property shard-group anti-entropy checks.
func TestShardEngineDeterminism(t *testing.T) {
	const n = 100
	owned := halfOwned(t, n)
	var tables [][]byte
	for i := 0; i < 2; i++ {
		eng, err := NewShardEngine(sparseGraph(t, n, 11), "landmark", TierTables, owned)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Mutate(func(g *graph.Graph) error { return g.RemoveEdge(g.Neighbors(1)[0], 1) }); err != nil {
			t.Fatal(err)
		}
		tables = append(tables, eng.Current().TablesBytes())
	}
	if !bytes.Equal(tables[0], tables[1]) {
		t.Fatal("restricted engines diverged on identical mutations")
	}
}

// TestShardEnginePersistRoundTrip: a restricted snapshot survives
// save/restore with its owned set intact, and the restored engine keeps
// restricting later rebuilds.
func TestShardEnginePersistRoundTrip(t *testing.T) {
	const n = 100
	owned := halfOwned(t, n)
	eng, err := NewShardEngine(sparseGraph(t, n, 13), "landmark", TierTables, owned)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shard.snap")
	if err := eng.EnablePersist(path); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreEngine(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Current().Owned(); got == nil || !got.Equal(owned) {
		t.Fatalf("restored owned = %v, want %v", got, owned)
	}
	if !bytes.Equal(restored.Current().TablesBytes(), eng.Current().TablesBytes()) {
		t.Fatal("restored tables differ")
	}
	snap, err := restored.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Owned() == nil || !snap.Owned().Equal(owned) {
		t.Fatal("restriction lost across restored rebuild")
	}
}

// TestMutateOwned: ownership changes publish atomically with the topology
// they apply to, SetOwned(nil) lifts the restriction, and a failed mutation
// rolls the ownership back with the graph.
func TestMutateOwned(t *testing.T) {
	const n = 100
	g := sparseGraph(t, n, 17)
	eng, err := NewTieredEngine(g, "landmark")
	if err != nil {
		t.Fatal(err)
	}
	owned := halfOwned(t, n)
	snap, err := eng.SetOwned(owned)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Owned() == nil || !snap.Owned().Equal(owned) {
		t.Fatalf("owned after SetOwned = %v", snap.Owned())
	}
	failErr := errors.New("boom")
	if _, err := eng.MutateOwned(nil, func(*graph.Graph) error { return failErr }); !errors.Is(err, failErr) {
		t.Fatalf("mutation error = %v", err)
	}
	if got := eng.Owned(); got == nil || !got.Equal(owned) {
		t.Fatalf("failed MutateOwned changed ownership to %v", got)
	}
	snap, err = eng.SetOwned(nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Owned() != nil {
		t.Fatal("SetOwned(nil) left a restriction")
	}
}

// TestIncrementalRebuilds: a one-edge Mutate on a tables-tier engine updates
// the previous scheme instead of building it, publishes the tables a fresh
// engine builds, and moves serve_rebuilds_incremental. A two-edge Mutate, an
// ownership handover and a refused disconnecting flip leave that gauge alone.
func TestIncrementalRebuilds(t *testing.T) {
	const n = 120
	g := sparseGraph(t, n, 5)
	// Make z a pendant node, hung on one edge to pendant, for the refused
	// flip at the end.
	z, pendant := 0, 0
	for u := n; u > 1 && z == 0; u-- {
		h := g.Clone()
		nb := h.Neighbors(u)
		for _, w := range nb[1:] {
			if err := h.RemoveEdge(u, w); err != nil {
				t.Fatal(err)
			}
		}
		if h.IsConnected() {
			g, z, pendant = h, u, nb[0]
		}
	}
	if z == 0 {
		t.Fatal("no node can be made pendant")
	}
	eng, err := NewShardEngine(g, "landmark", TierTables, halfOwned(t, n))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, ServerOptions{Shards: 1, StretchSampleEvery: -1})
	defer srv.Close()
	check := func(step string, wantInc, wantFull uint64) {
		t.Helper()
		inc, full := eng.Rebuilds()
		if inc != wantInc || full != wantFull {
			t.Fatalf("%s: rebuilds = %d incremental, %d full; want %d, %d", step, inc, full, wantInc, wantFull)
		}
		if got := srv.Metrics().Snapshot().Gauges["serve_rebuilds_incremental"]; got != int64(wantInc) {
			t.Fatalf("%s: serve_rebuilds_incremental = %d, want %d", step, got, wantInc)
		}
		cur := eng.Current()
		ref, err := NewShardEngine(cur.Graph, "landmark", TierTables, cur.Owned())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cur.TablesBytes(), ref.Current().TablesBytes()) {
			t.Fatalf("%s: published tables differ from a full build", step)
		}
	}
	check("first build", 0, 1)

	absent := func(g *graph.Graph) (int, int) {
		for v := 2; v <= n; v++ {
			if v != z && !g.HasEdge(1, v) {
				return 1, v
			}
		}
		t.Fatal("node 1 is adjacent to every node")
		return 0, 0
	}
	x, y := absent(eng.Current().Graph)
	if _, err := eng.Mutate(func(g *graph.Graph) error { return g.AddEdge(x, y) }); err != nil {
		t.Fatal(err)
	}
	check("one-edge add", 1, 1)
	if _, err := eng.Mutate(func(g *graph.Graph) error { return g.RemoveEdge(x, y) }); err != nil {
		t.Fatal(err)
	}
	check("one-edge remove", 2, 1)

	if _, err := eng.Mutate(func(g *graph.Graph) error {
		for i := 0; i < 2; i++ {
			if err := g.AddEdge(absent(g)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	check("two-edge mutate", 2, 2)

	even, err := keyspace.New(n)
	if err != nil {
		t.Fatal(err)
	}
	for u := 2; u <= n; u += 2 {
		even.Add(u)
	}
	if _, err := eng.SetOwned(even); err != nil {
		t.Fatal(err)
	}
	check("set owned", 2, 3)

	// Flip away the only edge of pendant node z.
	if _, err := eng.Mutate(func(g *graph.Graph) error { return g.RemoveEdge(z, pendant) }); err == nil {
		t.Fatal("disconnecting flip published")
	}
	check("refused disconnecting flip", 2, 3)
}

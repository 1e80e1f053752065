package cluster

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"routetab/internal/gengraph"
	"routetab/internal/graph"
	"routetab/internal/schemes/fulltable"
	"routetab/internal/serve"
)

func testGraph(t *testing.T, n int, seed int64) *graph.Graph {
	t.Helper()
	g, err := gengraph.GnHalf(n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// testPrimary builds a full primary stack over G(n, 1/2).
func testPrimary(t *testing.T, n int, seed int64) *Primary {
	t.Helper()
	eng, err := serve.NewEngine(testGraph(t, n, seed), "fulltable")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(eng, serve.ServerOptions{})
	rep := serve.NewRepairer(srv, serve.RepairOptions{Debounce: -1})
	p, err := NewPrimary(eng, srv, rep, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		p.Close()
		rep.Close()
		srv.Close()
	})
	return p
}

// testTablesPrimary builds a tables-tier (landmark) mutate-only primary over
// a sparse topology — the large-graph regime where no all-pairs matrix is
// ever materialised.
func testTablesPrimary(t *testing.T, n int, seed int64) *Primary {
	t.Helper()
	g, err := gengraph.SparseConnected(n, 5, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := serve.NewTieredEngine(g, "landmark")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(eng, serve.ServerOptions{})
	p, err := NewPrimary(eng, srv, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		p.Close()
		srv.Close()
	})
	return p
}

// absentEdge returns an edge missing from the primary's current topology —
// toggling it add/remove can never disconnect the graph, which a landmark
// rebuild would refuse.
func absentEdge(t *testing.T, p *Primary) [2]int {
	t.Helper()
	g := p.Engine().Current().Graph
	for w := 3; w <= g.N(); w++ {
		if !g.HasEdge(1, w) {
			return [2]int{1, w}
		}
	}
	t.Fatal("no absent edge around node 1")
	return [2]int{}
}

func toggleEdge(t *testing.T, p *Primary, e [2]int) {
	t.Helper()
	if _, err := p.Mutate(func(g *graph.Graph) error {
		if g.HasEdge(e[0], e[1]) {
			return g.RemoveEdge(e[0], e[1])
		}
		return g.AddEdge(e[0], e[1])
	}); err != nil {
		t.Fatal(err)
	}
}

// TestTablesTierReplicaFollowsMutations: a tables-tier replica replays edge
// diffs through its own landmark rebuilds, every record carries the
// scheme-table flavour and CRC, and convergence means byte-identical encoded
// tables.
func TestTablesTierReplicaFollowsMutations(t *testing.T) {
	p := testTablesPrimary(t, 64, 3)
	if tier := p.Engine().Tier(); tier != serve.TierTables {
		t.Fatalf("tier = %q, want %q", tier, serve.TierTables)
	}
	r, err := JoinReplica(p, ReplicaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	requireConverged(t, p, r)

	e := absentEdge(t, p)
	for i := 0; i < 5; i++ {
		toggleEdge(t, p, e)
		syncOK(t, r)
		requireConverged(t, p, r)
	}
	applied, resyncs, _ := r.Stats()
	if applied != 5 || resyncs != 0 {
		t.Fatalf("applied=%d resyncs=%d, want 5/0", applied, resyncs)
	}
	// Each one-edge record is updated incrementally on both sides; the
	// replica starts from tables it decoded when it joined.
	for name, eng := range map[string]*serve.Engine{"primary": p.Engine(), "replica": r.Engine()} {
		if inc, _ := eng.Rebuilds(); inc != 5 {
			t.Fatalf("%s: %d incremental rebuilds, want 5", name, inc)
		}
	}

	// Every publish record must be the tables flavour, fingerprinting the
	// encoded scheme tables (not a matrix the tier never built).
	recs, err := p.Log().Since(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("WAL has %d records, want 5", len(recs))
	}
	for _, rec := range recs {
		if rec.Kind != RecPublishTables {
			t.Fatalf("record %d kind %v, want %v", rec.Seq, rec.Kind, RecPublishTables)
		}
	}
	want := TablesCRC(p.Engine().Current().TablesBytes())
	if got := recs[len(recs)-1].DistCRC; got != want {
		t.Fatalf("last record CRC %08x, want tables CRC %08x", got, want)
	}

	// The digest must carry the tier and the scheme-table CRC.
	d, err := p.FetchDigest()
	if err != nil {
		t.Fatal(err)
	}
	if d.Tier != serve.TierTables || d.StateCRC != want {
		t.Fatalf("digest %+v, want tier=%q crc=%08x", d, serve.TierTables, want)
	}
}

// TestTablesTierResyncAfterTruncation: a lagging tables-tier replica falls
// back to a tables-tier full state fetch and still converges byte-identically.
func TestTablesTierResyncAfterTruncation(t *testing.T) {
	p := testTablesPrimary(t, 48, 11)
	r, err := JoinReplica(p, ReplicaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	e := absentEdge(t, p)
	for i := 0; i < 3; i++ {
		toggleEdge(t, p, e)
	}
	p.Log().TruncateTo(p.Log().LastSeq())
	syncOK(t, r)
	requireConverged(t, p, r)
	if _, resyncs, _ := r.Stats(); resyncs != 1 {
		t.Fatalf("resyncs = %d, want 1", resyncs)
	}
}

// TestTablesTierPromotion: a tables-tier replica promotes to primary under a
// bumped epoch and its peers resync against it.
func TestTablesTierPromotion(t *testing.T) {
	p := testTablesPrimary(t, 48, 17)
	r0, err := JoinReplica(p, ReplicaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := JoinReplica(p, ReplicaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()

	e := absentEdge(t, p)
	toggleEdge(t, p, e)
	syncOK(t, r0)
	syncOK(t, r1)

	// Kill the primary; promote r0.
	p.Close()
	np, err := r0.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		np.Close()
		r0.rep.Close()
		r0.srv.Close()
	}()
	if np.Epoch() != 2 {
		t.Fatalf("promoted epoch %d, want 2", np.Epoch())
	}
	// Re-point the surviving replica and converge on the new primary.
	r1.src = np
	toggleEdge(t, np, e)
	syncOK(t, r1)
	requireConverged(t, np, r1)
	if _, resyncs, _ := r1.Stats(); resyncs != 1 {
		t.Fatalf("resyncs = %d, want 1 (epoch change)", resyncs)
	}
}

// TestVerifyPublishTierMismatch: a publish record of the wrong flavour for
// the replaying engine's tier is a contract violation, as is a CRC mismatch.
func TestVerifyPublishTierMismatch(t *testing.T) {
	tp := testTablesPrimary(t, 48, 23)
	tablesSnap := tp.Engine().Current()
	fp := testPrimary(t, 16, 23)
	fullSnap := fp.Engine().Current()

	if err := verifyPublish(Record{Kind: RecPublish, SnapSeq: tablesSnap.Seq}, tablesSnap); err == nil {
		t.Fatal("full-tier record accepted on a tables-tier engine")
	}
	if err := verifyPublish(Record{Kind: RecPublishTables, SnapSeq: fullSnap.Seq}, fullSnap); err == nil {
		t.Fatal("tables record accepted on a full-tier engine")
	}
	good := Record{Kind: RecPublishTables, SnapSeq: tablesSnap.Seq, DistCRC: TablesCRC(tablesSnap.TablesBytes())}
	if err := verifyPublish(good, tablesSnap); err != nil {
		t.Fatalf("matching record rejected: %v", err)
	}
	good.DistCRC++
	if err := verifyPublish(good, tablesSnap); err == nil {
		t.Fatal("CRC mismatch accepted")
	}
}

func buildTestState(t *testing.T) *State {
	t.Helper()
	p := testPrimary(t, 24, 7)
	if err := p.SetLinkDown(1, 2, true); err != nil {
		t.Fatal(err)
	}
	if err := p.SetNodeDown(5, true); err != nil {
		t.Fatal(err)
	}
	st, err := p.FetchState()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func syncOK(t *testing.T, r *Replica) {
	t.Helper()
	if err := r.Sync(); err != nil {
		t.Fatal(err)
	}
}

func requireConverged(t *testing.T, p *Primary, replicas ...*Replica) {
	t.Helper()
	ok, ds, err := CheckEntropy(p, replicas...)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("digests diverge: %v", ds)
	}
	// Digest agreement must mean byte-identical tables; double-check the
	// actual state bytes, not just their CRC: the packed matrix on the full
	// tier, the encoded scheme tables on the tables tier.
	want := stateBytes(p.Engine().Current())
	for i, r := range replicas {
		got := stateBytes(r.Engine().Current())
		if len(got) != len(want) {
			t.Fatalf("replica %d state length %d, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("replica %d diverges at state byte %d", i, j)
			}
		}
	}
}

func stateBytes(s *serve.Snapshot) []byte {
	if s.Dist == nil {
		return s.TablesBytes()
	}
	return s.Dist.Packed()
}

func TestReplicaFollowsMutations(t *testing.T) {
	p := testPrimary(t, 32, 3)
	r, err := JoinReplica(p, ReplicaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	requireConverged(t, p, r)

	for i := 0; i < 5; i++ {
		if _, err := p.Mutate(func(g *graph.Graph) error {
			if g.HasEdge(1, 2) {
				return g.RemoveEdge(1, 2)
			}
			return g.AddEdge(1, 2)
		}); err != nil {
			t.Fatal(err)
		}
		syncOK(t, r)
		requireConverged(t, p, r)
	}
	applied, resyncs, _ := r.Stats()
	if applied != 5 || resyncs != 0 {
		t.Fatalf("applied=%d resyncs=%d, want 5/0", applied, resyncs)
	}
}

// TestFullTierIncrementalRebuilds: a one-edge Mutate on a full-tier primary
// updates the matrix and the fulltable rows from the previous snapshot's,
// on the primary and on the replica replaying its record, and moves
// serve_rebuilds_incremental on both. Each publication carries the arena
// bytes, DistCRC and table rows a fresh engine builds. A two-edge Mutate
// builds in full and leaves the gauge alone.
func TestFullTierIncrementalRebuilds(t *testing.T) {
	p := testPrimary(t, 48, 11)
	r, err := JoinReplica(p, ReplicaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	members := []struct {
		name string
		eng  *serve.Engine
		srv  *serve.Server
	}{{"primary", p.Engine(), p.Server()}, {"replica", r.Engine(), r.Server()}}
	check := func(step string, wantInc uint64) {
		t.Helper()
		syncOK(t, r)
		requireConverged(t, p, r)
		for _, m := range members {
			if inc, _ := m.eng.Rebuilds(); inc != wantInc {
				t.Fatalf("%s: %s: %d incremental rebuilds, want %d", step, m.name, inc, wantInc)
			}
			if got := m.srv.Metrics().Snapshot().Gauges["serve_rebuilds_incremental"]; got != int64(wantInc) {
				t.Fatalf("%s: %s: serve_rebuilds_incremental = %d, want %d", step, m.name, got, wantInc)
			}
			cur := m.eng.Current()
			ref, err := serve.NewEngine(cur.Graph, "fulltable")
			if err != nil {
				t.Fatal(err)
			}
			want := ref.Current()
			arena := func(s *serve.Snapshot) []byte {
				return serve.EncodeArena(&serve.SnapshotData{
					Seq: cur.Seq, Scheme: s.Scheme, Graph: s.Graph, Dist: s.Dist,
				})
			}
			if !bytes.Equal(arena(cur), arena(want)) {
				t.Fatalf("%s: %s: arena bytes differ from a fresh engine's", step, m.name)
			}
			if DistCRC(cur.Dist) != DistCRC(want.Dist) {
				t.Fatalf("%s: %s: DistCRC %08x, fresh engine %08x", step, m.name, DistCRC(cur.Dist), DistCRC(want.Dist))
			}
			got, wantScheme := cur.SchemeImpl().(*fulltable.Scheme), want.SchemeImpl().(*fulltable.Scheme)
			for u := 1; u <= cur.N(); u++ {
				ge, _, err := got.EncodedRow(u)
				if err != nil {
					t.Fatal(err)
				}
				we, _, err := wantScheme.EncodedRow(u)
				if err != nil {
					t.Fatal(err)
				}
				if ge.Len() != we.Len() || !bytes.Equal(ge.Bytes(), we.Bytes()) {
					t.Fatalf("%s: %s: table row %d differs from a fresh engine's", step, m.name, u)
				}
			}
		}
	}
	check("join", 0)
	e := absentEdge(t, p)
	toggleEdge(t, p, e)
	check("one-edge add", 1)
	toggleEdge(t, p, e)
	check("one-edge remove", 2)
	if _, err := p.Mutate(func(g *graph.Graph) error {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return err
		}
		if g.HasEdge(2, 3) {
			return g.RemoveEdge(2, 3)
		}
		return g.AddEdge(2, 3)
	}); err != nil {
		t.Fatal(err)
	}
	check("two-edge mutate", 2)
}

func TestReplicaFollowsChurnRepair(t *testing.T) {
	p := testPrimary(t, 32, 5)
	r, err := JoinReplica(p, ReplicaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Fail a link: primary's repairer (Debounce -1) rebuilds synchronously,
	// so the WAL carries both the overlay record and the publish record.
	if err := p.SetLinkDown(3, 4, true); err != nil {
		t.Fatal(err)
	}
	if err := p.rep.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := p.SetNodeDown(9, true); err != nil {
		t.Fatal(err)
	}
	syncOK(t, r)
	requireConverged(t, p, r)

	// The replica's overlay must agree with the primary's.
	links, nodes := r.rep.DownState()
	wantLinks, wantNodes := p.rep.DownState()
	if len(links) != len(wantLinks) || len(nodes) != len(wantNodes) {
		t.Fatalf("overlay mismatch: replica %v/%v, primary %v/%v", links, nodes, wantLinks, wantNodes)
	}

	// Heal and verify the overlay drains on both sides.
	if err := p.SetLinkDown(3, 4, false); err != nil {
		t.Fatal(err)
	}
	if err := p.SetNodeDown(9, false); err != nil {
		t.Fatal(err)
	}
	if err := p.rep.Flush(); err != nil {
		t.Fatal(err)
	}
	syncOK(t, r)
	requireConverged(t, p, r)
	if links, nodes := r.rep.DownState(); len(links) != 0 || len(nodes) != 0 {
		t.Fatalf("replica overlay not drained: %v / %v", links, nodes)
	}
}

func TestReplicaResyncAfterTruncation(t *testing.T) {
	p := testPrimary(t, 24, 11)
	r, err := JoinReplica(p, ReplicaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	for i := 0; i < 3; i++ {
		if _, err := p.Mutate(func(g *graph.Graph) error {
			if g.HasEdge(1, 3) {
				return g.RemoveEdge(1, 3)
			}
			return g.AddEdge(1, 3)
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Truncate past the replica's position: Sync must fall back to a full
	// state fetch and still converge.
	p.Log().TruncateTo(p.Log().LastSeq())
	syncOK(t, r)
	requireConverged(t, p, r)
	if _, resyncs, _ := r.Stats(); resyncs != 1 {
		t.Fatalf("resyncs = %d, want 1", resyncs)
	}
}

// corruptingSource wraps a Source and corrupts the encoded WAL stream once:
// the batch is encoded, bit-flipped, and decoded, so the replica exercises
// the real codec rejection path end to end.
type corruptingSource struct {
	Source
	mu      sync.Mutex
	corrupt bool
}

func (c *corruptingSource) FetchWAL(ctx context.Context, after uint64) (*WALBatch, error) {
	b, err := c.Source.FetchWAL(ctx, after)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	doCorrupt := c.corrupt && len(b.Records) > 0
	c.corrupt = false
	c.mu.Unlock()
	if !doCorrupt {
		return b, nil
	}
	return nil, roundTripCorrupt(b)
}

func roundTripCorrupt(b *WALBatch) error {
	var buf bytes.Buffer
	if err := EncodeWALBatch(&buf, b); err != nil {
		return err
	}
	raw := buf.Bytes()
	raw[len(raw)/2] ^= 0x10
	if _, err := DecodeWALBatch(bytes.NewReader(raw)); err == nil {
		return errors.New("corrupted batch decoded cleanly")
	}
	return ErrBadRecord
}

func TestReplicaResyncAfterCorruption(t *testing.T) {
	p := testPrimary(t, 24, 13)
	cs := &corruptingSource{Source: p}
	r, err := JoinReplica(cs, ReplicaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if _, err := p.Mutate(func(g *graph.Graph) error {
		if g.HasEdge(2, 5) {
			return g.RemoveEdge(2, 5)
		}
		return g.AddEdge(2, 5)
	}); err != nil {
		t.Fatal(err)
	}
	cs.mu.Lock()
	cs.corrupt = true
	cs.mu.Unlock()
	syncOK(t, r)
	requireConverged(t, p, r)
	if _, resyncs, _ := r.Stats(); resyncs != 1 {
		t.Fatalf("resyncs = %d, want 1 (corruption fallback)", resyncs)
	}
}

func TestPromotionBumpsEpochAndResyncsPeers(t *testing.T) {
	p := testPrimary(t, 24, 17)
	r1, err := JoinReplica(p, ReplicaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := JoinReplica(p, ReplicaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()

	if _, err := p.Mutate(func(g *graph.Graph) error { return g.RemoveEdge(mustEdge(t, p)) }); err != nil {
		t.Fatal(err)
	}
	syncOK(t, r1)
	syncOK(t, r2)

	// Kill the primary; promote r1.
	p.Close()
	np, err := r1.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		np.Close()
		r1.rep.Close()
		r1.srv.Close()
	}()
	if np.Epoch() != 2 {
		t.Fatalf("promoted epoch %d, want 2", np.Epoch())
	}

	// r2 now follows the new primary; the epoch change forces a resync.
	r2.src = np
	if _, err := np.Mutate(func(g *graph.Graph) error { return g.AddEdge(mustMissingEdge(t, np)) }); err != nil {
		t.Fatal(err)
	}
	syncOK(t, r2)
	requireConverged(t, np, r2)
	if r2.Epoch() != 2 {
		t.Fatalf("follower epoch %d after promotion, want 2", r2.Epoch())
	}
	if _, resyncs, _ := r2.Stats(); resyncs != 1 {
		t.Fatalf("resyncs = %d, want 1 (epoch change)", resyncs)
	}

	// The promoted member keeps serving and mutating.
	res := np.Server().NextHop(1, 9)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
}

func mustEdge(t *testing.T, p *Primary) (int, int) {
	t.Helper()
	edges := p.Engine().Current().Graph.Edges()
	if len(edges) == 0 {
		t.Fatal("no edges")
	}
	e := edges[len(edges)/2]
	return e[0], e[1]
}

func mustMissingEdge(t *testing.T, p *Primary) (int, int) {
	t.Helper()
	g := p.Engine().Current().Graph
	n := g.N()
	for u := 1; u <= n; u++ {
		for v := u + 1; v <= n; v++ {
			if !g.HasEdge(u, v) {
				return u, v
			}
		}
	}
	t.Fatal("complete graph")
	return 0, 0
}

// TestJoinDuringChurn pins the bootstrap race: a replica that joins while
// the primary is publishing must converge via idempotent replay, never
// diverge.
func TestJoinDuringChurn(t *testing.T) {
	p := testPrimary(t, 24, 19)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = p.Mutate(func(g *graph.Graph) error {
				if g.HasEdge(1, 2) {
					return g.RemoveEdge(1, 2)
				}
				return g.AddEdge(1, 2)
			})
		}
	}()

	for i := 0; i < 4; i++ {
		r, err := JoinReplica(p, ReplicaOptions{})
		if err != nil {
			t.Fatal(err)
		}
		syncOK(t, r)
		r.Close()
	}
	close(stop)
	wg.Wait()

	r, err := JoinReplica(p, ReplicaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	syncOK(t, r)
	requireConverged(t, p, r)
}

func TestReplicaServesWhileSourceUnreachable(t *testing.T) {
	p := testPrimary(t, 24, 23)
	gs := &gatedSource{Source: p}
	r, err := JoinReplica(gs, ReplicaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	gs.setDown(true)
	if err := r.Sync(); err == nil {
		t.Fatal("sync through a partition succeeded")
	}
	// Still answering from last applied state.
	res := r.Server().NextHop(1, 9)
	if res.Err != nil {
		t.Fatalf("partitioned replica stopped serving: %v", res.Err)
	}

	// Primary moves on; heal; replica catches up.
	if _, err := p.Mutate(func(g *graph.Graph) error { return g.RemoveEdge(mustEdge(t, p)) }); err != nil {
		t.Fatal(err)
	}
	gs.setDown(false)
	syncOK(t, r)
	requireConverged(t, p, r)
}

// gatedSource simulates a network partition between a replica and its
// source: while down, every fetch fails with a transport error.
type gatedSource struct {
	Source
	mu   sync.Mutex
	down bool
}

var errPartitioned = errors.New("cluster_test: partitioned")

func (g *gatedSource) setDown(d bool) {
	g.mu.Lock()
	g.down = d
	g.mu.Unlock()
}

func (g *gatedSource) isDown() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.down
}

func (g *gatedSource) FetchState() (*State, error) {
	if g.isDown() {
		return nil, errPartitioned
	}
	return g.Source.FetchState()
}

func (g *gatedSource) FetchWAL(ctx context.Context, after uint64) (*WALBatch, error) {
	if g.isDown() {
		return nil, errPartitioned
	}
	return g.Source.FetchWAL(ctx, after)
}

func (g *gatedSource) FetchDigest() (Digest, error) {
	if g.isDown() {
		return Digest{}, errPartitioned
	}
	return g.Source.FetchDigest()
}

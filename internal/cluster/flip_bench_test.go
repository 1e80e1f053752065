package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"routetab/internal/gengraph"
	"routetab/internal/graph"
	"routetab/internal/keyspace"
	"routetab/internal/serve"
)

// BenchmarkTablesFlip times one Primary.Mutate on a landmark tables-tier
// engine that owns the lower half of the nodes, as one churn-shard-n4096
// group primary does: the clone, the incremental update, NewSim, and the
// publish hook's graph.Diff and SnapshotCRC. The replica rows then have a
// Replica, joined to the primary, replay the flip's record before the next
// flip — its own clone, update and NewSim, and verifyPublish — as a fresh
// snapshot waits on it. The graph is SparseConnected(n, 8) at seed 1 and
// the flips follow perfbench's mixed schedule, played forward and then
// undone in reverse, so every state is connected and every flip takes the
// update path. `make flipbench` runs it at -cpu 1.
func BenchmarkTablesFlip(b *testing.B) {
	for _, n := range []int{4096, 16384} {
		for _, replica := range []bool{false, true} {
			name := fmt.Sprintf("n=%d", n)
			if replica {
				name += "/replica"
			}
			b.Run(name, func(b *testing.B) { benchTablesFlip(b, n, replica) })
		}
	}
}

func benchTablesFlip(b *testing.B, n int, replica bool) {
	rng := rand.New(rand.NewSource(1))
	g, err := gengraph.SparseConnected(n, 8, rng)
	if err != nil {
		b.Fatal(err)
	}
	sched, err := mixedSchedule(g, 32, rng)
	if err != nil {
		b.Fatal(err)
	}
	owned, err := keyspace.New(n)
	if err != nil {
		b.Fatal(err)
	}
	for u := 1; u <= n/2; u++ {
		owned.Add(u)
	}
	eng, err := serve.NewShardEngine(g, "landmark", serve.TierTables, owned)
	if err != nil {
		b.Fatal(err)
	}
	srv := serve.NewServer(eng, serve.ServerOptions{})
	defer srv.Close()
	p, err := NewPrimary(eng, srv, nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	var r *Replica
	if replica {
		if r, err = JoinReplica(p, ReplicaOptions{}); err != nil {
			b.Fatal(err)
		}
		defer r.Close()
	}
	inc0, _ := eng.Rebuilds()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Forward through the schedule, then back through its inverses.
		k, undo := i%len(sched), i/len(sched)%2 == 1
		if undo {
			k = len(sched) - 1 - k
		}
		f := sched[k]
		snap, err := p.Mutate(func(g *graph.Graph) error {
			if f.add != undo {
				return g.AddEdge(f.u, f.v)
			}
			return g.RemoveEdge(f.u, f.v)
		})
		if err != nil {
			b.Fatal(err)
		}
		if r != nil {
			if err := r.Sync(); err != nil {
				b.Fatal(err)
			}
			if seq := r.Engine().Current().Seq; seq != snap.Seq {
				b.Fatalf("replica serves snap %d after the flip to %d", seq, snap.Seq)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
	if inc, _ := eng.Rebuilds(); inc-inc0 != uint64(b.N) {
		b.Fatalf("%d of %d flips took the update path", inc-inc0, b.N)
	}
	if r != nil {
		if _, resyncs, _ := r.Stats(); resyncs != 0 {
			b.Fatalf("replica resynced %d times", resyncs)
		}
		if inc, _ := r.Engine().Rebuilds(); inc != uint64(b.N) {
			b.Fatalf("%d of %d replayed flips took the update path", inc, b.N)
		}
	}
}

// schedFlip toggles {u,v}: an addition when add is set, else a removal.
type schedFlip struct {
	u, v int
	add  bool
}

// mixedSchedule draws count flips the way perfbench's schedules do, on a
// clone of g: with equal odds the addition of an absent pair, or the removal
// of an edge at a random node of degree at least 2, whose other end has
// degree at least 2 and whose loss keeps the graph connected.
func mixedSchedule(g *graph.Graph, count int, rng *rand.Rand) ([]schedFlip, error) {
	mirror := g.Clone()
	n := mirror.N()
	sched := make([]schedFlip, 0, count)
	for len(sched) < count {
		u, v := rng.Intn(n)+1, rng.Intn(n)+1
		if u == v {
			continue
		}
		add := rng.Intn(2) == 0
		if add {
			if mirror.HasEdge(u, v) {
				continue
			}
			if err := mirror.AddEdge(u, v); err != nil {
				return nil, err
			}
		} else {
			nb := mirror.Neighbors(u)
			if len(nb) < 2 {
				continue
			}
			if v = nb[rng.Intn(len(nb))]; mirror.Degree(v) < 2 {
				continue
			}
			if err := mirror.RemoveEdge(u, v); err != nil {
				return nil, err
			}
			if !mirror.IsConnected() {
				if err := mirror.AddEdge(u, v); err != nil {
					return nil, err
				}
				continue
			}
		}
		sched = append(sched, schedFlip{u: u, v: v, add: add})
	}
	return sched, nil
}

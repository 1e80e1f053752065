package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"routetab/internal/cluster"
	"routetab/internal/cluster/shard"
	"routetab/internal/graph"
	"routetab/internal/keyspace"
	"routetab/internal/routing"
	"routetab/internal/serve"
	"routetab/internal/serve/spotgrade"
)

const (
	shardGroups = 2
	// gradeEvery: the spot grader verifies about one answer in gradeEvery
	// against BFS ground truth.
	gradeEvery = 16
)

// shardSystem is the partitioned tables-tier cluster: landmark tables,
// shardGroups groups of a primary plus one replica, lookups through the
// scatter-gather front in-process.
type shardSystem struct {
	c       *shard.Cluster
	m       *shard.Map
	prim    []*cluster.Primary
	reps    []*cluster.Replica
	graders []*spotgrade.Grader
	owned0  *keyspace.Set
	// attempts counts member-backend lookups in traced runs, to derive the
	// front's extra attempts per key.
	attempts atomic.Int64

	gpairs [][][2]int
	gout   [][]serve.Result
	sink   int
}

// countingBackend counts the lookups the group routers send to a member.
type countingBackend struct {
	cluster.Backend
	n *atomic.Int64
}

func (b countingBackend) Lookup(src, dst int) (serve.Result, error) {
	b.n.Add(1)
	return b.Backend.Lookup(src, dst)
}

func setupShard(g *graph.Graph, cfg config) (system, error) {
	m, err := shard.NewUniform(g.N(), shardGroups)
	if err != nil {
		return nil, err
	}
	s := &shardSystem{m: m}
	opts := shard.ClusterOptions{
		Replicas:      1,
		StartReplicas: true,
		Front:         shard.RouterOptions{Seed: cfg.seed},
	}
	if cfg.trace {
		opts.WrapBackend = func(_ int, _ string, b cluster.Backend) cluster.Backend {
			return countingBackend{Backend: b, n: &s.attempts}
		}
	}
	if s.c, err = shard.NewCluster(g, m, opts); err != nil {
		return nil, err
	}
	var out [1]serve.Result
	if err := s.c.Front().LookupBatch([][2]int{{1, 2}}, out[:]); err != nil || out[0].Err != nil {
		s.c.Close()
		return nil, fmt.Errorf("first lookup: %v %v", err, out[0].Err)
	}
	for _, id := range s.c.GroupIDs() {
		grp := s.c.Group(id)
		s.prim = append(s.prim, grp.Primary)
		s.reps = append(s.reps, grp.Replicas()...)
		s.graders = append(s.graders, spotgrade.New(grp.Primary.Engine(), spotgrade.Config{Seed: cfg.seed, SampleEvery: gradeEvery}))
		s.gpairs = append(s.gpairs, make([][2]int, 0, batchSize))
		s.gout = append(s.gout, make([]serve.Result, batchSize))
	}
	if s.owned0, err = m.OwnedSet(0); err != nil {
		s.c.Close()
		return nil, err
	}
	return s, nil
}

func (s *shardSystem) clients() int     { return 1 }
func (s *shardSystem) rootSpan() string { return "shard.front" }

func (s *shardSystem) lookup(_ int, pairs [][2]int, out []serve.Result) error {
	return s.c.Front().LookupBatch(pairs, out)
}

// replay splits the batch by Map.GroupFor and answers each part on its
// group primary's server, then through its snapshot's NextHop.
func (s *shardSystem) replay(tr *tracer, root int32, id int64, _ int, pairs [][2]int) {
	for g := range s.gpairs {
		s.gpairs[g] = s.gpairs[g][:0]
	}
	for _, p := range pairs {
		g := s.m.GroupFor(p[0])
		s.gpairs[g] = append(s.gpairs[g], p)
	}
	for g, gp := range s.gpairs {
		if len(gp) == 0 {
			continue
		}
		srv := s.prim[g].Server()
		t0 := time.Now()
		_ = srv.LookupBatch(gp, s.gout[g][:len(gp)]) // lengths match by construction
		t1 := time.Now()
		b := tr.add("serve.batch", id, root, len(gp), t0, t1)
		snap := s.prim[g].Engine().Current()
		t0 = time.Now()
		for _, p := range gp {
			next, _ := snap.NextHop(p[0], p[1])
			s.sink += next
		}
		tr.add("landmark.nexthop", id, b, len(gp), t0, time.Now())
	}
}

// prepare has nothing to precompute: the spot graders compute BFS ground
// truth on demand per sampled destination.
func (s *shardSystem) prepare(*graph.Graph, []flip) error { return nil }

func (s *shardSystem) grade(pairs [][2]int, out []serve.Result) (int, string) {
	before := s.violations()
	for i := range out {
		if out[i].Err != nil {
			continue
		}
		src, dst := pairs[i][0], pairs[i][1]
		s.graders[s.m.GroupFor(src)].Observe(src, dst, &out[i])
	}
	bad := int(s.violations() - before)
	if bad == 0 {
		return 0, ""
	}
	for _, gr := range s.graders {
		if err := gr.Err(); err != nil {
			return bad, err.Error()
		}
	}
	return bad, "spot grader violation"
}

func (s *shardSystem) violations() uint64 {
	var v uint64
	for _, gr := range s.graders {
		v += gr.Violations()
	}
	return v
}

func (s *shardSystem) mutate(f flip) ([]time.Time, uint64, error) {
	starts := make([]time.Time, 0, len(s.prim))
	err := s.c.Mutate(func(g *graph.Graph) error {
		starts = append(starts, time.Now())
		return f.apply(g)
	})
	if err != nil {
		return starts, 0, err
	}
	seq := s.prim[0].Engine().Current().Seq
	for _, p := range s.prim[1:] {
		if q := p.Engine().Current().Seq; q != seq {
			return starts, 0, fmt.Errorf("groups disagree on seq: %d vs %d", seq, q)
		}
	}
	return starts, seq, nil
}

func (s *shardSystem) stages(tr *tracer, root int32, id int64, g *graph.Graph) error {
	var (
		g2    *graph.Graph
		ports *graph.Ports
		ts    serve.TableScheme
	)
	steps := []struct {
		name string
		fn   func() error
	}{
		{"graph.clone", func() error { g2 = g.Clone(); return nil }},
		{"graph.ports", func() error { ports = graph.SortedPorts(g2); return nil }},
		{"landmark.build", func() (err error) { ts, err = serve.BuildTableScheme("landmark", g2, ports); return err }},
		{"landmark.restrict", func() error {
			r, ok := ts.(serve.Restricter)
			if !ok {
				return fmt.Errorf("landmark scheme cannot restrict")
			}
			return r.Restrict(s.owned0)
		}},
		{"landmark.encode", func() error { s.sink += len(ts.EncodeTables()); return nil }},
		{"routing.newsim", func() error { _, err := routing.NewSim(g2, ports, ts); return err }},
	}
	for _, st := range steps {
		if err := stage(tr, st.name, id, root, st.fn); err != nil {
			return err
		}
	}
	return nil
}

func (s *shardSystem) primaries() []*serve.Engine {
	out := make([]*serve.Engine, len(s.prim))
	for i, p := range s.prim {
		out[i] = p.Engine()
	}
	return out
}

func (s *shardSystem) replicas() []*cluster.Replica { return s.reps }

func (s *shardSystem) servers() []*serve.Server {
	var out []*serve.Server
	for _, p := range s.prim {
		out = append(out, p.Server())
	}
	for _, r := range s.reps {
		out = append(out, r.Server())
	}
	return out
}

func (s *shardSystem) converged() (bool, error) { return s.c.CheckEntropy() }

func (s *shardSystem) counters() map[string]float64 {
	var served, failed float64
	for _, st := range s.c.Front().Stats() {
		served += float64(st.Served)
		failed += float64(st.Failed)
	}
	var graded, stale float64
	for _, gr := range s.graders {
		graded += float64(gr.Graded())
		_, st, _ := gr.Skipped()
		stale += float64(st)
	}
	out := map[string]float64{
		"shard.failed_keys":    failed,
		"spotgrade.graded":     graded,
		"spotgrade.stale_skip": stale,
	}
	if a := float64(s.attempts.Load()); a > 0 {
		out["shard.retries"] = a - served - failed
	}
	return out
}

func (s *shardSystem) close() { s.c.Close() }

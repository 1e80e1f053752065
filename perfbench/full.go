package main

import (
	"fmt"
	"net"
	"time"

	"routetab/internal/cluster"
	"routetab/internal/graph"
	"routetab/internal/routing"
	"routetab/internal/serve"
	"routetab/internal/serve/wire"
	"routetab/internal/shortestpath"
)

// member is one full-tier serving seat: an engine and its server behind an
// RTBIN1 loopback listener, with the benchmark's client connection.
type member struct {
	eng    *serve.Engine
	srv    *serve.Server
	ws     *wire.Server
	cli    *wire.Client
	served chan error // the listener's Serve result
}

func startMember(eng *serve.Engine, srv *serve.Server, name string) (*member, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	m := &member{eng: eng, srv: srv, ws: wire.NewServer(srv), served: make(chan error, 1)}
	go func() { m.served <- m.ws.Serve(ln) }()
	if m.cli, err = wire.Dial(name, ln.Addr().String()); err != nil {
		m.close()
		return nil, err
	}
	// The stack counts as set up once it answers a lookup.
	var out [1]serve.Result
	if err := m.cli.Batch([][2]int{{1, 2}}, out[:]); err != nil {
		m.close()
		return nil, err
	}
	if out[0].Err != nil {
		m.close()
		return nil, fmt.Errorf("first lookup: %w", out[0].Err)
	}
	return m, nil
}

// close tears down the client and the listener; the server belongs to its
// owner (engine owner or replica).
func (m *member) close() {
	if m.cli != nil {
		m.cli.Close()
	}
	m.ws.Close()
	<-m.served
}

// truth is the ground truth for one published Seq.
type truth struct {
	g *graph.Graph
	d *shortestpath.Distances
}

// fullSystem serves G(256,½) with the fulltable scheme on the full tier:
// one engine (read-only workload) or a primary plus one replica.
type fullSystem struct {
	members []*member
	primary *cluster.Primary
	replica *cluster.Replica
	truths  map[uint64]truth
	scratch []serve.Result
	sink    int
}

func setupFull(g *graph.Graph, replicated bool) (*fullSystem, error) {
	eng, err := serve.NewEngine(g, "fulltable")
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(eng, serve.ServerOptions{})
	s := &fullSystem{scratch: make([]serve.Result, batchSize)}
	m, err := startMember(eng, srv, "primary")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s.members = append(s.members, m)
	if !replicated {
		return s, nil
	}
	if s.primary, err = cluster.NewPrimary(eng, srv, nil, 1); err != nil {
		s.close()
		return nil, err
	}
	if s.replica, err = cluster.JoinReplica(s.primary, cluster.ReplicaOptions{}); err != nil {
		s.close()
		return nil, err
	}
	rm, err := startMember(s.replica.Engine(), s.replica.Server(), "replica")
	if err != nil {
		s.close()
		return nil, err
	}
	s.members = append(s.members, rm)
	s.replica.Start()
	return s, nil
}

func (s *fullSystem) clients() int     { return len(s.members) }
func (s *fullSystem) rootSpan() string { return "wire.rtt" }

func (s *fullSystem) lookup(c int, pairs [][2]int, out []serve.Result) error {
	return s.members[c].cli.Batch(pairs, out)
}

func (s *fullSystem) replay(tr *tracer, root int32, id int64, c int, pairs [][2]int) {
	m := s.members[c]
	t0 := time.Now()
	_ = m.srv.LookupBatch(pairs, s.scratch[:len(pairs)]) // lengths match by construction
	t1 := time.Now()
	b := tr.add("serve.batch", id, root, len(pairs), t0, t1)
	snap := m.eng.Current()
	t0 = time.Now()
	for _, p := range pairs {
		next, _ := snap.NextHop(p[0], p[1])
		s.sink += next
	}
	tr.add("fulltable.nexthop", id, b, len(pairs), t0, time.Now())
}

func (s *fullSystem) prepare(g *graph.Graph, sched []flip) error {
	mirror := g.Clone()
	seq := s.members[0].eng.Current().Seq
	s.truths = make(map[uint64]truth, len(sched)+1)
	for k := 0; ; k++ {
		dm, err := shortestpath.AllPairs(mirror)
		if err != nil {
			return err
		}
		s.truths[seq+uint64(k)] = truth{g: mirror, d: dm}
		if k == len(sched) {
			return nil
		}
		mirror = mirror.Clone()
		if err := sched[k].apply(mirror); err != nil {
			return err
		}
	}
}

// grade checks each answer exactly against the snapshot of the Seq that
// answered it: the next hop is a neighbour of the source and one step
// closer to the destination.
func (s *fullSystem) grade(pairs [][2]int, out []serve.Result) (int, string) {
	bad, msg := 0, ""
	for i := range out {
		r := &out[i]
		if r.Err != nil {
			continue
		}
		src, dst := pairs[i][0], pairs[i][1]
		t, ok := s.truths[r.Seq]
		var why string
		switch {
		case !ok:
			why = fmt.Sprintf("answered from unknown seq %d", r.Seq)
		case r.Degraded:
			why = "degraded answer with no failure injected"
		case !t.g.HasEdge(src, r.Next):
			why = fmt.Sprintf("next hop %d is not a neighbour", r.Next)
		case t.d.Dist(r.Next, dst) != t.d.Dist(src, dst)-1:
			why = fmt.Sprintf("next hop %d is at distance %d, source at %d",
				r.Next, t.d.Dist(r.Next, dst), t.d.Dist(src, dst))
		default:
			continue
		}
		if bad == 0 {
			msg = fmt.Sprintf("lookup %d→%d (seq %d): %s", src, dst, r.Seq, why)
		}
		bad++
	}
	return bad, msg
}

func (s *fullSystem) mutate(f flip) ([]time.Time, uint64, error) {
	starts := []time.Time{time.Now()}
	var snap *serve.Snapshot
	var err error
	if s.primary != nil {
		snap, err = s.primary.Mutate(f.apply)
	} else {
		snap, err = s.members[0].eng.Mutate(f.apply)
	}
	if err != nil {
		return starts, 0, err
	}
	return starts, snap.Seq, nil
}

func (s *fullSystem) stages(tr *tracer, root int32, id int64, g *graph.Graph) error {
	var (
		g2    *graph.Graph
		ports *graph.Ports
		dm    *shortestpath.Distances
		sch   routing.Scheme
	)
	steps := []struct {
		name string
		fn   func() error
	}{
		{"graph.clone", func() error { g2 = g.Clone(); return nil }},
		{"graph.ports", func() error { ports = graph.SortedPorts(g2); return nil }},
		{"shortestpath.allpairs", func() (err error) { dm, err = shortestpath.AllPairs(g2); return err }},
		{"fulltable.build", func() (err error) { sch, err = serve.BuildScheme("fulltable", g2, ports, dm); return err }},
		{"routing.newsim", func() error { _, err := routing.NewSim(g2, ports, sch); return err }},
	}
	for _, st := range steps {
		if err := stage(tr, st.name, id, root, st.fn); err != nil {
			return err
		}
	}
	return nil
}

func (s *fullSystem) primaries() []*serve.Engine { return []*serve.Engine{s.members[0].eng} }

func (s *fullSystem) replicas() []*cluster.Replica {
	if s.replica == nil {
		return nil
	}
	return []*cluster.Replica{s.replica}
}

func (s *fullSystem) servers() []*serve.Server {
	out := make([]*serve.Server, len(s.members))
	for i, m := range s.members {
		out[i] = m.srv
	}
	return out
}

func (s *fullSystem) converged() (bool, error) {
	if s.replica == nil {
		return true, nil
	}
	ok, _, err := cluster.CheckEntropy(s.primary, s.replica)
	return ok, err
}

func (s *fullSystem) counters() map[string]float64 { return nil }

func (s *fullSystem) close() {
	for _, m := range s.members {
		m.close()
	}
	if s.replica != nil {
		s.replica.Close()
	}
	if s.primary != nil {
		s.primary.Close()
	}
	s.members[0].srv.Close()
}

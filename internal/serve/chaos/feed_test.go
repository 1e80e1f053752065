package chaos

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"routetab/internal/cluster"
	"routetab/internal/gengraph"
	"routetab/internal/graph"
	"routetab/internal/serve"
)

// enteringSource closes entered when the first FetchWAL that may wait (its
// ctx is live) reaches it, which is after chaosSource's gate check let the
// fetch through: the fetch is parked, or about to park.
type enteringSource struct {
	cluster.Source
	once    sync.Once
	entered chan struct{}
}

func (s *enteringSource) FetchWAL(ctx context.Context, after uint64) (*cluster.WALBatch, error) {
	if ctx.Err() == nil {
		s.once.Do(func() { close(s.entered) })
	}
	return s.Source.FetchWAL(ctx, after)
}

// fetchLog records when each FetchWAL through it started and ended, and its
// error.
type fetchLog struct {
	cluster.Source
	mu    sync.Mutex
	calls []fetchCall
}

type fetchCall struct {
	start, end time.Time
	err        error
}

func (f *fetchLog) FetchWAL(ctx context.Context, after uint64) (*cluster.WALBatch, error) {
	start := time.Now()
	b, err := f.Source.FetchWAL(ctx, after)
	f.mu.Lock()
	f.calls = append(f.calls, fetchCall{start, time.Now(), err})
	f.mu.Unlock()
	return b, err
}

func (f *fetchLog) snapshot() []fetchCall {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]fetchCall(nil), f.calls...)
}

// TestPartitionDropsParkedFetch: the gate comes down while the replica's
// fetch is parked on the primary, then the primary appends. The woken fetch
// must drop the record (a partition leaks nothing), the replica must back
// off instead of re-fetching at once, and after the heal it converges.
func TestPartitionDropsParkedFetch(t *testing.T) {
	g, err := gengraph.GnHalf(24, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := serve.NewEngine(g, "fulltable")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(eng, serve.ServerOptions{})
	defer srv.Close()
	p, err := cluster.NewPrimary(eng, srv, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	inner := &enteringSource{Source: p, entered: make(chan struct{})}
	cs := &chaosSource{target: inner, gate: &gate{}}
	fl := &fetchLog{Source: cs}
	r, err := cluster.JoinReplica(fl, cluster.ReplicaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	snap0, seq0 := r.Engine().Current().Seq, r.WalSeq()
	r.Start()

	<-inner.entered
	cs.gate.down.Store(true)
	if _, err := p.Mutate(func(gr *graph.Graph) error {
		for w := 3; w <= gr.N(); w++ {
			if !gr.HasEdge(1, w) {
				return gr.AddEdge(1, w)
			}
		}
		return errors.New("node 1 has no absent edge")
	}); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for len(fl.snapshot()) < 4 {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the replica's retries")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if applied, _, _ := r.Stats(); applied != 0 || r.WalSeq() != seq0 || r.Engine().Current().Seq != snap0 {
		t.Fatalf("partitioned replica applied %d records (wal %d→%d, snap %d→%d)",
			applied, seq0, r.WalSeq(), snap0, r.Engine().Current().Seq)
	}
	calls := fl.snapshot()
	for i, c := range calls[:4] {
		if !errors.Is(c.err, errUnreachable) {
			t.Fatalf("fetch %d err = %v, want errUnreachable", i, c.err)
		}
	}
	// Backoff: the k-th retry waits at least 0.75·2^k times the 2 ms base.
	// Slowness only lengthens the gaps, so the lower bounds are exact.
	for k := 1; k <= 3; k++ {
		gap := calls[k].start.Sub(calls[k-1].end)
		if min := time.Duration(3<<(k-1)) * time.Millisecond; gap < min {
			t.Fatalf("retry %d came %v after the failure, want ≥ %v", k, gap, min)
		}
	}

	cs.gate.down.Store(false)
	want := p.Log().LastSeq()
	for r.WalSeq() != want {
		if time.Now().After(deadline) {
			t.Fatalf("healed replica stuck at wal %d, want %d", r.WalSeq(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
	pd, err := p.FetchDigest()
	if err != nil {
		t.Fatal(err)
	}
	if d := r.Digest(); d != pd {
		t.Fatalf("healed replica digest %+v, primary %+v", d, pd)
	}
}

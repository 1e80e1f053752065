package shard

import (
	"context"
	"testing"
	"time"

	"routetab/internal/cluster"
	"routetab/internal/graph"
	"routetab/internal/serve"
)

// enteringSource closes entered when its first FetchWAL reaches the inner
// source, so a test knows the fetch is bound to that source, and keeps
// whether each call's ctx was already done on entry.
type enteringSource struct {
	cluster.Source
	entered chan struct{}
	noWait  []bool
}

func (s *enteringSource) FetchWAL(ctx context.Context, after uint64) (*cluster.WALBatch, error) {
	select {
	case <-s.entered:
	default:
		close(s.entered)
	}
	s.noWait = append(s.noWait, ctx.Err() != nil)
	return s.Source.FetchWAL(ctx, after)
}

func testFullPrimary(t *testing.T, epoch uint64) *cluster.Primary {
	t.Helper()
	eng, err := serve.NewEngine(testTopology(t, 32, 3), "fulltable")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(eng, serve.ServerOptions{})
	p, err := cluster.NewPrimary(eng, srv, nil, epoch)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		p.Close()
		srv.Close()
	})
	return p
}

// TestRetargetWakesParkedFetch: set wakes a fetch parked on the old target
// (which stays open, so nothing else would end the wait), and the next fetch
// reaches the new primary without waiting.
func TestRetargetWakesParkedFetch(t *testing.T) {
	p1, p2 := testFullPrimary(t, 1), testFullPrimary(t, 2)
	old := &enteringSource{Source: p1, entered: make(chan struct{})}
	next := &enteringSource{Source: p2, entered: make(chan struct{})}
	src := newRetargetableSource(old)

	type result struct {
		b   *cluster.WALBatch
		err error
	}
	done := make(chan result, 1)
	go func() {
		b, err := src.FetchWAL(context.Background(), p1.Log().LastSeq())
		done <- result{b, err}
	}()
	<-old.entered
	src.set(next)
	select {
	case r := <-done:
		if r.err != nil || len(r.b.Records) != 0 || r.b.Epoch != 0 {
			t.Fatalf("woken fetch: %+v, %v; want an empty batch with no epoch", r.b, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("set did not wake the parked fetch")
	}

	// The next fetch asks to park at p2's frontier; it must reach p2 without
	// waiting and answer with p2's epoch.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	b, err := src.FetchWAL(ctx, p2.Log().LastSeq())
	if err != nil || b.Epoch != 2 || len(next.noWait) != 1 || !next.noWait[0] {
		t.Fatalf("next fetch: %+v, %v, no-wait %v; want one no-wait fetch answered under epoch 2", b, err, next.noWait)
	}
}

// TestPromotionRepointsStartedReplicas: with sync loops running, a promotion
// repoints the surviving replica, which resyncs onto the new epoch and then
// follows the new primary's appends. Nothing is appended before the
// promotion, so the survivor's position equals the new primary's frontier: a
// fetch that parked there would learn the new epoch only when the replica's
// 1 s safety wait ran out.
func TestPromotionRepointsStartedReplicas(t *testing.T) {
	c := testCluster(t, 64, 1, 5, ClusterOptions{Replicas: 2, StartReplicas: true})
	start := time.Now()
	if err := c.Promote(0, 0); err != nil {
		t.Fatal(err)
	}
	g := c.Group(0)
	survivor := g.Replicas()[0]
	converged := func() bool {
		d, err := g.Primary.FetchDigest()
		return err == nil && survivor.Digest() == d
	}
	waitConverged := func(what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !converged() {
			if time.Now().After(deadline) {
				t.Fatalf("survivor did not converge %s", what)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	waitConverged("after the promotion")
	if took := time.Since(start); took >= 500*time.Millisecond {
		t.Fatalf("survivor took %v to follow the promotion, want well under the 1 s safety wait", took)
	}
	if survivor.Epoch() != g.Primary.Epoch() {
		t.Fatalf("survivor epoch %d, primary %d", survivor.Epoch(), g.Primary.Epoch())
	}
	if err := c.Mutate(func(gr *graph.Graph) error {
		for w := 3; w <= gr.N(); w++ {
			if !gr.HasEdge(1, w) {
				return gr.AddEdge(1, w)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	waitConverged("after a mutation")
}

package serve

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"routetab/internal/graph"
)

func newTestServer(t *testing.T, n int, seed int64, scheme string, opts ServerOptions) *Server {
	t.Helper()
	eng, err := NewEngine(testGraph(t, n, seed), scheme)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(eng, opts)
	t.Cleanup(s.Close)
	return s
}

func TestServerSingleLookup(t *testing.T) {
	s := newTestServer(t, 48, 11, "fulltable", ServerOptions{})
	res := s.NextHop(1, 40)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.NextDist != res.Dist-1 {
		t.Fatalf("next hop does not progress: %+v", res)
	}
	if res.Seq != 1 {
		t.Fatalf("seq = %d", res.Seq)
	}
	if got := s.Metrics().Counter("serve_lookups_total").Value(); got != 1 {
		t.Fatalf("lookups counter = %d", got)
	}
}

// TestServerBatchAcrossShards: a batch spread over every shard answers each
// pair. A shortest-path scheme must step one hop closer; the stretch-2 hub
// scheme may step sideways, but must name a real next hop from which the
// destination stays reachable.
func TestServerBatchAcrossShards(t *testing.T) {
	for _, scheme := range []string{"fulltable", "hub"} {
		t.Run(scheme, func(t *testing.T) {
			s := newTestServer(t, 64, 13, scheme, ServerOptions{Shards: 4})
			var pairs [][2]int
			for src := 1; src <= 31; src++ {
				pairs = append(pairs, [2]int{src, 64 - src})
			}
			out := make([]Result, len(pairs))
			if err := s.LookupBatch(pairs, out); err != nil {
				t.Fatal(err)
			}
			for i, r := range out {
				if r.Err != nil {
					t.Fatalf("pair %v: %v", pairs[i], r.Err)
				}
				if (IsShortestPath(scheme) && r.NextDist != r.Dist-1) || r.Next < 1 || r.NextDist < 0 {
					t.Fatalf("pair %v answered %+v", pairs[i], r)
				}
			}
			if err := s.LookupBatch(pairs, out[:1]); err == nil {
				t.Fatal("length mismatch accepted")
			}
		})
	}
}

func TestServerSelfAndErrorCounting(t *testing.T) {
	s := newTestServer(t, 32, 17, "fulltable", ServerOptions{})
	res := s.NextHop(5, 5)
	if !errors.Is(res.Err, ErrSelfLookup) {
		t.Fatalf("self lookup: %v", res.Err)
	}
	if got := s.Metrics().Counter("serve_errors_total").Value(); got != 1 {
		t.Fatalf("errors counter = %d", got)
	}
}

// TestServerBackpressure: a server whose single shard is saturated sheds
// with ErrOverloaded instead of queueing unboundedly, and counts the sheds.
func TestServerBackpressure(t *testing.T) {
	s := newTestServer(t, 32, 19, "fulltable", ServerOptions{Shards: 1, QueueCap: 1, MaxBatch: 1})
	// Race many concurrent single lookups through a capacity-1 queue; some
	// must be shed, and every shed must be explicit.
	var wg sync.WaitGroup
	var served, shed atomic.Uint64
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := s.NextHop(3, 7)
			switch {
			case res.Err == nil:
				served.Add(1)
			case errors.Is(res.Err, ErrOverloaded):
				shed.Add(1)
			default:
				t.Errorf("unexpected error: %v", res.Err)
			}
		}()
	}
	wg.Wait()
	if served.Load()+shed.Load() != 64 {
		t.Fatalf("served %d + shed %d != 64", served.Load(), shed.Load())
	}
	if served.Load() == 0 {
		t.Fatal("nothing served")
	}
	if got := s.Metrics().Counter("serve_rejects_total").Value(); got != shed.Load() {
		t.Fatalf("rejects counter %d != observed sheds %d", got, shed.Load())
	}
}

// TestServerHotSwapUnderLoad is the serving-layer acceptance test: ≥ 10
// concurrent snapshot hot-swaps while lookups hammer the server, with
//
//   - no dropped lookup: every submitted pair gets a definite Result,
//   - no incorrect answer: every error-free Result satisfies the
//     shortest-path invariant NextDist == Dist−1 within its own snapshot,
//   - no stale-version response: a lookup submitted after swap k completes
//     is served by a snapshot with Seq ≥ k's.
func TestServerHotSwapUnderLoad(t *testing.T) {
	const swaps = 12
	s := newTestServer(t, 64, 23, "fulltable", ServerOptions{Shards: 4, QueueCap: 4096, MaxBatch: 32})
	eng := s.Engine()

	stop := make(chan struct{})
	var answered, wrong atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			pairs := make([][2]int, 8)
			out := make([]Result, 8)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for k := range pairs {
					src := (w*16+i+k)%64 + 1
					dst := (src + k + 7) % 64
					if dst == 0 {
						dst = 64
					}
					if dst == src {
						dst = src%64 + 1
					}
					pairs[k] = [2]int{src, dst}
				}
				if err := s.LookupBatch(pairs, out); err != nil {
					t.Error(err)
					return
				}
				for _, r := range out {
					answered.Add(1)
					if r.Err != nil {
						t.Errorf("lookup failed mid-swap: %v", r.Err)
						return
					}
					if r.NextDist != r.Dist-1 {
						wrong.Add(1)
					}
				}
			}
		}()
	}

	for i := 0; i < swaps; i++ {
		snap, err := eng.Mutate(func(g *graph.Graph) error {
			if g.HasEdge(1, 2) {
				return g.RemoveEdge(1, 2)
			}
			return g.AddEdge(1, 2)
		})
		if err != nil {
			t.Fatal(err)
		}
		// Freshness: a lookup issued after the swap publishes must be
		// served by that snapshot or a newer one.
		res := s.NextHop(3, 40)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.Seq < snap.Seq {
			t.Fatalf("stale response: served by seq %d after swap published seq %d", res.Seq, snap.Seq)
		}
	}
	// The swap loop can outrun worker scheduling under heavy machine load;
	// keep the storm open until at least one batch has been answered so the
	// mid-swap assertions below are exercised on every run.
	for answered.Load() == 0 {
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()

	if eng.Swaps() < swaps+1 {
		t.Fatalf("swaps = %d", eng.Swaps())
	}
	if answered.Load() == 0 {
		t.Fatal("no lookups answered during the swap storm")
	}
	if wrong.Load() != 0 {
		t.Fatalf("%d of %d answers violated the shortest-path invariant", wrong.Load(), answered.Load())
	}
	// No drops: the lookups counter must account for every answered pair
	// (rejections would have surfaced as ErrOverloaded above).
	if got := s.Metrics().Counter("serve_rejects_total").Value(); got != 0 {
		t.Fatalf("rejects = %d with a 4096-deep queue", got)
	}
}

// TestServerDrainOnClose: lookups accepted before Close are answered, and
// lookups after Close are rejected with ErrClosed semantics (ErrOverloaded
// from the closed pool).
func TestServerDrainOnClose(t *testing.T) {
	eng, err := NewEngine(testGraph(t, 32, 29), "fulltable")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(eng, ServerOptions{Shards: 2})
	res := s.NextHop(1, 9)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	s.Close()
	res = s.NextHop(1, 9)
	if !errors.Is(res.Err, ErrClosed) {
		t.Fatalf("lookup after close: %v", res.Err)
	}
}

// TestServerStretchSampling: with aggressive sampling the stretch histogram
// fills, and on a shortest-path scheme every sample is exactly 1000 (×1000).
func TestServerStretchSampling(t *testing.T) {
	s := newTestServer(t, 48, 31, "fulltable", ServerOptions{StretchSampleEvery: 1})
	for src := 1; src <= 16; src++ {
		if res := s.NextHop(src, 48-src); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	h := s.Metrics().Histogram("serve_stretch_x1000", nil)
	if h.Count() == 0 {
		t.Fatal("no stretch samples recorded")
	}
	if q := h.Quantile(0.99); q != 1000 {
		t.Fatalf("shortest-path scheme sampled stretch %d (×1000)", q)
	}
}

package serve

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

func newServerWithRepairer(t *testing.T, n int, seed int64, opts ServerOptions) (*Server, *Repairer) {
	t.Helper()
	s := newTestServer(t, n, seed, "fulltable", opts)
	// Debounce negative = rebuild immediately after each event; tests still
	// use Flush for deterministic synchronisation.
	r := NewRepairer(s, RepairOptions{Debounce: -1})
	t.Cleanup(r.Close)
	return s, r
}

// pickServedEdge finds a (src,dst) pair whose scheme answer forwards over a
// direct edge src-next we can fail.
func pickServedEdge(t *testing.T, s *Server) (src, dst, next int) {
	t.Helper()
	snap := s.eng.Current()
	n := snap.N()
	for src := 1; src <= n; src++ {
		for dst := 1; dst <= n; dst++ {
			if src == dst {
				continue
			}
			res := s.NextHop(src, dst)
			if res.Err == nil && res.Dist >= 2 {
				return src, dst, res.Next
			}
		}
	}
	t.Fatal("no multi-hop pair found")
	return 0, 0, 0
}

// TestRepairerDegradedThenHealed is the self-healing lifecycle: fail the
// serving next-hop link → the very next lookup detours (degraded, within the
// +2 budget) → the rebuild lands → answers are strict shortest-path again on
// a topology without the link → repair the link → byte-identical return to
// the original tables.
func TestRepairerDegradedThenHealed(t *testing.T) {
	s, r := newServerWithRepairer(t, 48, 19, ServerOptions{Shards: 2})
	baseline := append([]byte(nil), s.eng.Current().Dist.Packed()...)
	src, dst, next := pickServedEdge(t, s)

	if err := r.SetLinkDown(src, next, true); err != nil {
		t.Fatal(err)
	}
	// Overlay is synchronous: this lookup must not cross the failed link.
	res := s.NextHop(src, dst)
	if res.Err == nil && res.Next == next && !res.Degraded {
		// The rebuild may already have landed (new snapshot routes around
		// the link) — then next is fine only if the link is out of the graph.
		if s.eng.Current().Graph.HasEdge(src, next) {
			t.Fatalf("lookup crossed a failed link: %+v", res)
		}
	}
	if res.Err == nil && res.Degraded {
		if res.NextDist < 0 || 1+res.NextDist > res.Dist+2 {
			t.Fatalf("degraded answer outside +2 budget: %+v", res)
		}
	}

	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if r.Staleness() != 0 {
		t.Fatalf("staleness %d after flush", r.Staleness())
	}
	snap := s.eng.Current()
	if snap.Graph.HasEdge(src, next) {
		t.Fatal("rebuilt snapshot still contains the failed link")
	}
	// Strict answers again, on the repaired topology.
	res = s.NextHop(src, dst)
	if res.Err != nil || res.Degraded || res.NextDist != res.Dist-1 {
		t.Fatalf("post-rebuild answer not strict: %+v", res)
	}

	if err := r.SetLinkDown(src, next, false); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s.eng.Current().Dist.Packed(), baseline) {
		t.Fatal("repairing the link did not restore byte-identical tables")
	}
	if got := s.Metrics().Counter("serve_repair_events_total").Value(); got != 2 {
		t.Fatalf("repair events = %d, want 2", got)
	}
}

// TestRepairerNodeCrash: lookups from or to a crashed node are honestly
// unavailable; unrelated lookups still work; recovery restores everything
// without any rebuild (node state is overlay-only).
func TestRepairerNodeCrash(t *testing.T) {
	s, r := newServerWithRepairer(t, 32, 23, ServerOptions{Shards: 2})
	swapsBefore := s.eng.Swaps()
	if err := r.SetNodeDown(5, true); err != nil {
		t.Fatal(err)
	}
	if res := s.NextHop(5, 9); !errors.Is(res.Err, ErrUnavailable) {
		t.Fatalf("lookup from crashed node: %+v", res)
	}
	if res := s.NextHop(9, 5); !errors.Is(res.Err, ErrUnavailable) {
		t.Fatalf("lookup to crashed node: %+v", res)
	}
	res := s.NextHop(1, 2)
	if res.Err != nil {
		t.Fatalf("unrelated lookup failed: %v", res.Err)
	}
	if res.Next == 5 && !res.Degraded {
		t.Fatalf("forwarded into a crashed node non-degraded: %+v", res)
	}
	if err := r.SetNodeDown(5, false); err != nil {
		t.Fatal(err)
	}
	if res := s.NextHop(5, 9); res.Err != nil {
		t.Fatalf("recovered node still unavailable: %v", res.Err)
	}
	if s.eng.Swaps() != swapsBefore {
		t.Fatalf("node crash triggered a rebuild (swaps %d → %d)", swapsBefore, s.eng.Swaps())
	}
}

// TestRepairerRefusesDisconnect: failing every link of one node must leave
// the snapshot topology untouched (the rebuild would disconnect the graph),
// keep serving degraded/unavailable, and heal cleanly on repair.
func TestRepairerRefusesDisconnect(t *testing.T) {
	s := newTestServer(t, 24, 29, "fulltable", ServerOptions{Shards: 2})
	// A debounce longer than the test leaves Flush as the only rebuild: the
	// background loop cannot rebuild a still-connected partial topology
	// between two SetLinkDown calls and publish it.
	r := NewRepairer(s, RepairOptions{Debounce: time.Hour})
	t.Cleanup(r.Close)
	snap := s.eng.Current()
	victim := 7
	nbrs := append([]int(nil), snap.Graph.Neighbors(victim)...)
	for _, w := range nbrs {
		if err := r.SetLinkDown(victim, w, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(); err == nil {
		t.Fatal("disconnecting rebuild was not refused")
	}
	if got := s.eng.Current().Seq; got != snap.Seq {
		t.Fatalf("refused rebuild still published (seq %d → %d)", snap.Seq, got)
	}
	if s.Metrics().Counter("serve_repair_failures_total").Value() == 0 {
		t.Fatal("refused rebuild not counted")
	}
	// The victim is effectively cut off: lookups toward it are unavailable,
	// not wrong.
	res := s.NextHop(victim, (victim%s.eng.Current().N())+1)
	if res.Err == nil && !res.Degraded {
		t.Fatalf("lookup from cut-off node answered non-degraded: %+v", res)
	}
	for _, w := range nbrs {
		if err := r.SetLinkDown(victim, w, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatalf("healing flush failed: %v", err)
	}
	if res := s.NextHop(victim, nbrs[0]); res.Err != nil || res.Degraded {
		t.Fatalf("healed lookup: %+v", res)
	}
}

// TestRepairerDeterministicRebuilds: two independent engines fed the same
// failure sequence publish byte-identical rebuilt tables — the DESIGN.md §8
// contract extended to the repair path.
func TestRepairerDeterministicRebuilds(t *testing.T) {
	mk := func() (*Server, *Repairer) { return newServerWithRepairer(t, 32, 31, ServerOptions{Shards: 1}) }
	s1, r1 := mk()
	s2, r2 := mk()
	events := [][2]int{{1, 2}, {3, 4}, {5, 6}}
	for _, e := range events {
		if s1.eng.Current().Graph.HasEdge(e[0], e[1]) {
			if err := r1.SetLinkDown(e[0], e[1], true); err != nil {
				t.Fatal(err)
			}
			if err := r2.SetLinkDown(e[0], e[1], true); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := r1.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := r2.Flush(); err != nil {
		t.Fatal(err)
	}
	a, b := s1.eng.Current(), s2.eng.Current()
	if !a.Graph.Equal(b.Graph) {
		t.Fatal("rebuilt graphs differ")
	}
	if !bytes.Equal(a.Dist.Packed(), b.Dist.Packed()) {
		t.Fatal("rebuilt distance tables not byte-identical")
	}
}

// TestRepairerValidation: out-of-range events are rejected, events after
// Close return ErrRepairClosed.
func TestRepairerValidation(t *testing.T) {
	s := newTestServer(t, 16, 37, "fulltable", ServerOptions{Shards: 1})
	r := NewRepairer(s, RepairOptions{})
	if err := r.SetLinkDown(0, 5, true); err == nil {
		t.Fatal("link 0-5 accepted")
	}
	if err := r.SetLinkDown(3, 3, true); err == nil {
		t.Fatal("self-link accepted")
	}
	if err := r.SetNodeDown(17, true); err == nil {
		t.Fatal("node 17 accepted on n=16")
	}
	r.Close()
	if err := r.SetLinkDown(1, 2, true); !errors.Is(err, ErrRepairClosed) {
		t.Fatalf("post-close event: %v", err)
	}
	if err := r.SetNodeDown(1, true); !errors.Is(err, ErrRepairClosed) {
		t.Fatalf("post-close node event: %v", err)
	}
}

// TestRepairerDebouncedLoop: the background loop (positive debounce) also
// lands rebuilds without explicit Flush.
func TestRepairerDebouncedLoop(t *testing.T) {
	s := newTestServer(t, 24, 41, "fulltable", ServerOptions{Shards: 1})
	r := NewRepairer(s, RepairOptions{Debounce: time.Millisecond})
	t.Cleanup(r.Close)
	src, _, next := pickServedEdge(t, s)
	if err := r.SetLinkDown(src, next, true); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.eng.Current().Graph.HasEdge(src, next) {
		if time.Now().After(deadline) {
			t.Fatal("background rebuild never landed")
		}
		time.Sleep(time.Millisecond)
	}
	if r.Staleness() != 0 {
		t.Fatalf("staleness %d after background rebuild", r.Staleness())
	}
}

package landmark

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"routetab/internal/gengraph"
	"routetab/internal/graph"
	"routetab/internal/routing"
)

// answers records every first hop and distance estimate s gives on g: entry
// (u−1)·n + v−1 is u's next node toward v, or −1 when u's tables were
// dropped, and EstimateDist(u, v).
func answers(tb testing.TB, g *graph.Graph, ports *graph.Ports, s *Scheme) (hops, est []int) {
	tb.Helper()
	sim, err := routing.NewSim(g, ports, s)
	if err != nil {
		tb.Fatal(err)
	}
	n := g.N()
	hops, est = make([]int, n*n), make([]int, n*n)
	for u := 1; u <= n; u++ {
		for v := 1; v <= n; v++ {
			at := (u-1)*n + v - 1
			est[at] = s.EstimateDist(u, v)
			if u == v {
				continue
			}
			if hops[at], err = sim.FirstHop(u, v); err != nil {
				hops[at] = -1
			}
		}
	}
	return hops, est
}

// TestDecodeTablesKeepsNoAlias: DecodeTables keeps a copy of its input, so a
// caller that reuses the buffer — an arena unmapped, a resync frame read
// into the same slice — leaves the decoded scheme's encoding and every route
// and estimate unchanged. Both the unrestricted and the restricted layouts
// are checked.
func TestDecodeTablesKeepsNoAlias(t *testing.T) {
	g, ports := restrictTestGraph(t)
	for _, restrict := range []bool{false, true} {
		s, err := Build(g, ports, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if restrict {
			if err := s.Restrict(evenOwned(t, g.N())); err != nil {
				t.Fatal(err)
			}
		}
		in := bytes.Clone(s.EncodeTables())
		dec, err := DecodeTables(g, ports, in)
		if err != nil {
			t.Fatal(err)
		}
		wantHops, wantEst := answers(t, g, ports, s)
		for i := range in {
			in[i] = 0xA5
		}
		if !bytes.Equal(dec.EncodeTables(), s.EncodeTables()) {
			t.Fatalf("restricted=%v: overwriting the decoder's input changed the decoded encoding", restrict)
		}
		hops, est := answers(t, g, ports, dec)
		for i := range hops {
			if hops[i] != wantHops[i] || est[i] != wantEst[i] {
				u, v := i/g.N()+1, i%g.N()+1
				t.Fatalf("restricted=%v: %d→%d answers hop %d est %d after the input was overwritten, want %d and %d",
					restrict, u, v, hops[i], est[i], wantHops[i], wantEst[i])
			}
		}
	}
}

// TestUpdateConcurrentReaders: readers route and estimate on a published
// scheme while Update derives the next one from it, over a chain of mixed
// flips on a half-owned graph. Update only reads its predecessor, so under
// -race no access conflicts, and every reader keeps the answers the scheme
// gave before the update started.
func TestUpdateConcurrentReaders(t *testing.T) {
	const readers, flips = 4, 6
	rng := rand.New(rand.NewSource(7))
	g, err := gengraph.SparseConnected(160, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	owned := ownedModes[1].owned(g.N(), rng)
	prev, err := buildRestricted(g, DefaultOptions(), owned)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	for f := 0; f < flips; f++ {
		ports := graph.SortedPorts(g)
		sim, err := routing.NewSim(g, ports, prev)
		if err != nil {
			t.Fatal(err)
		}
		wantHops, wantEst := answers(t, g, ports, prev)
		x, y := mixedFlip(g, rng)
		next := flipped(t, g, x, y)

		var stop atomic.Bool
		var wg, ready sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			ready.Add(1)
			go func(r int) {
				defer wg.Done()
				// check reports whether pair i still gets its answers.
				check := func(i int) bool {
					u, v := i/n+1, i%n+1
					if est := prev.EstimateDist(u, v); est != wantEst[i] {
						t.Errorf("flip %d: EstimateDist(%d,%d) = %d during the update, want %d", f, u, v, est, wantEst[i])
						return false
					}
					if u == v {
						return true
					}
					hop, err := sim.FirstHop(u, v)
					if err != nil {
						hop = -1
					}
					if hop != wantHops[i] {
						t.Errorf("flip %d: first hop %d→%d = %d during the update, want %d", f, u, v, hop, wantHops[i])
						return false
					}
					return true
				}
				ok := check(r)
				ready.Done()
				for i := r; ok && !stop.Load(); ok = check(i) {
					i = (i + readers) % (n * n)
				}
			}(r)
		}
		ready.Wait() // every reader is reading when the update starts
		s, err := Update(prev, ports, next, graph.SortedPorts(next), x, y)
		stop.Store(true)
		wg.Wait()
		if err != nil {
			t.Fatalf("flip %d {%d,%d}: %v", f, x, y, err)
		}
		prev, g = s, next
	}
}

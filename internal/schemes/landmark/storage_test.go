package landmark

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"slices"
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

// TestUpdateConcurrentReaders: readers route, estimate and rehash on a
// published scheme while Update derives the next one from it on shared
// pages, over a chain of mixed flips on a half-owned graph. Update only
// reads its predecessor's pages and writes copies, so under -race no access
// conflicts, and every reader keeps the answers and the fingerprint the
// scheme had before the update started.
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
				// check reports whether pair i still gets its answers, and on
				// every pass over the pairs whether the pages still give the
				// scheme's fingerprint.
				check := func(i int) bool {
					u, v := i/n+1, i%n+1
					if i < readers && prev.RehashTables() != prev.TablesCRC() {
						t.Errorf("flip %d: the pages rehash to %08x during the update, want %08x", f, prev.RehashTables(), prev.TablesCRC())
						return false
					}
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

// TestFlipCopiesPages: over perfbench's mixed schedule on
// SparseConnected(4096, 8) with the lower half of the nodes owned, as one
// churn-shard-n4096 group holds it, the median Update allocates at most 1/8
// of the tables' encoded length: it copies the pages and blocks it writes
// and shares the rest, where copying the tables whole allocates more than
// their length. The landmark analogue of graph's TestCloneCopiesPagePointers.
func TestFlipCopiesPages(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not measurable under the race detector")
	}
	const n, flips = 4096, 40
	rng := rand.New(rand.NewSource(1))
	g, err := gengraph.SparseConnected(n, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := buildRestricted(g, DefaultOptions(), ownedModes[1].owned(n, rng))
	if err != nil {
		t.Fatal(err)
	}
	limit := uint64(len(prev.EncodeTables()) / 8)
	allocs := make([]uint64, 0, flips)
	var before, after runtime.MemStats
	for i := 0; i < flips; i++ {
		x, y := mixedFlip(g, rng)
		next := flipped(t, g, x, y)
		prevPorts, ports := graph.SortedPorts(g), graph.SortedPorts(next)
		runtime.ReadMemStats(&before)
		s, err := Update(prev, prevPorts, next, ports, x, y)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("flip %d {%d,%d}: %v", i, x, y, err)
		}
		allocs = append(allocs, after.TotalAlloc-before.TotalAlloc)
		prev, g = s, next
	}
	slices.Sort(allocs)
	t.Logf("median Update allocates %d B of a %d B encoding", allocs[flips/2], 8*limit)
	if med := allocs[flips/2]; med > limit {
		t.Fatalf("median Update allocates %d B, want ≤ %d B (1/8 of the %d B encoding); sorted: %v", med, limit, 8*limit, allocs)
	}
}

// TestEncodeTablesMatchesPages: the assembled encoding holds, at the
// offsets codec.go documents, what the page accessors read — every home
// field, every landmark-table entry and every cluster entry — so pages are
// assembled in order. Both layouts, at a size where every section spans
// many pages.
func TestEncodeTablesMatchesPages(t *testing.T) {
	g, err := gengraph.SparseConnected(2048, 8, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	for _, restrict := range []bool{false, true} {
		s, err := Build(g, graph.SortedPorts(g), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if restrict {
			if err := s.Restrict(evenOwned(t, g.N())); err != nil {
				t.Fatal(err)
			}
		}
		if len(s.lmDist.pages) < 16 || len(s.cluster.blocks) < 16 {
			t.Fatalf("restricted=%v: %d lmDist pages and %d blocks, want many", restrict, len(s.lmDist.pages), len(s.cluster.blocks))
		}
		b := s.EncodeTables()
		n, k, ct := s.n, s.k, s.ct
		if len(b) != s.TablesLen() {
			t.Fatalf("restricted=%v: %d bytes, TablesLen says %d", restrict, len(b), s.TablesLen())
		}
		at := len(s.head)
		section := func(size int) []byte {
			v := b[at : at+size]
			at += size
			return v
		}
		rows := 0
		for u := 1; u <= n; u++ {
			if s.portRowOf(u) >= 0 {
				rows++
			}
		}
		homeIdx, homeDist, eport, lmDist, lmPort := section(2*n), section(2*n), section(2*n), section(2*n*k), section(2*rows*k)
		start, dst, port, dist := section(4*(n+1)), section(4*ct), section(2*ct), section(2*ct)
		for u := 1; u <= n; u++ {
			if u16(homeIdx, u-1) != s.homeIdx.cell(u-1) || u16(homeDist, u-1) != s.homeDist.cell(u-1) || u16(eport, u-1) != s.eport.cell(u-1) {
				t.Fatalf("restricted=%v: home fields of %d differ from the pages", restrict, u)
			}
			for j := 0; j < k; j++ {
				if u16(lmDist, (u-1)*k+j) != s.lmDist.at(u-1, j) {
					t.Fatalf("restricted=%v: lmDist (%d,%d) differs from the pages", restrict, u, j)
				}
				if r := s.portRowOf(u); r >= 0 && u16(lmPort, r*k+j) != s.lmPort.at(r, j) {
					t.Fatalf("restricted=%v: lmPort (%d,%d) differs from the pages", restrict, u, j)
				}
			}
			for i := u32(start, u-1); i < u32(start, u); i++ {
				v := int(u32(dst, int(i)))
				if p := s.clusterPortTo(u, v); p == 0 || u16(port, int(i)) != p || u16(dist, int(i)) != s.clusterDistTo(u, v) {
					t.Fatalf("restricted=%v: cluster entry (%d,%d) differs from the blocks", restrict, u, v)
				}
			}
			if int(u32(start, u)-u32(start, u-1)) != s.ClusterSize(u) {
				t.Fatalf("restricted=%v: cluster row %d has %d entries, the blocks %d", restrict, u, u32(start, u)-u32(start, u-1), s.ClusterSize(u))
			}
		}
		if got := binary.LittleEndian.Uint32(b[16:]); int(got) != ct {
			t.Fatalf("restricted=%v: clusterTotal %d, want %d", restrict, got, ct)
		}
	}
}

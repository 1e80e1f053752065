package fulltable

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"routetab/internal/gengraph"
	"routetab/internal/graph"
	"routetab/internal/shortestpath"
)

// requireSameScheme checks got against a fresh Build, want: every table
// row, every width, every EncodedRow's bits and length, and FunctionBits.
func requireSameScheme(t testing.TB, got, want *Scheme) {
	t.Helper()
	if got.n != want.n {
		t.Fatalf("n = %d, want %d", got.n, want.n)
	}
	for u := 1; u <= want.n; u++ {
		if !slices.Equal(got.table[u], want.table[u]) {
			t.Fatalf("row %d: %v, want %v", u, got.table[u], want.table[u])
		}
		if got.width[u] != want.width[u] {
			t.Fatalf("width[%d] = %d, want %d", u, got.width[u], want.width[u])
		}
		ge, _, err := got.EncodedRow(u)
		if err != nil {
			t.Fatal(err)
		}
		we, _, err := want.EncodedRow(u)
		if err != nil {
			t.Fatal(err)
		}
		if ge.Len() != we.Len() || !bytes.Equal(ge.Bytes(), we.Bytes()) {
			t.Fatalf("encoded row %d: %d bits %x, want %d bits %x", u, ge.Len(), ge.Bytes(), we.Len(), we.Bytes())
		}
		if got.FunctionBits(u) != want.FunctionBits(u) {
			t.Fatalf("FunctionBits(%d) = %d, want %d", u, got.FunctionBits(u), want.FunctionBits(u))
		}
	}
}

// flipStep flips {x,y} on a clone of g, updates the matrix and the scheme,
// and requires an update to equal a fresh AllPairs and Build of the clone,
// byte for byte, and to leave prev's rows unwritten. A flip Build refuses
// must be refused by Update too; it returns prev, prevDist and g unchanged.
// Otherwise it returns the new state, which is Build's when Update
// declined, and Update's error, if any.
func flipStep(t testing.TB, prev *Scheme, prevDist *shortestpath.Distances, g *graph.Graph, x, y int) (*Scheme, *shortestpath.Distances, *graph.Graph, error) {
	t.Helper()
	next := g.Clone()
	var err error
	if next.HasEdge(x, y) {
		err = next.RemoveEdge(x, y)
	} else {
		err = next.AddEdge(x, y)
	}
	if err != nil {
		t.Fatal(err)
	}
	dist, changed, err := shortestpath.Update(prevDist, next, x, y)
	if err != nil {
		t.Fatalf("flip {%d,%d}: matrix update: %v", x, y, err)
	}
	wantDist, err := shortestpath.AllPairs(next)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dist.Packed(), wantDist.Packed()) {
		t.Fatalf("flip {%d,%d}: updated matrix differs from AllPairs", x, y)
	}
	ports := graph.SortedPorts(next)
	before := make([][]uint16, len(prev.table))
	for u, row := range prev.table {
		before[u] = slices.Clone(row)
	}
	got, gerr := Update(prev, prevDist, dist, changed, next, ports, x, y)
	for u, row := range prev.table {
		if !slices.Equal(row, before[u]) {
			t.Fatalf("flip {%d,%d}: update wrote row %d of the previous scheme", x, y, u)
		}
	}
	want, werr := Build(next, ports)
	if werr != nil {
		if !errors.Is(werr, ErrDisconnected) {
			t.Fatalf("flip {%d,%d}: build: %v", x, y, werr)
		}
		if gerr == nil {
			t.Fatalf("flip {%d,%d}: build refused (%v), update did not", x, y, werr)
		}
		return prev, prevDist, g, gerr
	}
	if gerr != nil {
		return want, dist, next, gerr
	}
	requireSameScheme(t, got, want)
	return got, dist, next, nil
}

// randomFlip picks, with equal odds, a present edge to remove or an absent
// pair to add.
func randomFlip(g *graph.Graph, rng *rand.Rand) (x, y int) {
	n := g.N()
	if g.M() > 0 && rng.Intn(2) == 0 {
		e := g.Edges()[rng.Intn(g.M())]
		return e[0], e[1]
	}
	for {
		x, y = 1+rng.Intn(n), 1+rng.Intn(n)
		if x != y && (!g.HasEdge(x, y) || g.M() == n*(n-1)/2) {
			return x, y
		}
	}
}

// TestFulltableUpdateMatchesBuild chains updates over seeded churn on every
// graph family and compares each step with a fresh AllPairs and Build.
// Families marked strict must update every flip Build accepts; on the others
// Update may decline (too many flagged entries, saturated distances), and
// the chain continues from the full build. Every family updates at least
// once.
func TestFulltableUpdateMatchesBuild(t *testing.T) {
	families := []struct {
		name   string
		flips  int
		strict bool
		mk     func(rng *rand.Rand) (*graph.Graph, error)
	}{
		{"gnhalf40", 30, true, func(rng *rand.Rand) (*graph.Graph, error) { return gengraph.GnHalf(40, rng) }},
		{"gnhalf130", 20, true, func(rng *rand.Rand) (*graph.Graph, error) { return gengraph.GnHalf(130, rng) }},
		{"sparse300", 30, true, func(rng *rand.Rand) (*graph.Graph, error) { return gengraph.SparseConnected(300, 8, rng) }},
		{"sparse400deg2.5", 30, false, func(rng *rand.Rand) (*graph.Graph, error) { return gengraph.SparseConnected(400, 2.5, rng) }},
		{"chain50", 30, false, func(*rand.Rand) (*graph.Graph, error) { return gengraph.Chain(50) }},
		{"chain300", 30, false, func(*rand.Rand) (*graph.Graph, error) { return gengraph.Chain(300) }},
		{"cycle50", 30, false, func(*rand.Rand) (*graph.Graph, error) { return gengraph.Cycle(50) }},
		{"star40", 30, false, func(*rand.Rand) (*graph.Graph, error) { return gengraph.Star(40) }},
		{"grid7x9", 30, false, func(*rand.Rand) (*graph.Graph, error) { return gengraph.Grid(7, 9) }},
		{"tree60", 30, false, func(rng *rand.Rand) (*graph.Graph, error) { return gengraph.RandomTree(60, rng) }},
		{"gb12", 30, false, func(rng *rand.Rand) (*graph.Graph, error) {
			gb, err := gengraph.RandomGB(12, rng)
			if err != nil {
				return nil, err
			}
			return gb.G, nil
		}},
	}
	for fi, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(fi + 1)))
			g, err := fam.mk(rng)
			if err != nil {
				t.Fatal(err)
			}
			prev, err := Build(g, graph.SortedPorts(g))
			if err != nil {
				t.Fatal(err)
			}
			prevDist, err := shortestpath.AllPairs(g)
			if err != nil {
				t.Fatal(err)
			}
			updates := 0
			for i := 0; i < fam.flips; i++ {
				x, y := randomFlip(g, rng)
				edges := g.M()
				var uerr error
				prev, prevDist, g, uerr = flipStep(t, prev, prevDist, g, x, y)
				if uerr == nil {
					updates++
				} else if fam.strict && g.M() != edges {
					t.Fatalf("flip %d {%d,%d}: update declined: %v", i, x, y, uerr)
				}
			}
			if updates == 0 {
				t.Fatalf("no flip of %d updated", fam.flips)
			}
		})
	}
}

// TestFulltableUpdateRefusesDisconnect: removing a bridge leaves pairs
// unreachable, which Update must refuse as Build does.
func TestFulltableUpdateRefusesDisconnect(t *testing.T) {
	g, err := gengraph.Chain(80)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := Build(g, graph.SortedPorts(g))
	if err != nil {
		t.Fatal(err)
	}
	prevDist, err := shortestpath.AllPairs(g)
	if err != nil {
		t.Fatal(err)
	}
	s, _, h, uerr := flipStep(t, prev, prevDist, g, 40, 41)
	if uerr == nil || s != prev || h != g {
		t.Fatalf("disconnecting flip not refused: err %v", uerr)
	}
}

// TestFulltableUpdateDeclinesSaturated: on a 300-node chain a chord at one
// end shortens few enough pairs to pass the work bound, but the entries it
// flags read distances saturated at MaxDistance, where the first-hop test
// is not sound, so Update declines.
func TestFulltableUpdateDeclinesSaturated(t *testing.T) {
	g, err := gengraph.Chain(300)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := Build(g, graph.SortedPorts(g))
	if err != nil {
		t.Fatal(err)
	}
	prevDist, err := shortestpath.AllPairs(g)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, uerr := flipStep(t, prev, prevDist, g, 1, 3)
	if uerr == nil || !strings.Contains(uerr.Error(), "saturated") {
		t.Fatalf("flip {1,3}: err = %v, want a saturation refusal", uerr)
	}
}

// TestFulltableUpdateDeclinesBadInput: unsorted ports and a matrix of the
// wrong size are refused rather than answered wrongly.
func TestFulltableUpdateDeclinesBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, err := gengraph.GnHalf(30, rng)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := Build(g, graph.SortedPorts(g))
	if err != nil {
		t.Fatal(err)
	}
	prevDist, err := shortestpath.AllPairs(g)
	if err != nil {
		t.Fatal(err)
	}
	x, y := randomFlip(g, rng)
	next := g.Clone()
	if next.HasEdge(x, y) {
		err = next.RemoveEdge(x, y)
	} else {
		err = next.AddEdge(x, y)
	}
	if err != nil {
		t.Fatal(err)
	}
	dist, changed, err := shortestpath.Update(prevDist, next, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Update(prev, prevDist, dist, changed, next, graph.RandomPorts(next, rng), x, y); err == nil {
		t.Error("random ports accepted")
	}
	small, err := shortestpath.AllPairs(graph.MustNew(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Update(prev, prevDist, small, nil, next, graph.SortedPorts(next), x, y); err == nil {
		t.Error("matrix of another size accepted")
	}
	if _, err := Update(prev, prevDist, dist, changed, next, graph.SortedPorts(next), x, x); err == nil {
		t.Error("self-loop flip accepted")
	}
}

// FuzzFulltableUpdate fuzzes flip sequences on graphs of up to 39 nodes: a
// path backbone plus random chords, so every start is connected. Each
// update must equal a fresh build, or decline; refused flips are skipped.
func FuzzFulltableUpdate(f *testing.F) {
	f.Add([]byte{10, 0x00, 1, 2})
	f.Add([]byte{20, 0x41, 1, 7, 2, 9, 3, 4, 7, 1})
	f.Add([]byte{30, 0x86, 5, 6, 6, 7, 29, 1, 14, 15, 14, 15})
	f.Add([]byte{37, 0xf3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 2 + int(data[0])%38
		rng := rand.New(rand.NewSource(int64(data[1]) ^ int64(n)<<8))
		g, err := graph.New(n)
		if err != nil {
			t.Fatal(err)
		}
		p := float64(data[1]>>2) / 64
		for u := 1; u <= n; u++ {
			for v := u + 1; v <= n; v++ {
				if v == u+1 || rng.Float64() < p {
					if err := g.AddEdge(u, v); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		prev, err := Build(g, graph.SortedPorts(g))
		if err != nil {
			t.Fatal(err)
		}
		prevDist, err := shortestpath.AllPairs(g)
		if err != nil {
			t.Fatal(err)
		}
		for i := 2; i+1 < len(data); i += 2 {
			x, y := 1+int(data[i])%n, 1+int(data[i+1])%n
			if x != y {
				prev, prevDist, g, _ = flipStep(t, prev, prevDist, g, x, y)
			}
		}
	})
}

// BenchmarkUpdate256 times a full-tier flip on G(256,1/2) done
// incrementally: shortestpath.Update and Update from the previous
// snapshot's matrix and scheme. BenchmarkBuild256 times the table half of
// the full rebuild it replaces.
func BenchmarkUpdate256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, err := gengraph.GnHalf(256, rng)
	if err != nil {
		b.Fatal(err)
	}
	prev, err := Build(g, graph.SortedPorts(g))
	if err != nil {
		b.Fatal(err)
	}
	prevDist, err := shortestpath.AllPairs(g)
	if err != nil {
		b.Fatal(err)
	}
	type flip struct {
		g     *graph.Graph
		ports *graph.Ports
		x, y  int
	}
	flips := make([]flip, 16)
	for i := range flips {
		x, y := randomFlip(g, rng)
		h := g.Clone()
		if h.HasEdge(x, y) {
			err = h.RemoveEdge(x, y)
		} else {
			err = h.AddEdge(x, y)
		}
		if err != nil {
			b.Fatal(err)
		}
		flips[i] = flip{h, graph.SortedPorts(h), x, y}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := flips[i%len(flips)]
		dist, changed, err := shortestpath.Update(prevDist, f.g, f.x, f.y)
		if err != nil {
			b.Fatal(err)
		}
		s, err := Update(prev, prevDist, dist, changed, f.g, f.ports, f.x, f.y)
		if err != nil {
			b.Fatal(err)
		}
		benchScheme = s
	}
}

package fulltable

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"routetab/internal/bitio"
	"routetab/internal/gengraph"
	"routetab/internal/graph"
	"routetab/internal/models"
	"routetab/internal/routing"
	"routetab/internal/shortestpath"
)

func buildOn(t *testing.T, g *graph.Graph) (*Scheme, *routing.Sim, *shortestpath.Distances) {
	t.Helper()
	ports := graph.SortedPorts(g)
	s, err := Build(g, ports)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := routing.NewSim(g, ports, s)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := shortestpath.AllPairs(g)
	if err != nil {
		t.Fatal(err)
	}
	return s, sim, dm
}

func TestShortestPathOnRandomGraph(t *testing.T) {
	g, err := gengraph.GnHalf(40, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	_, sim, dm := buildOn(t, g)
	rep, err := routing.VerifyAll(sim, dm, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AllDelivered() {
		t.Fatalf("undelivered: %s %v", rep, rep.Failures)
	}
	if rep.MaxStretch != 1 {
		t.Fatalf("stretch = %v, want exactly 1", rep.MaxStretch)
	}
}

func TestShortestPathOnSparseGraph(t *testing.T) {
	g, err := gengraph.Grid(5, 6)
	if err != nil {
		t.Fatal(err)
	}
	_, sim, dm := buildOn(t, g)
	rep, err := routing.VerifyAll(sim, dm, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AllDelivered() || rep.MaxStretch != 1 {
		t.Fatalf("report = %s", rep)
	}
}

func TestWorksUnderAdversarialPorts(t *testing.T) {
	// IA: random port permutations must not affect correctness.
	g, err := gengraph.GnHalf(30, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	ports := graph.RandomPorts(g, rand.New(rand.NewSource(3)))
	s, err := Build(g, ports)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := routing.NewSim(g, ports, s)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := shortestpath.AllPairs(g)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := routing.VerifyAll(sim, dm, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AllDelivered() || rep.MaxStretch != 1 {
		t.Fatalf("report = %s", rep)
	}
}

func TestValidInAllNineModels(t *testing.T) {
	g, err := gengraph.GnHalf(20, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	s, _, _ := buildOn(t, g)
	for _, m := range models.All() {
		if _, err := routing.MeasureSpace(s, m); err != nil {
			t.Errorf("model %s: %v", m, err)
		}
	}
}

func TestSpaceIsNSquaredLogN(t *testing.T) {
	// Per node: (n−1)·⌈log(d+1)⌉ bits with d ≈ n/2 → total ≈ n²·log(n/2).
	n := 64
	g, err := gengraph.GnHalf(n, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	s, _, _ := buildOn(t, g)
	sp, err := routing.MeasureSpace(s, models.IAAlpha)
	if err != nil {
		t.Fatal(err)
	}
	lo := float64(n*(n-1)) * math.Log2(float64(n)/4)
	hi := float64(n*(n-1)) * math.Log2(float64(n))
	if float64(sp.Total) < lo || float64(sp.Total) > hi {
		t.Fatalf("total = %d, want within [%v, %v]", sp.Total, lo, hi)
	}
}

func TestFunctionBitsMatchesEncoding(t *testing.T) {
	g, err := gengraph.GnHalf(25, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	s, _, _ := buildOn(t, g)
	for u := 1; u <= 25; u++ {
		enc, width, err := s.EncodedRow(u)
		if err != nil {
			t.Fatal(err)
		}
		if s.FunctionBits(u) != enc.Len() {
			t.Fatalf("FunctionBits(%d) = %d, encoding = %d", u, s.FunctionBits(u), enc.Len())
		}
		row, err := DecodeRow(enc, u, 25, width)
		if err != nil {
			t.Fatal(err)
		}
		for v := 1; v <= 25; v++ {
			if row[v] != s.table[u][v] {
				t.Fatalf("decoded table[%d][%d] = %d, want %d", u, v, row[v], s.table[u][v])
			}
		}
	}
	if s.FunctionBits(0) != 0 || s.FunctionBits(99) != 0 {
		t.Error("out-of-range FunctionBits should be 0")
	}
	if _, _, err := s.EncodedRow(0); err == nil {
		t.Error("EncodedRow(0) accepted")
	}
}

func TestDisconnectedRejected(t *testing.T) {
	g := graph.MustNew(4)
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	_, err := Build(g, graph.SortedPorts(g))
	if !errors.Is(err, ErrDisconnected) {
		t.Fatalf("err = %v, want ErrDisconnected", err)
	}
}

func TestStalePortsRejected(t *testing.T) {
	g, err := gengraph.Chain(5)
	if err != nil {
		t.Fatal(err)
	}
	ports := graph.SortedPorts(g)
	if err := g.AddEdge(1, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(g, ports); err == nil {
		t.Fatal("stale ports accepted")
	}
}

func TestRouteErrors(t *testing.T) {
	g, err := gengraph.Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	s, _, _ := buildOn(t, g)
	if _, _, err := s.Route(0, nil, routing.Label{ID: 2}, 0, 0); !errors.Is(err, routing.ErrNoRoute) {
		t.Errorf("bad node: err = %v", err)
	}
	if _, _, err := s.Route(1, nil, routing.Label{ID: 99}, 0, 0); !errors.Is(err, routing.ErrNoRoute) {
		t.Errorf("bad dest: err = %v", err)
	}
	if _, _, err := s.Route(1, nil, routing.Label{ID: 1}, 0, 0); !errors.Is(err, routing.ErrNoRoute) {
		t.Errorf("self dest: err = %v", err)
	}
}

func TestLabelsAreOriginal(t *testing.T) {
	g, err := gengraph.Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	s, _, _ := buildOn(t, g)
	for u := 1; u <= 4; u++ {
		if l := s.Label(u); l.ID != u || len(l.Aux) != 0 {
			t.Fatalf("Label(%d) = %v", u, l)
		}
		if s.LabelBits(u) != 0 {
			t.Fatalf("LabelBits(%d) = %d", u, s.LabelBits(u))
		}
	}
	if s.Name() == "" {
		t.Error("empty name")
	}
}

// referenceBuild is the construction Build replaced, kept as the slow path
// the fast one is checked against: a neighbour-list BFS per source, a
// parent-chain walk to each destination's first hop, a map lookup for its
// port, and a bit-at-a-time encoding. Sources run in increasing order, so
// the error it returns is the lowest source's, as Build's worker pool
// reports.
func referenceBuild(g *graph.Graph, ports *graph.Ports) ([][]uint16, []int, []*bitio.Writer, error) {
	if err := ports.Validate(g); err != nil {
		return nil, nil, nil, fmt.Errorf("fulltable: %w", err)
	}
	n := g.N()
	table := make([][]uint16, n+1)
	width := make([]int, n+1)
	encoded := make([]*bitio.Writer, n+1)
	for u := 1; u <= n; u++ {
		res, err := shortestpath.BFS(g, u)
		if err != nil {
			return nil, nil, nil, err
		}
		row := make([]uint16, n+1)
		for v := 1; v <= n; v++ {
			if v == u {
				continue
			}
			if res.Dist[v] == shortestpath.Unreachable {
				return nil, nil, nil, fmt.Errorf("%w: no path %d→%d", ErrDisconnected, u, v)
			}
			w := v
			for res.Parent[w] != u {
				w = res.Parent[w]
			}
			port, err := ports.PortTo(u, w)
			if err != nil {
				return nil, nil, nil, err
			}
			row[v] = uint16(port)
		}
		table[u] = row
		width[u] = bitio.CeilLogPlus1(g.Degree(u))
		enc := bitio.NewWriter(0)
		for v := 1; v <= n; v++ {
			if v == u {
				continue
			}
			for b := width[u] - 1; b >= 0; b-- {
				enc.WriteBit((row[v]-1)>>uint(b)&1 != 0)
			}
		}
		encoded[u] = enc
	}
	return table, width, encoded, nil
}

// TestBuildMatchesReference checks Build byte for byte against the
// parent-walk reference — tables, widths, packed rows and their lengths —
// on dense random graphs on both sides of the 64-node word boundary and on
// the sparse families, under sorted and adversarial ports.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	type named struct {
		name string
		g    *graph.Graph
	}
	var corpus []named
	add := func(name string, g *graph.Graph, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		corpus = append(corpus, named{name, g})
	}
	for _, n := range []int{2, 5, 63, 64, 65, 130, 256} {
		g, err := gengraph.GnHalf(n, rng)
		add(fmt.Sprintf("gnhalf%d", n), g, err)
	}
	g, err := gengraph.Grid(7, 9)
	add("grid7x9", g, err)
	g, err = gengraph.Chain(70)
	add("chain70", g, err)
	g, err = gengraph.Cycle(71)
	add("cycle71", g, err)
	g, err = gengraph.Star(66)
	add("star66", g, err)
	g, err = gengraph.RandomTree(90, rng)
	add("tree90", g, err)
	g, err = gengraph.SparseConnected(300, 6, rng)
	add("sparse300", g, err)

	for _, c := range corpus {
		for _, random := range []bool{false, true} {
			ports := graph.SortedPorts(c.g)
			name := c.name + "/sorted"
			if random {
				ports = graph.RandomPorts(c.g, rng)
				name = c.name + "/random"
			}
			t.Run(name, func(t *testing.T) {
				table, width, encoded, refErr := referenceBuild(c.g, ports)
				s, err := Build(c.g, ports)
				if refErr != nil {
					if err == nil || err.Error() != refErr.Error() {
						t.Fatalf("Build err = %v, reference %v", err, refErr)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				for u := 1; u <= c.g.N(); u++ {
					if !slices.Equal(s.table[u], table[u]) {
						t.Fatalf("row %d: %v, reference %v", u, s.table[u], table[u])
					}
					if s.width[u] != width[u] {
						t.Fatalf("width[%d] = %d, reference %d", u, s.width[u], width[u])
					}
					if s.encoded[u].Len() != encoded[u].Len() || !bytes.Equal(s.encoded[u].Bytes(), encoded[u].Bytes()) {
						t.Fatalf("encoded row %d: %d bits %x, reference %d bits %x", u,
							s.encoded[u].Len(), s.encoded[u].Bytes(), encoded[u].Len(), encoded[u].Bytes())
					}
				}
			})
		}
	}
}

// TestDisconnectedMessageMatchesReference checks the fast path names the
// same unreachable pair as the reference.
func TestDisconnectedMessageMatchesReference(t *testing.T) {
	g := graph.MustNew(70)
	for u := 1; u < 70; u++ {
		if u == 40 {
			continue
		}
		if err := g.AddEdge(u, u+1); err != nil {
			t.Fatal(err)
		}
	}
	ports := graph.SortedPorts(g)
	_, _, _, refErr := referenceBuild(g, ports)
	_, err := Build(g, ports)
	if !errors.Is(err, ErrDisconnected) || refErr == nil || err.Error() != refErr.Error() {
		t.Fatalf("Build err = %v, reference %v", err, refErr)
	}
}

var benchScheme *Scheme

func benchBuild(b *testing.B, g *graph.Graph) {
	ports := graph.SortedPorts(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Build(g, ports)
		if err != nil {
			b.Fatal(err)
		}
		benchScheme = s
	}
}

// BenchmarkBuild256 is the full-tier snapshot's table build: G(256,1/2),
// where the word-parallel first-hop kernel runs.
func BenchmarkBuild256(b *testing.B) {
	g, err := gengraph.GnHalf(256, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	benchBuild(b, g)
}

// BenchmarkBuildSparse is a large sparse build, where the neighbour-list
// first-hop kernel runs.
func BenchmarkBuildSparse(b *testing.B) {
	g, err := gengraph.SparseConnected(2048, 8, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	benchBuild(b, g)
}

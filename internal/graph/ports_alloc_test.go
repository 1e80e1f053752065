package graph_test

import (
	"math/rand"
	"testing"

	"routetab/internal/gengraph"
	"routetab/internal/graph"
)

var sinkPorts *graph.Ports

// TestPortLookupsZeroAlloc pins the serving-path queries at 0 allocs/op, for
// the sorted view and a model-IA overlay, hits and misses alike.
func TestPortLookupsZeroAlloc(t *testing.T) {
	g, err := gengraph.SparseConnected(512, 8, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*graph.Ports{graph.SortedPorts(g), graph.RandomPorts(g, rand.New(rand.NewSource(2)))} {
		allocs := testing.AllocsPerRun(100, func() {
			for u := 1; u <= g.N(); u += 7 {
				for v := 1; v <= g.N(); v += 13 {
					p.PortToOK(u, v)
				}
				for port := 1; port <= p.Degree(u); port++ {
					if _, err := p.Neighbor(u, port); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
		if allocs != 0 {
			t.Fatalf("PortToOK/Neighbor: %.1f allocs/op, want 0", allocs)
		}
	}
}

// TestSortedPortsResidentBytes pins what a sorted port assignment adds on
// top of the graph's own neighbour rows: the map-per-node table it replaced
// allocated 1.52 MB here, and the view must stay under an eighth of that.
func TestSortedPortsResidentBytes(t *testing.T) {
	g, err := gengraph.SparseConnected(4096, 8, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	g.Neighbors(1) // the graph's rows are its own cost, built once
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkPorts = graph.SortedPorts(g)
		}
	})
	if got := res.AllocedBytesPerOp(); got > 190_000 {
		t.Fatalf("SortedPorts(SparseConnected(4096, 8)) allocates %d B/op, want ≤ 190000", got)
	}
}

package landmark

import (
	"bytes"
	"math/rand"
	"testing"

	"routetab/internal/gengraph"
	"routetab/internal/graph"
	"routetab/internal/routing"
	"routetab/internal/shortestpath"
)

func buildOn(t *testing.T, g *graph.Graph) (*Scheme, *graph.Ports) {
	t.Helper()
	ports := graph.SortedPorts(g)
	s, err := Build(g, ports, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return s, ports
}

// checkAllPairs routes every ordered pair and asserts delivery, stretch ≤ 3,
// and the EstimateDist upper-bound contract against BFS ground truth.
func checkAllPairs(t *testing.T, g *graph.Graph, s *Scheme, ports *graph.Ports) {
	t.Helper()
	sim, err := routing.NewSim(g, ports, s)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	maxHops := 4 * n
	for src := 1; src <= n; src++ {
		res, err := shortestpath.BFS(g, src)
		if err != nil {
			t.Fatal(err)
		}
		for dst := 1; dst <= n; dst++ {
			if dst == src {
				continue
			}
			d := res.Dist[dst]
			tr, err := sim.RouteByNode(src, dst, maxHops)
			if err != nil {
				t.Fatalf("route %d->%d: %v", src, dst, err)
			}
			if tr.Hops > 3*d {
				t.Fatalf("route %d->%d: %d hops for distance %d (stretch %.2f)",
					src, dst, tr.Hops, d, float64(tr.Hops)/float64(d))
			}
			est := s.EstimateDist(src, dst)
			if est < d {
				t.Fatalf("EstimateDist(%d,%d) = %d below true distance %d", src, dst, est, d)
			}
			if d >= 2 && est > 3*d {
				t.Fatalf("EstimateDist(%d,%d) = %d exceeds 3·d = %d", src, dst, est, 3*d)
			}
		}
	}
}

func TestLandmarkStretch3Families(t *testing.T) {
	families := []struct {
		name string
		gen  func() (*graph.Graph, error)
	}{
		{"gnhalf64", func() (*graph.Graph, error) { return gengraph.GnHalf(64, rand.New(rand.NewSource(7))) }},
		{"sparse150", func() (*graph.Graph, error) {
			return gengraph.SparseConnected(150, 6, rand.New(rand.NewSource(9)))
		}},
		{"grid8x8", func() (*graph.Graph, error) { return gengraph.Grid(8, 8) }},
		{"tree100", func() (*graph.Graph, error) { return gengraph.RandomTree(100, rand.New(rand.NewSource(3))) }},
		{"cycle37", func() (*graph.Graph, error) { return gengraph.Cycle(37) }},
	}
	for _, f := range families {
		f := f
		t.Run(f.name, func(t *testing.T) {
			g, err := f.gen()
			if err != nil {
				t.Fatal(err)
			}
			s, ports := buildOn(t, g)
			checkAllPairs(t, g, s, ports)
		})
	}
}

// TestLandmarkSaturationAudit is the packed-uint8 audit the issue demands: on
// a diameter-399 chain — far past shortestpath.MaxDistance (254), where the
// packed all-pairs codec legitimately saturates — every distance the landmark
// tables store must be the exact BFS distance. A silent clamp through the
// uint8 representation would either cap values at 254 or alias the
// unreachable sentinel; both are asserted absent, and routes past the
// saturation horizon still deliver within stretch 3.
func TestLandmarkSaturationAudit(t *testing.T) {
	const n = 400
	g, err := gengraph.Chain(n)
	if err != nil {
		t.Fatal(err)
	}
	s, ports := buildOn(t, g)

	// Exact ground truth per landmark, straight from the int-valued BFS.
	maxSeen := int32(0)
	for j, a := range s.Landmarks() {
		res, err := shortestpath.BFS(g, a)
		if err != nil {
			t.Fatal(err)
		}
		for u := 1; u <= n; u++ {
			got := s.lmDist[(u-1)*s.k+j]
			if int(got) != res.Dist[u] {
				t.Fatalf("lmDist[%d][landmark %d] = %d, BFS says %d", u, a, got, res.Dist[u])
			}
			if got > maxSeen {
				maxSeen = got
			}
		}
	}
	if maxSeen <= int32(shortestpath.MaxDistance) {
		t.Fatalf("audit vacuous: max stored distance %d never exceeds the packed saturation point %d",
			maxSeen, shortestpath.MaxDistance)
	}

	// Cluster distances are exact too, and homeDist matches its landmark row.
	for u := 1; u <= n; u++ {
		res, err := shortestpath.BFS(g, u)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := s.clusterStart[u-1], s.clusterStart[u]
		for i := lo; i < hi; i++ {
			v := int(s.clusterDst[i])
			if int(s.clusterDist[i]) != res.Dist[v] {
				t.Fatalf("cluster (%d,%d) stores distance %d, BFS says %d", u, v, s.clusterDist[i], res.Dist[v])
			}
		}
		lm, hd := s.Home(u)
		if hd != res.Dist[lm] {
			t.Fatalf("homeDist[%d] = %d, BFS to landmark %d says %d", u, hd, lm, res.Dist[lm])
		}
	}

	// End-to-end: the longest route in the graph delivers within stretch 3.
	sim, err := routing.NewSim(g, ports, s)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.RouteByNode(1, n, 4*n)
	if err != nil {
		t.Fatal(err)
	}
	if d := n - 1; tr.Hops > 3*d {
		t.Fatalf("chain route 1->%d took %d hops for distance %d", n, tr.Hops, d)
	}
	if est := s.EstimateDist(1, n); est < n-1 || est > 3*(n-1) {
		t.Fatalf("EstimateDist(1,%d) = %d outside [%d, %d]", n, est, n-1, 3*(n-1))
	}
}

func TestLandmarkDeterminism(t *testing.T) {
	gen := func() *graph.Graph {
		g, err := gengraph.SparseConnected(300, 6, rand.New(rand.NewSource(21)))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g1, g2 := gen(), gen()
	s1, _ := buildOn(t, g1)
	s2, _ := buildOn(t, g2)
	if !bytes.Equal(s1.EncodeTables(), s2.EncodeTables()) {
		t.Fatal("two builds of the same topology encode differently")
	}
}

func TestLandmarkSampleIsEdgeIndependent(t *testing.T) {
	a := sampleLandmarks(500, 23, 42)
	b := sampleLandmarks(500, 23, 42)
	if len(a) != 23 {
		t.Fatalf("want 23 landmarks, got %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("landmark sample not deterministic")
		}
		if i > 0 && a[i] <= a[i-1] {
			t.Fatal("landmark sample not sorted/unique")
		}
	}
}

func TestLandmarkCodecRoundTrip(t *testing.T) {
	g, err := gengraph.SparseConnected(200, 6, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	s, ports := buildOn(t, g)
	enc := s.EncodeTables()
	dec, err := DecodeTables(g, ports, enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.EncodeTables(), enc) {
		t.Fatal("decode→encode is not byte-identical")
	}
	// The decoded scheme answers identically.
	for src := 1; src <= g.N(); src += 7 {
		for dst := 1; dst <= g.N(); dst += 11 {
			if src == dst {
				continue
			}
			if a, b := s.EstimateDist(src, dst), dec.EstimateDist(src, dst); a != b {
				t.Fatalf("EstimateDist(%d,%d) diverges after round-trip: %d vs %d", src, dst, a, b)
			}
		}
	}
	checkAllPairs(t, g, dec, ports)
}

// TestLandmarkCodecRejectsCorruption truncates the encoding at every length
// and flips a byte in every header field: all must be rejected, never decoded
// into a scheme with out-of-range tables.
func TestLandmarkCodecRejectsCorruption(t *testing.T) {
	g, err := gengraph.SparseConnected(48, 5, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	s, ports := buildOn(t, g)
	enc := s.EncodeTables()
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeTables(g, ports, enc[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", cut)
		}
	}
	for off := 0; off < tablesHdrLen; off++ {
		bad := append([]byte(nil), enc...)
		bad[off] ^= 0x40
		if _, err := DecodeTables(g, ports, bad); err == nil {
			// A header flip that survives must still decode to identical bytes
			// (e.g. flipping a padding-free field back is impossible here, so
			// any success is a validation hole).
			t.Fatalf("header byte %d flip decoded successfully", off)
		}
	}
}

func TestLandmarkDisconnectedRejected(t *testing.T) {
	g, err := graph.New(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(3, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(g, graph.SortedPorts(g), DefaultOptions()); err == nil {
		t.Fatal("disconnected graph built successfully")
	}
}

// TestLandmarkSpaceSublinear pins the o(n²) claim on the serving topology
// family: total cluster entries stay well under n²/4 and the landmark tables
// are Θ(n^{3/2}) fields.
func TestLandmarkSpaceSublinear(t *testing.T) {
	const n = 1024
	g, err := gengraph.SparseConnected(n, 8, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	s, _ := buildOn(t, g)
	if ct := s.TotalClusterEntries(); ct >= n*n/4 {
		t.Fatalf("cluster tables hold %d entries — not sublinear in n² = %d", ct, n*n)
	}
	if got := len(s.EncodeTables()); got >= n*n {
		t.Fatalf("encoded tables are %d bytes, ≥ n² = %d", got, n*n)
	}
}

func TestLandmarkRouteRejectsBadLabels(t *testing.T) {
	g, err := gengraph.GnHalf(32, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	s, _ := buildOn(t, g)
	env := fakeEnv{}
	if _, _, err := s.Route(1, env, routing.Label{ID: 2}, 0, 0); err == nil {
		t.Fatal("label without Aux accepted")
	}
	if _, _, err := s.Route(1, env, routing.Label{ID: 0, Aux: []int{1, 1}}, 0, 0); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
	// A destination outside node 1's cluster whose label names a non-landmark
	// must be rejected, not misrouted.
	nonLM := 0
	for x := 2; x <= g.N(); x++ {
		if s.lmIdx[x] < 0 {
			nonLM = x
			break
		}
	}
	for v := 2; v <= g.N(); v++ {
		if s.clusterPortTo(1, v) != 0 && nonLM != 0 {
			continue
		}
		if nonLM == 0 {
			t.Skip("every node is a landmark on this graph")
		}
		if _, _, err := s.Route(1, env, routing.Label{ID: v, Aux: []int{nonLM, 1}}, 0, 0); err == nil {
			t.Fatal("label naming a non-landmark accepted")
		}
		break
	}
}

// fakeEnv grants nothing: the neighbour check always misses, forcing Route
// into its table cases.
type fakeEnv struct{}

func (fakeEnv) Node() int                                     { return 0 }
func (fakeEnv) Degree() int                                   { return 0 }
func (fakeEnv) NeighborLabelByPort(int) (routing.Label, bool) { return routing.Label{}, false }
func (fakeEnv) PortOfNeighbor(int) (int, bool)                { return 0, false }
func (fakeEnv) KnownNeighborIDs() ([]int, bool)               { return nil, false }

var benchScheme *Scheme

// BenchmarkBuildSparse4096 is the tables-tier rebuild a churn-shard-n4096
// flip pays on every member: SparseConnected(4096, 8), sorted ports, default
// options.
func BenchmarkBuildSparse4096(b *testing.B) {
	g, err := gengraph.SparseConnected(4096, 8, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	ports := graph.SortedPorts(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Build(g, ports, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		benchScheme = s
	}
}

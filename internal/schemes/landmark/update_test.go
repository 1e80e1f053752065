package landmark

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"routetab/internal/gengraph"
	"routetab/internal/graph"
	"routetab/internal/keyspace"
	"routetab/internal/shortestpath"
)

// buildRestricted is the reference Update must match: a full Build of g,
// restricted to owned when owned is non-nil.
func buildRestricted(g *graph.Graph, opt Options, owned *keyspace.Set) (*Scheme, error) {
	s, err := Build(g, graph.SortedPorts(g), opt)
	if err != nil {
		return nil, err
	}
	if owned != nil {
		if err := s.Restrict(owned); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// flipUpdate flips {x,y} on a clone of g and requires Update from prev to
// equal a fresh Build+Restrict of the clone: byte-identical tables and
// identical scheme state, or both refusing a disconnecting flip. With decode
// set, Update starts from prev decoded from its own tables, as a replica
// that bootstrapped from shipped state does. It returns the new scheme and
// graph, or prev and g when the flip was refused.
func flipUpdate(t testing.TB, prev *Scheme, g *graph.Graph, x, y int, opt Options, owned *keyspace.Set, decode bool) (*Scheme, *graph.Graph) {
	t.Helper()
	prevPorts := graph.SortedPorts(g)
	if decode {
		dec, err := DecodeTables(g, prevPorts, prev.EncodeTables())
		if err != nil {
			t.Fatalf("decode prev: %v", err)
		}
		prev = dec
	}
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
	want, werr := buildRestricted(next, opt, owned)
	got, gerr := Update(prev, prevPorts, next, graph.SortedPorts(next), x, y)
	if werr != nil {
		if !errors.Is(werr, ErrDisconnected) {
			t.Fatalf("flip {%d,%d}: build: %v", x, y, werr)
		}
		if !errors.Is(gerr, ErrDisconnected) {
			t.Fatalf("flip {%d,%d}: build refused (%v), update gave %v", x, y, werr, gerr)
		}
		return prev, g
	}
	if gerr != nil {
		t.Fatalf("flip {%d,%d}: update: %v", x, y, gerr)
	}
	if !bytes.Equal(got.EncodeTables(), want.EncodeTables()) {
		t.Fatalf("flip {%d,%d}: updated tables differ from a full build", x, y)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flip {%d,%d}: updated scheme state differs from a full build", x, y)
	}
	return got, next
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

// ownedModes are the restrictions every chain runs under: none, the lower
// half of the nodes, and a seeded random half.
var ownedModes = []struct {
	name  string
	owned func(n int, rng *rand.Rand) *keyspace.Set
}{
	{"all", func(int, *rand.Rand) *keyspace.Set { return nil }},
	{"half", func(n int, _ *rand.Rand) *keyspace.Set {
		s, _ := keyspace.New(n)
		for u := 1; u <= (n+1)/2; u++ {
			s.Add(u)
		}
		return s
	}},
	{"random", func(n int, rng *rand.Rand) *keyspace.Set {
		s, _ := keyspace.New(n)
		s.Add(1 + rng.Intn(n))
		for u := 1; u <= n; u++ {
			if rng.Intn(2) == 0 {
				s.Add(u)
			}
		}
		return s
	}},
}

// TestUpdateMatchesBuild chains Update over seeded churn on every graph
// family, owned set and starting point, and compares each step with a fresh
// Build+Restrict.
func TestUpdateMatchesBuild(t *testing.T) {
	families := []struct {
		name  string
		flips int
		mk    func(rng *rand.Rand) (*graph.Graph, error)
	}{
		{"gnhalf40", 24, func(rng *rand.Rand) (*graph.Graph, error) { return gengraph.GnHalf(40, rng) }},
		{"sparse300", 24, func(rng *rand.Rand) (*graph.Graph, error) { return gengraph.SparseConnected(300, 8, rng) }},
		{"sparse2048", 4, func(rng *rand.Rand) (*graph.Graph, error) { return gengraph.SparseConnected(2048, 8, rng) }},
		{"sparse400deg2.5", 24, func(rng *rand.Rand) (*graph.Graph, error) { return gengraph.SparseConnected(400, 2.5, rng) }},
		{"chain50", 24, func(*rand.Rand) (*graph.Graph, error) { return gengraph.Chain(50) }},
		{"cycle50", 24, func(*rand.Rand) (*graph.Graph, error) { return gengraph.Cycle(50) }},
		{"grid7x9", 24, func(*rand.Rand) (*graph.Graph, error) { return gengraph.Grid(7, 9) }},
		{"grid3x20", 24, func(*rand.Rand) (*graph.Graph, error) { return gengraph.Grid(3, 20) }},
		{"tree60", 24, func(rng *rand.Rand) (*graph.Graph, error) { return gengraph.RandomTree(60, rng) }},
		{"star40", 24, func(*rand.Rand) (*graph.Graph, error) { return gengraph.Star(40) }},
	}
	opt := DefaultOptions()
	for fi, fam := range families {
		for oi, om := range ownedModes {
			for _, decode := range []bool{false, true} {
				name := fam.name + "/" + om.name + "/fresh"
				if decode {
					name = fam.name + "/" + om.name + "/decoded"
				}
				t.Run(name, func(t *testing.T) {
					if testing.Short() && fam.flips < 24 {
						t.Skip("large family skipped in -short")
					}
					rng := rand.New(rand.NewSource(int64(100*fi + oi)))
					g, err := fam.mk(rng)
					if err != nil {
						t.Fatal(err)
					}
					owned := om.owned(g.N(), rng)
					prev, err := buildRestricted(g, opt, owned)
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < fam.flips; i++ {
						x, y := randomFlip(g, rng)
						prev, g = flipUpdate(t, prev, g, x, y, opt, owned, decode)
					}
				})
			}
		}
	}
}

// TestSkipRulesExact pins both skip rules to their statements, computed
// independently with shortestpath.BFS on the graph before the flip: a column
// is kept iff d(a,x) = d(a,y), or the flip removes an edge that is not the
// farther endpoint's BFS parent edge and that endpoint is owned; a
// destination is dirty iff home(v) changed with an old or new limit of at
// least 2, or min(d(v,x), d(v,y)) < home(v)−1 with that limit at least 2.
// The equality tests cannot see a rule that recomputes too much; this one
// can.
func TestSkipRulesExact(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, err := gengraph.SparseConnected(200, 3+float64(seed), rng)
		if err != nil {
			t.Fatal(err)
		}
		owned := ownedModes[int(seed)%len(ownedModes)].owned(g.N(), rng)
		prev, err := buildRestricted(g, DefaultOptions(), owned)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			x, y := randomFlip(g, rng)
			added := !g.HasEdge(x, y)
			prevPorts := graph.SortedPorts(g)
			for j, a := range prev.landmarks {
				res, err := shortestpath.BFS(g, int(a))
				if err != nil {
					t.Fatal(err)
				}
				near, far := x, y
				if res.Dist[x] > res.Dist[y] {
					near, far = y, x
				}
				want := res.Dist[x] == res.Dist[y] ||
					!added && res.Parent[far] != near && (owned == nil || owned.Has(far))
				if got := keepColumn(prev, prevPorts, x, y, j, added); got != want {
					t.Fatalf("seed %d flip {%d,%d} landmark %d: keepColumn = %v, want %v", seed, x, y, a, got, want)
				}
			}
			s, next := flipUpdate(t, prev, g, x, y, DefaultOptions(), owned, false)
			if s == prev {
				continue
			}
			dx, err := shortestpath.BFS(g, x)
			if err != nil {
				t.Fatal(err)
			}
			dy, err := shortestpath.BFS(g, y)
			if err != nil {
				t.Fatal(err)
			}
			dirty := s.dirtyDestinations(prev, newPortIndex(next, graph.SortedPorts(next)), x, y)
			for v := 1; v <= g.N(); v++ {
				oldLimit, limit := int(prev.homeDist[v])-1, int(s.homeDist[v])-1
				want := limit >= 2 && min(dx.Dist[v], dy.Dist[v]) < limit
				if oldLimit != limit {
					want = oldLimit >= 2 || limit >= 2
				}
				if dirty[v] != want {
					t.Fatalf("seed %d flip {%d,%d} destination %d: dirty = %v, want %v", seed, x, y, v, dirty[v], want)
				}
			}
			prev, g = s, next
		}
	}
}

// TestUpdateRejectsForeignFlip: Update refuses a graph that does not differ
// from the scheme's by the named edge, and port views that are not sorted.
func TestUpdateRejectsForeignFlip(t *testing.T) {
	g, err := gengraph.SparseConnected(60, 4, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	ports := graph.SortedPorts(g)
	prev, err := Build(g, ports, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	e := g.Edges()[0]
	if _, err := Update(prev, ports, g, ports, e[0], e[1]); err == nil {
		t.Fatal("update across an unflipped edge succeeded")
	}
	next := g.Clone()
	if err := next.RemoveEdge(e[0], e[1]); err != nil {
		t.Fatal(err)
	}
	random := graph.RandomPorts(next, rand.New(rand.NewSource(1)))
	if _, err := Update(prev, ports, next, random, e[0], e[1]); err == nil {
		t.Fatal("update onto random ports succeeded")
	}
	if _, err := Update(prev, ports, next, graph.SortedPorts(next), e[0], e[0]); err == nil {
		t.Fatal("update across a self loop succeeded")
	}
}

// FuzzUpdateMatchesBuild chains Update over fuzzed flips of a small graph
// and requires every step to match a fresh Build+Restrict.
//
// Layout: data[0] picks n = 2 + data[0]%38; data[1] picks K = data[1]%(n+3);
// data[2] picks the owned set (low two bits: all, lower half, or seeded
// random), whether each update starts from decoded tables (bit 2), and the
// density of random edges laid over a path 1–2–…–n (the top five bits, in
// 32nds). The remaining bytes, two at a time, name the flipped pairs.
func FuzzUpdateMatchesBuild(f *testing.F) {
	f.Add([]byte{10, 0, 0x00, 1, 2})
	f.Add([]byte{20, 3, 0x41, 1, 7, 2, 9, 3, 4, 7, 1})
	f.Add([]byte{30, 0, 0x86, 5, 6, 6, 7, 29, 1, 14, 15, 14, 15})
	f.Add([]byte{37, 39, 0xf3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{12, 1, 0x0c, 11, 0, 0, 11, 3, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 2 + int(data[0])%38
		opt := Options{Seed: int64(data[0]), K: int(data[1]) % (n + 3)}
		mode := data[2]
		rng := rand.New(rand.NewSource(int64(mode) ^ int64(n)<<8))
		g, err := graph.New(n)
		if err != nil {
			t.Fatal(err)
		}
		p := float64(mode>>3) / 32
		for u := 1; u <= n; u++ {
			for v := u + 1; v <= n; v++ {
				if v == u+1 || rng.Float64() < p {
					if err := g.AddEdge(u, v); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		owned := ownedModes[int(mode&3)%len(ownedModes)].owned(n, rng)
		prev, err := buildRestricted(g, opt, owned)
		if err != nil {
			t.Fatal(err)
		}
		for i := 3; i+1 < len(data); i += 2 {
			x, y := 1+int(data[i])%n, 1+int(data[i+1])%n
			if x != y {
				prev, g = flipUpdate(t, prev, g, x, y, opt, owned, mode&4 != 0)
			}
		}
	})
}

// BenchmarkUpdateSparse4096 times Update across single flips of the
// benchmark's n=4096 sparse graph, restricted to half the nodes like one of
// two shard groups; BenchmarkBuildSparse4096 is the full build it replaces.
func BenchmarkUpdateSparse4096(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, err := gengraph.SparseConnected(4096, 8, rng)
	if err != nil {
		b.Fatal(err)
	}
	owned := ownedModes[1].owned(g.N(), rng)
	prev, err := buildRestricted(g, DefaultOptions(), owned)
	if err != nil {
		b.Fatal(err)
	}
	prevPorts := graph.SortedPorts(g)
	type flip struct {
		g     *graph.Graph
		ports *graph.Ports
		x, y  int
	}
	var flips []flip
	for len(flips) < 16 {
		x, y := randomFlip(g, rng)
		next := g.Clone()
		if next.HasEdge(x, y) {
			_ = next.RemoveEdge(x, y)
		} else {
			_ = next.AddEdge(x, y)
		}
		if next.IsConnected() {
			flips = append(flips, flip{next, graph.SortedPorts(next), x, y})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := flips[i%len(flips)]
		s, err := Update(prev, prevPorts, f.g, f.ports, f.x, f.y)
		if err != nil {
			b.Fatal(err)
		}
		benchScheme = s
	}
}

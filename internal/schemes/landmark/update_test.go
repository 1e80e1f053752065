package landmark

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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
// identical scheme state, or both refusing a disconnecting flip. Either way
// Update must leave prev's tables and labels as they were: a published
// scheme is never written. With decode set, Update starts from prev decoded
// from its own tables, as a replica that bootstrapped from shipped state
// does. It returns the new scheme and graph, or prev and g when the flip was
// refused.
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
	next := flipped(t, g, x, y)
	want, werr := buildRestricted(next, opt, owned)
	tables, labels := prev.EncodeTables(), labelFields(prev)
	got, gerr := Update(prev, prevPorts, next, graph.SortedPorts(next), x, y)
	if !bytes.Equal(prev.EncodeTables(), tables) || !slices.Equal(labelFields(prev), labels) {
		t.Fatalf("flip {%d,%d}: update (err %v) wrote the previous scheme", x, y, gerr)
	}
	requireFingerprint(t, prev, tables)
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
	requireFingerprint(t, got, got.EncodeTables())
	if dirty, rule := dirtyOf(t, prev, next, x, y), dirtyRule(got, prev, next, x, y); !slices.Equal(dirty, rule) {
		t.Fatalf("flip {%d,%d}: dirty destinations %v, the rule gives %v", x, y, trueAt(dirty), trueAt(rule))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flip {%d,%d}: updated scheme state differs from a full build", x, y)
	}
	return got, next
}

// requireFingerprint requires s's stored tables fingerprint to be the one
// BlobCRC derives from its assembled encoding tables, and the one its pages'
// bytes give now.
func requireFingerprint(t testing.TB, s *Scheme, tables []byte) {
	t.Helper()
	crc, err := BlobCRC(tables)
	if err != nil {
		t.Fatalf("fingerprint of the assembled tables: %v", err)
	}
	if s.TablesCRC() != crc || s.RehashTables() != crc {
		t.Fatalf("stored fingerprint %08x, rehashed %08x, of the assembled tables %08x", s.TablesCRC(), s.RehashTables(), crc)
	}
}

// dirtyOf runs Update's repairs of the flip {x,y} from prev to the graph
// next and returns the destinations its cluster rule marks dirty, indexed
// by node.
func dirtyOf(t testing.TB, prev *Scheme, next *graph.Graph, x, y int) []bool {
	t.Helper()
	r := newRepair(prev.derive(), prev, next, x, y, next.HasEdge(x, y))
	defer r.release()
	for j := range prev.landmarks {
		if err := r.column(j); err != nil {
			t.Fatalf("flip {%d,%d}: %v", x, y, err)
		}
	}
	r.homes()
	r.eports()
	dirty := make([]bool, prev.n+1)
	for _, v := range r.dirtyDestinations() {
		dirty[v] = true
	}
	return dirty
}

// dirtyRule computes the cluster rule directly, the reference Update's
// dirtyDestinations must match: a scan of every node's old and new home
// distances, and a BFS from {x,y} in next to the deepest limit of an
// unchanged home. s holds the new homes, prev the old.
func dirtyRule(s, prev *Scheme, next *graph.Graph, x, y int) []bool {
	n := s.n
	dirty := make([]bool, n+1)
	var reach int32
	for v := 1; v <= n; v++ {
		if d := s.homeDist.cell(v - 1); d == prev.homeDist.cell(v-1) {
			reach = max(reach, d-2)
		}
	}
	near := make([]int32, n+1)
	for i := range near {
		near[i] = -1
	}
	near[x], near[y] = 0, 0
	queue := []int32{int32(x), int32(y)}
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		if near[u] == reach {
			continue
		}
		for _, w := range next.Neighbors(int(u)) {
			if near[w] < 0 {
				near[w] = near[u] + 1
				queue = append(queue, int32(w))
			}
		}
	}
	for v := 1; v <= n; v++ {
		oldLimit, limit := prev.homeDist.cell(v-1)-1, s.homeDist.cell(v-1)-1
		if oldLimit != limit {
			dirty[v] = oldLimit >= 2 || limit >= 2
		} else {
			dirty[v] = limit >= 2 && near[v] >= 0 && near[v] < limit
		}
	}
	return dirty
}

// trueAt lists the indices at which b is set.
func trueAt(b []bool) []int {
	var out []int
	for i, v := range b {
		if v {
			out = append(out, i)
		}
	}
	return out
}

// labelFields copies every label's ID and Aux fields out of s.
func labelFields(s *Scheme) [][3]int {
	out := make([][3]int, s.n+1)
	for u := 1; u <= s.n; u++ {
		l := s.Label(u)
		out[u] = [3]int{l.ID, l.Aux[0], l.Aux[1]}
	}
	return out
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
// family, owned set and starting point, compares each step with a fresh
// Build+Restrict, and checks that no step, refused or not, wrote the scheme
// it started from.
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

// TestSkipRulesExact pins the cluster rule to its statement, computed
// independently with shortestpath.BFS on the graph before the flip: a
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
			dirty := dirtyOf(t, prev, next, x, y)
			for v := 1; v <= g.N(); v++ {
				_, oldHome := prev.Home(v)
				_, home := s.Home(v)
				oldLimit, limit := oldHome-1, home-1
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
// and requires every step to match a fresh Build+Restrict and to leave the
// previous scheme's tables and labels untouched, refused flips included.
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
	// A cycle 1–…–20–1, then removals: {10,11} raises the nodes past it in
	// every column, and {5,6} disconnects, which both sides refuse.
	f.Add([]byte{18, 2, 0x00, 0, 19, 9, 10, 4, 5})
	f.Add([]byte{18, 0, 0x05, 0, 19, 9, 10, 4, 5, 2, 3})
	// The path alone: every removal disconnects; additions then shortcut
	// it, and removals of the shortcuts raise whole segments.
	f.Add([]byte{30, 3, 0x02, 6, 7, 0, 20, 3, 25, 0, 20, 3, 25, 6, 7})
	// One node's pairs with twelve others, its path edges among them,
	// toggled in turn on a sparse half-owned graph replayed from decoded
	// tables.
	f.Add([]byte{24, 1, 0x35, 7, 0, 7, 1, 7, 2, 7, 3, 7, 4, 7, 5, 7, 6, 7, 8, 7, 9, 7, 10, 7, 11})
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

// mixedFlip draws one flip the way perfbench's schedules do: with equal
// odds the addition of an absent pair, or the removal of an edge at a random
// node of degree at least 2 whose other end also has degree at least 2 and
// whose loss keeps g connected. It leaves g unchanged.
func mixedFlip(g *graph.Graph, rng *rand.Rand) (x, y int) {
	n := g.N()
	for {
		u, v := rng.Intn(n)+1, rng.Intn(n)+1
		if u == v {
			continue
		}
		if rng.Intn(2) == 0 {
			if !g.HasEdge(u, v) {
				return u, v
			}
			continue
		}
		nb := g.Neighbors(u)
		if len(nb) < 2 {
			continue
		}
		if v = nb[rng.Intn(len(nb))]; g.Degree(v) < 2 {
			continue
		}
		next := g.Clone()
		if err := next.RemoveEdge(u, v); err == nil && next.IsConnected() {
			return u, v
		}
	}
}

// flipped returns a clone of g with {x,y} toggled.
func flipped(tb testing.TB, g *graph.Graph, x, y int) *graph.Graph {
	tb.Helper()
	next := g.Clone()
	var err error
	if next.HasEdge(x, y) {
		err = next.RemoveEdge(x, y)
	} else {
		err = next.AddEdge(x, y)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return next
}

// TestRepairIsLocal counts, not times, what the column repairs do on
// seeded SparseConnected(n, 8) churn with perfbench's mixed flips and half
// the nodes owned: no flip may touch n nodes, what one column's full BFS
// visits, so a rule that reruns whole columns fails, and the nodes touched
// per flip must grow less than 16× from n = 1024 to n = 16384, the growth
// of n itself.
func TestRepairIsLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("n=16384 build skipped in -short")
	}
	const flips = 16
	mean := map[int]float64{}
	for _, n := range []int{1024, 16384} {
		rng := rand.New(rand.NewSource(9))
		g, err := gengraph.SparseConnected(n, 8, rng)
		if err != nil {
			t.Fatal(err)
		}
		owned := ownedModes[1].owned(n, rng)
		prev, err := buildRestricted(g, DefaultOptions(), owned)
		if err != nil {
			t.Fatal(err)
		}
		touched := 0
		for i := 0; i < flips; i++ {
			x, y := mixedFlip(g, rng)
			next := flipped(t, g, x, y)
			s, visited, err := update(prev, graph.SortedPorts(g), next, graph.SortedPorts(next), x, y)
			if err != nil {
				t.Fatalf("n=%d flip {%d,%d}: %v", n, x, y, err)
			}
			if visited >= n {
				t.Fatalf("n=%d flip {%d,%d}: %d nodes touched, as many as a full column BFS visits", n, x, y, visited)
			}
			touched += visited
			prev, g = s, next
		}
		mean[n] = float64(touched) / flips
		t.Logf("n=%d: %.0f nodes touched per flip", n, mean[n])
	}
	if r := mean[16384] / mean[1024]; r >= 16 {
		t.Fatalf("touched per flip grew %.1f× from n=1024 to n=16384, want < 16×", r)
	}
}

// BenchmarkUpdateSparse times Update across single mixed flips of
// SparseConnected(n, 8), restricted to half the nodes like one of
// churn-shard-n4096's two shard groups; n=4096 is that workload's graph.
// BenchmarkBuildSparse4096 is the full build Update replaces.
func BenchmarkUpdateSparse(b *testing.B) {
	for _, n := range []int{1024, 4096, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			g, err := gengraph.SparseConnected(n, 8, rng)
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
				x, y := mixedFlip(g, rng)
				next := flipped(b, g, x, y)
				flips = append(flips, flip{next, graph.SortedPorts(next), x, y})
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
		})
	}
}

// BenchmarkCloneFlipDiff times what an engine flip does to the adjacency
// around Update: clone the published graph, flip one mixed pair on the
// clone, and find the flip with graph.Diff. With copy-on-write row pages
// that reads page pointers and the two copied pages, not the n² bitset.
func BenchmarkCloneFlipDiff(b *testing.B) {
	for _, n := range []int{4096, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			g, err := gengraph.SparseConnected(n, 8, rng)
			if err != nil {
				b.Fatal(err)
			}
			var pairs [][2]int
			for len(pairs) < 16 {
				x, y := mixedFlip(g, rng)
				pairs = append(pairs, [2]int{x, y})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				next := flipped(b, g, p[0], p[1])
				if adds, removes := graph.Diff(g, next); len(adds)+len(removes) != 1 {
					b.Fatalf("flip of %v diffs as %v, %v", p, adds, removes)
				}
			}
		})
	}
}

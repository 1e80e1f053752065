package landmark

// The landmark builder as it stood before the single-pass rewrite, kept
// verbatim as the oracle for TestBuildMatchesReference and
// FuzzBuildMatchesReference: two BFS passes per landmark through
// shortestpath.BFS (the second only to walk parent chains for eport),
// map-backed Ports.PortTo lookups, and a comparison sort of cluster entries.
// Only the names differ from the original.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"routetab/internal/gengraph"
	"routetab/internal/graph"
	"routetab/internal/keyspace"
	"routetab/internal/shortestpath"
)

// referenceBuild is the pre-rewrite Build.
func referenceBuild(g *graph.Graph, ports *graph.Ports, opt Options) (*Scheme, error) {
	n := g.N()
	if n < 1 {
		return nil, fmt.Errorf("landmark: empty graph")
	}
	if n > 65535 {
		return nil, fmt.Errorf("%w: n = %d", ErrTooLarge, n)
	}
	if err := ports.Validate(g); err != nil {
		return nil, fmt.Errorf("landmark: %w", err)
	}
	k := opt.K
	if k <= 0 {
		k = int(math.Ceil(math.Sqrt(float64(n))))
	}
	if k > n {
		k = n
	}
	s := &Scheme{
		n:         n,
		k:         k,
		landmarks: sampleLandmarks(n, k, opt.Seed),
		homeIdx:   make([]int32, n+1),
		homeDist:  make([]int32, n+1),
		eport:     make([]int32, n+1),
		lmIdx:     make([]int32, n+1),
		lmPort:    make([]int32, n*k),
		lmDist:    make([]int32, n*k),
	}
	for v := range s.lmIdx {
		s.lmIdx[v] = -1
	}
	for j, a := range s.landmarks {
		s.lmIdx[a] = int32(j)
	}

	// Pass 1: one BFS per landmark fills the distance/port columns.
	for j, a := range s.landmarks {
		res, err := shortestpath.BFS(g, int(a))
		if err != nil {
			return nil, fmt.Errorf("landmark: %w", err)
		}
		for u := 1; u <= n; u++ {
			d := res.Dist[u]
			if d == shortestpath.Unreachable {
				return nil, fmt.Errorf("%w: node %d cannot reach landmark %d", ErrDisconnected, u, a)
			}
			at := (u-1)*k + j
			s.lmDist[at] = int32(d)
			if u != int(a) {
				// Parent[u] is u's neighbour one step closer to the landmark.
				port, err := ports.PortTo(u, res.Parent[u])
				if err != nil {
					return nil, fmt.Errorf("landmark: %w", err)
				}
				s.lmPort[at] = int32(port)
			}
		}
	}

	// Nearest landmark per node; ties resolve to the smallest landmark id
	// because landmarks are sorted and the scan keeps strict improvements.
	for v := 1; v <= n; v++ {
		best := int32(0)
		for j := 1; j < k; j++ {
			if s.lmDist[(v-1)*k+j] < s.lmDist[(v-1)*k+int(best)] {
				best = int32(j)
			}
		}
		s.homeIdx[v] = best
		s.homeDist[v] = s.lmDist[(v-1)*k+int(best)]
	}

	// Pass 2: one more BFS per landmark recovers eport(v) — the first hop at
	// ℓ(v) toward v — for the nodes homed there, by walking the BFS parent
	// chain from v up to the landmark's child.
	for j, a := range s.landmarks {
		res, err := shortestpath.BFS(g, int(a))
		if err != nil {
			return nil, fmt.Errorf("landmark: %w", err)
		}
		for v := 1; v <= n; v++ {
			if s.homeIdx[v] != int32(j) || v == int(a) {
				continue
			}
			x := v
			for res.Parent[x] != int(a) {
				x = res.Parent[x]
			}
			port, err := ports.PortTo(int(a), x)
			if err != nil {
				return nil, fmt.Errorf("landmark: %w", err)
			}
			s.eport[v] = int32(port)
		}
	}

	if err := s.referenceBuildClusters(g, ports); err != nil {
		return nil, err
	}
	s.buildLabels()
	return s, nil
}

// refClusterEntry is one (holder, destination) pair during construction.
type refClusterEntry struct{ w, v, port, dist int32 }

// referenceBuildClusters runs a truncated BFS from every destination v to depth
// home(v)−1: each discovered node w with 2 ≤ d(v,w) < home(v) stores an
// entry for v whose port is w's BFS parent edge (a first hop on a shortest
// w→v path). Entries are then sorted into per-node CSR rows.
func (s *Scheme) referenceBuildClusters(g *graph.Graph, ports *graph.Ports) error {
	n := s.n
	dist := make([]int32, n+1)
	parent := make([]int32, n+1)
	queue := make([]int32, 0, n)
	touched := make([]int32, 0, n)
	for i := range dist {
		dist[i] = -1
	}
	var entries []refClusterEntry
	for v := 1; v <= n; v++ {
		limit := s.homeDist[v] - 1
		if limit < 2 {
			continue // cluster holds only the neighbours, which store nothing
		}
		queue = queue[:0]
		touched = touched[:0]
		dist[v] = 0
		queue = append(queue, int32(v))
		touched = append(touched, int32(v))
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			du := dist[u]
			if du == limit {
				continue
			}
			for _, w := range g.Neighbors(int(u)) {
				if dist[w] >= 0 {
					continue
				}
				dist[w] = du + 1
				parent[w] = u
				queue = append(queue, int32(w))
				touched = append(touched, int32(w))
				if dist[w] >= 2 {
					port, err := ports.PortTo(w, int(parent[w]))
					if err != nil {
						return fmt.Errorf("landmark: %w", err)
					}
					entries = append(entries, refClusterEntry{
						w: int32(w), v: int32(v), port: int32(port), dist: dist[w],
					})
				}
			}
		}
		for _, t := range touched {
			dist[t] = -1
		}
	}
	// Canonical order: by holder, then destination. Keys are unique, so the
	// result is deterministic regardless of discovery order.
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].w != entries[j].w {
			return entries[i].w < entries[j].w
		}
		return entries[i].v < entries[j].v
	})
	s.clusterStart = make([]int32, n+1)
	s.clusterDst = make([]int32, len(entries))
	s.clusterPort = make([]int32, len(entries))
	s.clusterDist = make([]int32, len(entries))
	for i, e := range entries {
		s.clusterStart[e.w]++
		s.clusterDst[i] = e.v
		s.clusterPort[i] = e.port
		s.clusterDist[i] = e.dist
	}
	for u := 1; u <= n; u++ {
		s.clusterStart[u] += s.clusterStart[u-1]
	}
	return nil
}

// portModes are the port assignments every differential case is built under:
// the canonical sorted assignment, a seeded adversarial shuffle, and explicit
// per-node permutations.
var portModes = []struct {
	name  string
	ports func(g *graph.Graph, seed int64) (*graph.Ports, error)
}{
	{"sorted", func(g *graph.Graph, _ int64) (*graph.Ports, error) { return graph.SortedPorts(g), nil }},
	{"random", func(g *graph.Graph, seed int64) (*graph.Ports, error) {
		return graph.RandomPorts(g, rand.New(rand.NewSource(seed))), nil
	}},
	{"permuted", func(g *graph.Graph, seed int64) (*graph.Ports, error) {
		rng := rand.New(rand.NewSource(^seed))
		perms := make([][]int, g.N()+1)
		for u := 1; u <= g.N(); u++ {
			perms[u] = rng.Perm(g.Degree(u))
		}
		return graph.PermutedPorts(g, perms)
	}},
}

// requireSameBuild builds (g, ports, opt) with Build and referenceBuild and
// requires the same error text, or byte-identical encoded tables, identical
// labels and identical scheme state. It returns both schemes (nil on error).
func requireSameBuild(t testing.TB, g *graph.Graph, ports *graph.Ports, opt Options) (got, want *Scheme) {
	t.Helper()
	want, wantErr := referenceBuild(g, ports, opt)
	got, err := Build(g, ports, opt)
	if wantErr != nil || err != nil {
		if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("Build error %v, reference error %v", err, wantErr)
		}
		if errors.Is(wantErr, ErrDisconnected) != errors.Is(err, ErrDisconnected) {
			t.Fatalf("Build error %v does not match ErrDisconnected like %v", err, wantErr)
		}
		return nil, nil
	}
	if !bytes.Equal(got.EncodeTables(), want.EncodeTables()) {
		t.Fatal("encoded tables differ from the reference builder")
	}
	for u := 1; u <= g.N(); u++ {
		if !reflect.DeepEqual(got.Label(u), want.Label(u)) {
			t.Fatalf("Label(%d) = %+v, reference %+v", u, got.Label(u), want.Label(u))
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("scheme state differs from the reference builder")
	}
	return got, want
}

// requireSameRestrict restricts both schemes to owned and requires
// byte-identical LMTB2 encodings.
func requireSameRestrict(t testing.TB, got, want *Scheme, owned *keyspace.Set) {
	t.Helper()
	if err := want.Restrict(owned); err != nil {
		t.Fatal(err)
	}
	if err := got.Restrict(owned); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.EncodeTables(), want.EncodeTables()) {
		t.Fatalf("restricted tables differ from the reference builder (owned %v)", owned)
	}
}

// TestBuildMatchesReference: the single-pass builder (CSR port index, one BFS
// per landmark, counting-sort scatter) produces exactly the reference
// builder's tables — LMTB1 bytes, every label, and LMTB2 bytes after
// restriction to seeded owned sets — across graph families, port
// assignments and landmark counts, and fails the same way on disconnected
// graphs.
func TestBuildMatchesReference(t *testing.T) {
	type family struct {
		name string
		gen  func() (*graph.Graph, error)
	}
	var families []family
	for _, n := range []int{1, 2, 5, 63, 64, 65, 130, 256} {
		n := n
		families = append(families, family{fmt.Sprintf("gnhalf%d", n), func() (*graph.Graph, error) {
			// The first connected draw from a fixed seed sequence.
			for seed := int64(n); ; seed += 1000 {
				g, err := gengraph.GnHalf(n, rand.New(rand.NewSource(seed)))
				if err != nil || g.IsConnected() {
					return g, err
				}
			}
		}})
	}
	for _, c := range []struct {
		n   int
		deg float64
	}{{40, 3}, {200, 4}, {700, 6}, {2048, 8}} {
		c := c
		families = append(families, family{fmt.Sprintf("sparse%d", c.n), func() (*graph.Graph, error) {
			return gengraph.SparseConnected(c.n, c.deg, rand.New(rand.NewSource(int64(c.n)+1)))
		}})
	}
	families = append(families,
		family{"grid9x11", func() (*graph.Graph, error) { return gengraph.Grid(9, 11) }},
		family{"chain40", func() (*graph.Graph, error) { return gengraph.Chain(40) }},
		family{"cycle40", func() (*graph.Graph, error) { return gengraph.Cycle(40) }},
		family{"cycle41", func() (*graph.Graph, error) { return gengraph.Cycle(41) }},
		family{"star30", func() (*graph.Graph, error) { return gengraph.Star(30) }},
		family{"tree120", func() (*graph.Graph, error) { return gengraph.RandomTree(120, rand.New(rand.NewSource(5))) }},
	)
	for fi, f := range families {
		g, err := f.gen()
		if err != nil {
			t.Fatal(err)
		}
		n := g.N()
		// K=1 and K≥n cost Θ(n²) per build; keep them to the smaller graphs.
		ks := []int{0, 7}
		if n <= 256 {
			ks = append(ks, 1)
		}
		if n <= 130 {
			ks = append(ks, n, n+5)
		}
		for pi, pm := range portModes {
			ports, err := pm.ports(g, int64(31*fi+pi))
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range ks {
				t.Run(fmt.Sprintf("%s/%s/k%d", f.name, pm.name, k), func(t *testing.T) {
					opt := DefaultOptions()
					opt.K = k
					got, want := requireSameBuild(t, g, ports, opt)
					if got == nil {
						t.Fatal("connected family failed to build")
					}
					if pm.name != "sorted" || k != 0 {
						return
					}
					// Restricted encodings: a singleton, seeded random
					// subsets, and the full set, each on fresh builds.
					rng := rand.New(rand.NewSource(int64(n)))
					owned := make([]*keyspace.Set, 0, 4)
					single, _ := keyspace.New(n)
					single.Add(1 + rng.Intn(n))
					full, _ := keyspace.All(n)
					owned = append(owned, single, full)
					for i := 0; i < 2; i++ {
						set, _ := keyspace.New(n)
						for u := 1; u <= n; u++ {
							if rng.Intn(3) == 0 {
								set.Add(u)
							}
						}
						if set.Count() == 0 {
							set.Add(n)
						}
						owned = append(owned, set)
					}
					for i, set := range owned {
						if i > 0 {
							got, want = requireSameBuild(t, g, ports, opt)
						}
						requireSameRestrict(t, got, want, set)
					}
				})
			}
		}
	}

	t.Run("disconnected", func(t *testing.T) {
		for _, mk := range []func() (*graph.Graph, error){
			// Two disjoint halves of a chain: every landmark misses a side.
			func() (*graph.Graph, error) {
				g, err := gengraph.Chain(30)
				if err != nil {
					return nil, err
				}
				return g, g.RemoveEdge(15, 16)
			},
			// One isolated node in an otherwise dense graph.
			func() (*graph.Graph, error) {
				g, err := gengraph.GnHalf(40, rand.New(rand.NewSource(2)))
				if err != nil {
					return nil, err
				}
				for _, w := range g.Neighbors(17) {
					if err := g.RemoveEdge(17, w); err != nil {
						return nil, err
					}
				}
				return g, nil
			},
			// No edges at all.
			func() (*graph.Graph, error) { return graph.New(9) },
		} {
			g, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{0, 1, g.N()} {
				got, _ := requireSameBuild(t, g, graph.SortedPorts(g), Options{Seed: 3, K: k})
				if got != nil {
					t.Fatalf("disconnected graph built with K=%d", k)
				}
			}
		}
	})
}

// FuzzBuildMatchesReference decodes a graph of at most 40 nodes, a port
// assignment and a landmark count from the fuzz bytes and requires the
// single-pass builder to match the reference builder byte for byte (or fail
// with the same error).
//
// Layout: data[0] picks n = 1 + data[0]%40; data[1] picks K = data[1]%(n+6);
// data[2] picks the port mode (low bits) and its seed, and with its top bit
// set lays a path 1–2–…–n under the graph so most inputs are connected; the
// remaining bytes are the adjacency bits of the pairs (u<v) in lexicographic
// order, toggled on top of that path.
func FuzzBuildMatchesReference(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 0})
	f.Add([]byte{4, 0, 0x80})
	f.Add([]byte{9, 3, 0x81, 0xa5, 0x5a, 0xff, 0x00, 0x3c})
	f.Add([]byte{15, 16, 0x82, 0x11, 0x22, 0x44, 0x88, 0x01, 0x02, 0x04, 0x08})
	f.Add([]byte{20, 1, 0x80, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{39, 0, 0x85, 0x13, 0x37, 0xc0, 0xde, 0xbe, 0xef, 0x42, 0x99, 0x07, 0x70})
	f.Add([]byte{39, 45, 0x87, 0x00, 0x00, 0x01, 0x00, 0x00, 0x20})
	f.Add([]byte{30, 7, 0x01, 0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%40
		var k int
		var mode byte
		if len(data) > 1 {
			k = int(data[1]) % (n + 6)
		}
		if len(data) > 2 {
			mode = data[2]
		}
		g, err := graph.New(n)
		if err != nil {
			t.Fatal(err)
		}
		if mode&0x80 != 0 {
			for u := 1; u < n; u++ {
				if err := g.AddEdge(u, u+1); err != nil {
					t.Fatal(err)
				}
			}
		}
		bit := 0
		for u := 1; u <= n; u++ {
			for v := u + 1; v <= n; v++ {
				at := 3 + bit/8
				if at >= len(data) {
					break
				}
				if data[at]>>(bit%8)&1 != 0 {
					if g.HasEdge(u, v) {
						err = g.RemoveEdge(u, v)
					} else {
						err = g.AddEdge(u, v)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				bit++
			}
		}
		pm := portModes[int(mode&0x7f)%len(portModes)]
		ports, err := pm.ports(g, int64(mode>>2))
		if err != nil {
			t.Fatal(err)
		}
		requireSameBuild(t, g, ports, Options{Seed: int64(data[0]), K: k})
	})
}

package landmark

// The oracle for TestBuildMatchesReference and FuzzBuildMatchesReference:
// every table computed from its definition on shortestpath.BFS distances,
// with no BFS tree in sight. A stored port names the smallest-id neighbour
// one step closer to the target (canonicalPort), for landmark-table ports,
// cluster ports and eport alike; homes scan every landmark row; cluster
// entries come from one full BFS per destination and a comparison sort.

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

// canonicalPort returns the port at u toward u's smallest-id neighbour w
// with dist[w] = dist[u]−1, where dist holds BFS distances from the target.
func canonicalPort(g *graph.Graph, ports *graph.Ports, dist []int, u int) (int32, error) {
	for _, w := range g.Neighbors(u) {
		if dist[w] == dist[u]-1 {
			p, err := ports.PortTo(u, w)
			return int32(p), err
		}
	}
	return 0, fmt.Errorf("landmark: node %d has no closer neighbour", u)
}

// referenceBuild builds the scheme from the definitions.
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

	// Landmark table: exact distances, and the canonical port toward each
	// landmark.
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
				if s.lmPort[at], err = canonicalPort(g, ports, res.Dist, u); err != nil {
					return nil, err
				}
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

	// One BFS from every destination v gives eport(v), the canonical port
	// at ℓ(v) toward v, and v's cluster entries.
	var entries []refClusterEntry
	for v := 1; v <= n; v++ {
		res, err := shortestpath.BFS(g, v)
		if err != nil {
			return nil, fmt.Errorf("landmark: %w", err)
		}
		if a := int(s.landmarks[s.homeIdx[v]]); a != v {
			if s.eport[v], err = canonicalPort(g, ports, res.Dist, a); err != nil {
				return nil, err
			}
		}
		limit := int(s.homeDist[v]) - 1
		for w := 1; w <= n; w++ {
			if d := res.Dist[w]; d >= 2 && d <= limit {
				port, err := canonicalPort(g, ports, res.Dist, w)
				if err != nil {
					return nil, err
				}
				entries = append(entries, refClusterEntry{w: int32(w), v: int32(v), port: port, dist: int32(d)})
			}
		}
	}
	s.referenceClusterRows(entries)
	s.buildLabels()
	return s, nil
}

// refClusterEntry is one (holder, destination) pair during construction.
type refClusterEntry struct{ w, v, port, dist int32 }

// referenceClusterRows sorts the entries into per-node CSR rows.
func (s *Scheme) referenceClusterRows(entries []refClusterEntry) {
	n := s.n
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

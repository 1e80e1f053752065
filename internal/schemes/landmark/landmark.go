// Package landmark implements a seeded, deterministic Thorup–Zwick-style
// stretch-3 landmark routing scheme — the sublinear-space construction the
// large-graph serving tier is built on (PAPERS.md: "Compact Routing on
// Internet-Like Graphs", Krioukov/Fall/Yang; "Compact routing schemes",
// Thorup–Zwick).
//
// Construction. A seeded sample A of k ≈ ⌈√n⌉ landmarks is drawn as a pure
// function of (n, seed, k) — never of the edge set, so topology mutations
// cannot perturb the sample. For every node v, ℓ(v) is its nearest landmark
// (ties to the smallest landmark id), and home(v) = d(v, ℓ(v)). Every node u
// stores:
//
//   - a landmark table: the first port on a shortest path from u toward every
//     landmark, with the exact distance (2k entries);
//   - a cluster table: for every destination v with d(u, v) < home(v) and
//     d(u, v) ≥ 2, the first port on a shortest path u→v with the exact
//     distance. (Distance-1 destinations are resolved by the model-II
//     neighbour check and stored nowhere.)
//
// The label of v carries (v, ℓ(v), eport) where eport is the port at ℓ(v)
// toward v. Routing u→v tries, in order: direct neighbour; cluster hit
// (exact shortest path from there on); u == ℓ(v) → eport; otherwise forward
// toward ℓ(v). Every case strictly decreases either d(·, v) or d(·, ℓ(v)),
// so routes terminate, and the detour through ℓ(v) costs at most
// d(u, ℓ(v)) + d(ℓ(v), v) ≤ 3·d(u, v) when v is outside u's cluster — the
// classic stretch-3 argument.
//
// Build runs each step once. One FIFO BFS over sorted neighbour lists from
// each landmark a fills a's landmark-table column: the port stored at u is
// the edge to u's parent in that BFS tree (not, in general, the port to u's
// smallest-id neighbour closer to a). The same BFS carries a's first port
// down the tree, so eport(v) follows the shortestpath.FirstHopRow rule — the
// port toward the smallest-id neighbour of ℓ(v) on a shortest path to v —
// and picks ℓ(v) by scanning landmarks in ascending order, keeping strict
// improvements only. Then a BFS from every destination v, truncated at depth
// home(v)−1, emits v's cluster entries; the port stored at w is the edge to
// w's parent in that BFS. A per-build CSR index of the sorted adjacency,
// holding the port at both ends of every edge, answers every port lookup,
// and since destinations are visited in ascending order a stable counting
// sort by holder lays the entries out as CSR rows directly.
//
// Space. E[Σ_v |C(v)|] ≈ n²/(k+1) for a random landmark sample, so total
// space is O(n·k + n²/k) = O(n^{3/2}) at k = √n — o(n²), the whole point.
// All stored distances are exact int32 BFS distances: the packed uint8
// saturation sentinel of shortestpath.Distances never enters these tables
// (landmark_test.go audits this on diameter ≫ 254 topologies).
package landmark

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"routetab/internal/bitio"
	"routetab/internal/graph"
	"routetab/internal/keyspace"
	"routetab/internal/models"
	"routetab/internal/routing"
)

// Errors.
var (
	// ErrDisconnected indicates the graph has unreachable pairs; landmark
	// tables require every node to reach every landmark.
	ErrDisconnected = errors.New("landmark: graph is disconnected")
	// ErrTooLarge indicates n exceeds the codec's u16 field ceiling.
	ErrTooLarge = errors.New("landmark: n exceeds 65535")
	// ErrBadTables indicates an encoded table blob that failed validation.
	ErrBadTables = errors.New("landmark: bad table encoding")
)

// Options parameterises a build.
type Options struct {
	// Seed derives the landmark sample (with n and K). Fixed per deployment:
	// two engines with the same topology and options build identical tables.
	Seed int64
	// K is the landmark count; 0 means ⌈√n⌉.
	K int
}

// DefaultOptions is what the serve registry builds with.
func DefaultOptions() Options { return Options{Seed: 0x52544c4d} } // "RTLM"

// Scheme is a built landmark scheme. All tables are flat int32 arrays so the
// lookup path (route.go) runs allocation-free.
type Scheme struct {
	n int
	k int

	// landmarks holds the k landmark node ids, sorted ascending.
	landmarks []int32
	// homeIdx[v] is the index in landmarks of ℓ(v); homeDist[v] = d(v, ℓ(v)).
	homeIdx  []int32
	homeDist []int32
	// eport[v] is the port at ℓ(v) on a shortest path toward v (0 when v is
	// its own landmark).
	eport []int32
	// lmIdx[u] is u's index in landmarks, or −1 for non-landmarks.
	lmIdx []int32

	// Landmark table, row-major (u−1)*k + j: first port at u toward
	// landmarks[j] (0 when u is that landmark) and the exact distance.
	lmPort []int32
	lmDist []int32

	// Cluster tables in CSR form: node u's entries are
	// clusterDst/Port/Dist[clusterStart[u-1]:clusterStart[u]], sorted by
	// destination id. An entry (u, v) exists iff 2 ≤ d(u,v) < homeDist[v].
	clusterStart []int32
	clusterDst   []int32
	clusterPort  []int32
	clusterDist  []int32

	// labels pre-builds every node's routing.Label (Aux backed by labelAux)
	// so Label(u) is a plain struct copy on the zero-alloc hot path.
	labels   []routing.Label
	labelAux []int

	// owned restricts the per-source tables to a keyspace shard (restrict.go);
	// nil means every node's tables are present. Non-owned nodes have zeroed
	// lmPort rows and empty cluster rows, and Route refuses them as sources.
	owned *keyspace.Set
}

var _ routing.Scheme = (*Scheme)(nil)

// Build constructs the scheme. The result is a pure function of
// (g, ports, opt): landmark sampling uses only (n, opt), BFS explores sorted
// neighbour lists, and cluster entries are canonically ordered.
func Build(g *graph.Graph, ports *graph.Ports, opt Options) (*Scheme, error) {
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

	x := newPortIndex(g, ports)
	if err := s.buildLandmarkColumns(x); err != nil {
		return nil, err
	}
	s.buildClusters(x)
	s.buildLabels()
	return s, nil
}

// sampleLandmarks draws k distinct node ids by seeded shuffle — a pure
// function of (n, k, seed), independent of the edge set — and sorts them.
func sampleLandmarks(n, k int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed ^ int64(n)*0x9E3779B9))
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i + 1)
	}
	rng.Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	lm := ids[:k:k]
	sort.Slice(lm, func(i, j int) bool { return lm[i] < lm[j] })
	return lm
}

// portIndex is a per-build CSR view of the adjacency with both ends' ports:
// node u's neighbours, in increasing label order, are adj[off[u]:off[u+1]],
// and for the edge at slot e, out[e] is the port at u leading to adj[e] and
// back[e] the port at adj[e] leading back to u. Every port lookup of a build
// is one array read; the index is dropped when Build returns, so it never
// adds to a scheme's resident size.
type portIndex struct {
	off  []int
	adj  []int32
	out  []int32
	back []int32
}

// newPortIndex builds the index in O(m log d): each port is read with
// PortToOK, a binary search of u's row, and each back port by locating u in
// the neighbour's row.
func newPortIndex(g *graph.Graph, ports *graph.Ports) *portIndex {
	n := g.N()
	off := make([]int, n+2)
	for u := 1; u <= n; u++ {
		off[u+1] = off[u] + len(g.Neighbors(u))
	}
	m := off[n+1]
	x := &portIndex{off: off, adj: make([]int32, m), out: make([]int32, m), back: make([]int32, m)}
	for u := 1; u <= n; u++ {
		nb := g.Neighbors(u)
		row, out := x.adj[off[u]:off[u+1]], x.out[off[u]:off[u+1]]
		for i, w := range nb {
			row[i] = int32(w)
			p, _ := ports.PortToOK(u, w) // Build validated ports against g
			out[i] = int32(p)
		}
	}
	for u := 1; u <= n; u++ {
		for e := off[u]; e < off[u+1]; e++ {
			w := x.adj[e]
			i, _ := slices.BinarySearch(x.adj[off[w]:off[w+1]], int32(u))
			x.back[e] = x.out[off[w]+i]
		}
	}
	return x
}

// buildLandmarkColumns runs one FIFO BFS over sorted neighbour rows from
// each landmark a = landmarks[j]. Discovering w from u fills w's landmark
// entry: the exact distance, and as port the edge to u, w's parent in a's
// BFS tree. The same pass carries a's first port down the tree and streams
// the nearest-landmark choice: landmarks are scanned in ascending order and
// only a strictly closer one replaces the home, so ties keep the smallest
// landmark id, and eport(v) is the port at ℓ(v) toward the first hop of its
// BFS tree — the smallest-id neighbour of ℓ(v) on a shortest path to v.
func (s *Scheme) buildLandmarkColumns(x *portIndex) error {
	n, k := s.n, s.k
	off, adj, out, back := x.off, x.adj, x.out, x.back
	// Per-landmark columns, indexed by node: distance from a, port toward
	// the BFS parent, and the port at a toward the node.
	dist := make([]int32, n+1)
	up := make([]int32, n+1)
	hop := make([]int32, n+1)
	queue := make([]int32, 0, n)
	for j, a := range s.landmarks {
		for i := range dist {
			dist[i] = -1
		}
		dist[a], up[a], hop[a] = 0, 0, 0
		queue = append(queue[:0], a)
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			du, hu := dist[u]+1, hop[u]
			lo := off[u]
			for e, w := range adj[lo:off[u+1]] {
				if dist[w] >= 0 {
					continue
				}
				dist[w], up[w] = du, back[lo+e]
				if u == a {
					hop[w] = out[lo+e]
				} else {
					hop[w] = hu
				}
				queue = append(queue, w)
			}
		}
		for u := 1; u <= n; u++ {
			d := dist[u]
			if d < 0 {
				return fmt.Errorf("%w: node %d cannot reach landmark %d", ErrDisconnected, u, a)
			}
			at := (u-1)*k + j
			s.lmDist[at], s.lmPort[at] = d, up[u]
			if j == 0 || d < s.homeDist[u] {
				s.homeIdx[u], s.homeDist[u], s.eport[u] = int32(j), d, hop[u]
			}
		}
	}
	return nil
}

// buildClusters runs a truncated BFS from every destination v to depth
// home(v)−1: each discovered node w with 2 ≤ d(v,w) < home(v) stores an
// entry for v whose port is the edge to w's parent in that BFS (a first hop
// on a shortest w→v path). Destinations are visited in ascending order, so
// a stable counting sort by holder lays the entries out as per-node CSR rows
// sorted by destination.
func (s *Scheme) buildClusters(x *portIndex) {
	n := s.n
	off, adj, back := x.off, x.adj, x.back
	dist := make([]int32, n+1)
	queue := make([]int32, 0, n)
	for i := range dist {
		dist[i] = -1
	}
	// Entry i, in emission order, is held by eHolder[i] for destination
	// eDst[i], with first port ePort[i] at distance eDist[i].
	var eHolder, eDst, ePort, eDist []int32
	for v := int32(1); v <= int32(n); v++ {
		limit := s.homeDist[v] - 1
		if limit < 2 {
			continue // cluster holds only the neighbours, which store nothing
		}
		dist[v] = 0
		queue = append(queue[:0], v)
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			if dist[u] == limit {
				continue
			}
			du := dist[u] + 1
			lo := off[u]
			for e, w := range adj[lo:off[u+1]] {
				if dist[w] >= 0 {
					continue
				}
				dist[w] = du
				queue = append(queue, w)
				if du >= 2 {
					eHolder = append(eHolder, w)
					eDst = append(eDst, v)
					ePort = append(ePort, back[lo+e])
					eDist = append(eDist, du)
				}
			}
		}
		for _, t := range queue {
			dist[t] = -1
		}
	}
	// clusterStart[u] counts then prefix-sums to the end of u's row; next[u]
	// is the write cursor of u's row during the stable scatter.
	s.clusterStart = make([]int32, n+1)
	for _, w := range eHolder {
		s.clusterStart[w]++
	}
	for u := 1; u <= n; u++ {
		s.clusterStart[u] += s.clusterStart[u-1]
	}
	next := make([]int32, n+1)
	copy(next[1:], s.clusterStart[:n])
	s.clusterDst = make([]int32, len(eHolder))
	s.clusterPort = make([]int32, len(eHolder))
	s.clusterDist = make([]int32, len(eHolder))
	for i, w := range eHolder {
		at := next[w]
		next[w]++
		s.clusterDst[at] = eDst[i]
		s.clusterPort[at] = ePort[i]
		s.clusterDist[at] = eDist[i]
	}
}

// buildLabels pre-builds every node's label: ID v with Aux [ℓ(v), eport(v)].
func (s *Scheme) buildLabels() {
	s.labelAux = make([]int, 2*(s.n+1))
	s.labels = make([]routing.Label, s.n+1)
	for v := 1; v <= s.n; v++ {
		aux := s.labelAux[2*v : 2*v+2 : 2*v+2]
		aux[0] = int(s.landmarks[s.homeIdx[v]])
		aux[1] = int(s.eport[v])
		s.labels[v] = routing.Label{ID: v, Aux: aux}
	}
}

// Name implements routing.Scheme.
func (s *Scheme) Name() string { return "landmark-stretch3" }

// N implements routing.Scheme.
func (s *Scheme) N() int { return s.n }

// K returns the landmark count.
func (s *Scheme) K() int { return s.k }

// Landmarks returns the sorted landmark ids (a copy).
func (s *Scheme) Landmarks() []int {
	out := make([]int, s.k)
	for i, a := range s.landmarks {
		out[i] = int(a)
	}
	return out
}

// Home returns v's landmark and exact distance to it.
func (s *Scheme) Home(v int) (landmark, dist int) {
	return int(s.landmarks[s.homeIdx[v]]), int(s.homeDist[v])
}

// ClusterSize returns the number of cluster entries node u stores.
func (s *Scheme) ClusterSize(u int) int {
	return int(s.clusterStart[u] - s.clusterStart[u-1])
}

// TotalClusterEntries returns Σ_u ClusterSize(u) — the o(n²) quantity.
func (s *Scheme) TotalClusterEntries() int { return len(s.clusterDst) }

// Requirements implements routing.Scheme: model II (the neighbour check).
func (s *Scheme) Requirements() models.Requirements {
	return models.Requirements{NeighborsKnown: true}
}

// Label implements routing.Scheme: pre-built, allocation-free.
func (s *Scheme) Label(u int) routing.Label { return s.labels[u] }

// LabelBits implements routing.Scheme: (1+2) fields of ⌈log(n+1)⌉ bits.
func (s *Scheme) LabelBits(u int) int {
	if u < 1 || u > s.n {
		return 0
	}
	return s.labels[u].Bits(s.n)
}

// FunctionBits implements routing.Scheme: 2k landmark-table fields plus three
// fields per cluster entry, each ⌈log(n+1)⌉ bits.
func (s *Scheme) FunctionBits(u int) int {
	if u < 1 || u > s.n {
		return 0
	}
	f := bitio.CeilLogPlus1(s.n)
	return (2*s.k + 3*s.ClusterSize(u)) * f
}

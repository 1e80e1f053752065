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
// First hops. Every stored port — landmark table, cluster table and eport
// alike — is canonical: the port toward the smallest-id neighbour one step
// closer to the target, the shortestpath.FirstHopRow rule the full tier
// uses. Each entry is then a function of the distances at a node and its
// neighbours, not of any BFS tree, which is what lets Update repair them
// locally.
//
// Build runs each step once. One FIFO BFS over sorted neighbour lists from
// each landmark a fills a's landmark-table column; the row scan that
// dequeues u meets its closer neighbours, smallest id first, and sets u's
// port. The same BFS carries a's first port down the tree, so eport(v) is
// the port toward the smallest-id neighbour of ℓ(v) on a shortest path to
// v, and ℓ(v) is picked by scanning landmarks in ascending order, keeping
// strict improvements only. Then a BFS from every destination v, truncated
// at depth home(v)−1, emits v's cluster entries. A per-build CSR index of
// the sorted adjacency, holding the port at both ends of every edge,
// answers every port lookup, and since destinations are visited in
// ascending order a stable counting sort by holder lays the entries out as
// CSR rows directly.
//
// Update (update.go) derives the scheme of a graph one edge flip away from
// a built one: it repairs each landmark column on the nodes whose distance
// changes, recomputes the ports, homes and eports those nodes can affect,
// reruns the cluster BFS runs the flip can change, and equals Build byte
// for byte.
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
	"math/bits"
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

// newPortIndex builds the index. On the sorted assignment the port of row
// entry i is i+1, and since nodes are visited in ascending order, u is the
// next unvisited entry of each neighbour w's row, so a cursor per node gives
// every back port: O(n+m) in all. Any other assignment reads each port with
// PortToOK, a binary search of u's row, and locates u in the neighbour's row
// for the back port: O(m log d).
func newPortIndex(g *graph.Graph, ports *graph.Ports) *portIndex {
	n := g.N()
	off := make([]int, n+2)
	for u := 1; u <= n; u++ {
		off[u+1] = off[u] + len(g.Neighbors(u))
	}
	m := off[n+1]
	x := &portIndex{off: off, adj: make([]int32, m), out: make([]int32, m), back: make([]int32, m)}
	if ports.Sorted() {
		next := make([]int32, n+1) // next[w] counts the visited nodes in w's row
		for u := 1; u <= n; u++ {
			for i, w := range g.Neighbors(u) {
				e := off[u] + i
				x.adj[e], x.out[e] = int32(w), int32(i+1)
				next[w]++
				x.back[e] = next[w]
			}
		}
		return x
	}
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

// column is the scratch of one landmark BFS, indexed by node: the distance
// from the landmark (−1 until discovered), the canonical port toward the
// landmark, and the port at the landmark toward the node.
type column struct {
	dist, up, hop []int32
	queue         []int32
}

func newColumn(n int) *column {
	return &column{
		dist:  make([]int32, n+1),
		up:    make([]int32, n+1),
		hop:   make([]int32, n+1),
		queue: make([]int32, 0, n),
	}
}

// bfs runs one FIFO BFS over sorted neighbour rows from landmark a. All of a
// level is discovered before any of it is dequeued, so the scan of u's row
// at dequeue meets every neighbour one step closer, and the first of them,
// the row being sorted, is the smallest-id one: up[u] is the port toward
// it. Which neighbours are closer is unpredictable, so the scan does not
// branch on it but sets a mask bit for each and takes the lowest; rows
// longer than 64 entries are rescanned. Discovering w from u sets hop[w],
// the port at a toward the first node of the path, carried down from u. It
// reports a node the landmark cannot reach.
func (c *column) bfs(x *portIndex, a int32) error {
	off, adj, out := x.off, x.adj, x.out
	dist, up, hop := c.dist, c.up, c.hop
	for i := range dist {
		dist[i] = -1
	}
	dist[a], up[a], hop[a] = 0, 0, 0
	queue := append(c.queue[:0], a)
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		du, hu := dist[u], hop[u]
		lo, hi := off[u], off[u+1]
		var closer uint64
		for e, w := range adj[lo:hi] {
			dw := dist[w]
			var bit uint64
			if dw == du-1 {
				bit = 1 // compiled to a conditional move, not a branch
			}
			closer |= bit << (e & 63)
			if dw >= 0 {
				continue
			}
			dist[w] = du + 1
			if u == a {
				hop[w] = out[lo+e]
			} else {
				hop[w] = hu
			}
			queue = append(queue, w)
		}
		switch {
		case u == a:
		case hi-lo <= 64:
			up[u] = out[lo+bits.TrailingZeros64(closer)]
		default:
			for e, w := range adj[lo:hi] {
				if dist[w] == du-1 {
					up[u] = out[lo+e]
					break
				}
			}
		}
	}
	c.queue = queue
	if len(queue) < len(dist)-1 {
		for u := 1; u < len(dist); u++ {
			if dist[u] < 0 {
				return fmt.Errorf("%w: node %d cannot reach landmark %d", ErrDisconnected, u, a)
			}
		}
	}
	return nil
}

// buildLandmarkColumns runs one column BFS from each landmark a =
// landmarks[j] and stores, for every node, the distance and the canonical
// port. The same pass streams the nearest-landmark choice: landmarks are
// scanned in ascending order and only a strictly closer one replaces the
// home, so ties keep the smallest landmark id, and eport(v) is the port at
// ℓ(v) toward the first hop of its BFS tree — the smallest-id neighbour of
// ℓ(v) on a shortest path to v. FIFO order makes that so: each level is
// queued in nondecreasing first-hop order, so a node's discoverer has the
// smallest first hop among its closer neighbours.
//
// Columns run in blocks of columnBlock, and each block is written out row
// by row, so a node's entries of one block share a cache line; a column
// written alone strides k entries per node and writes a new line each time
// (measured in EXPERIMENTS.md, "Canonical first hops and column repair").
func (s *Scheme) buildLandmarkColumns(x *portIndex) error {
	n, k := s.n, s.k
	cols := make([]*column, min(columnBlock, k))
	for i := range cols {
		cols[i] = newColumn(n)
	}
	for j0 := 0; j0 < k; j0 += columnBlock {
		block := cols[:min(columnBlock, k-j0)]
		for i, c := range block {
			if err := c.bfs(x, s.landmarks[j0+i]); err != nil {
				return err
			}
		}
		for u := 1; u <= n; u++ {
			at := (u-1)*k + j0
			for i, c := range block {
				d := c.dist[u]
				s.lmDist[at+i], s.lmPort[at+i] = d, c.up[u]
				if j := j0 + i; j == 0 || d < s.homeDist[u] {
					s.homeIdx[u], s.homeDist[u], s.eport[u] = int32(j), d, c.hop[u]
				}
			}
		}
	}
	return nil
}

// columnBlock is how many landmark columns Build runs before writing them.
const columnBlock = 8

// entries collects cluster entries in emission order: entry i is held by
// holder[i] for destination dst[i], with first port port[i] at distance
// dist[i]. A nil owned keeps every holder; otherwise only owned holders'
// entries are kept.
type entries struct {
	holder, dst, port, dist []int32

	owned *keyspace.Set
	// depth, from, slot and queue are the truncated BFS scratch: depth is −1
	// off-run; from[w] is the smallest-id closer neighbour of w met so far
	// and slot[w] the index of w's entry, −1 when w holds none.
	depth, from, slot []int32
	queue             []int32
}

func newEntries(n int, owned *keyspace.Set) *entries {
	c := &entries{
		owned: owned,
		depth: make([]int32, n+1),
		from:  make([]int32, n+1),
		slot:  make([]int32, n+1),
		queue: make([]int32, 0, n),
	}
	for i := range c.depth {
		c.depth[i] = -1
	}
	return c
}

// emit runs v's BFS truncated at depth limit ≥ 2: each discovered node w
// with 2 ≤ d(v,w) ≤ limit gets an entry for v whose port is the edge to
// w's smallest-id neighbour one step closer to v. Every such neighbour
// scans its row before the run ends, since only depth limit is left
// unscanned, so the entry's port is set at discovery and lowered whenever a
// smaller-id closer neighbour meets w.
func (c *entries) emit(x *portIndex, v, limit int32) {
	off, adj, back, dist := x.off, x.adj, x.back, c.depth
	from, slot := c.from, c.slot
	dist[v] = 0
	queue := append(c.queue[:0], v)
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		if dist[u] == limit {
			continue
		}
		du := dist[u] + 1
		lo := off[u]
		for e, w := range adj[lo:off[u+1]] {
			switch dw := dist[w]; {
			case dw < 0:
				dist[w], from[w], slot[w] = du, u, -1
				queue = append(queue, w)
				if du >= 2 && (c.owned == nil || c.owned.Has(int(w))) {
					slot[w] = int32(len(c.port))
					c.holder = append(c.holder, w)
					c.dst = append(c.dst, v)
					c.port = append(c.port, back[lo+e])
					c.dist = append(c.dist, du)
				}
			case dw == du && u < from[w] && slot[w] >= 0:
				from[w] = u
				c.port[slot[w]] = back[lo+e]
			}
		}
	}
	for _, t := range queue {
		dist[t] = -1
	}
	c.queue = queue
}

// rows lays the entries out as per-holder CSR rows by a stable counting
// sort: start[u] is the end of u's row, and since emission visits
// destinations in ascending order, every row comes out sorted by
// destination.
func (c *entries) rows(n int) (start, dst, port, dist []int32) {
	start = make([]int32, n+1)
	for _, w := range c.holder {
		start[w]++
	}
	for u := 1; u <= n; u++ {
		start[u] += start[u-1]
	}
	next := make([]int32, n+1) // next[u] is the write cursor of u's row
	copy(next[1:], start[:n])
	dst = make([]int32, len(c.holder))
	port = make([]int32, len(c.holder))
	dist = make([]int32, len(c.holder))
	for i, w := range c.holder {
		at := next[w]
		next[w]++
		dst[at], port[at], dist[at] = c.dst[i], c.port[i], c.dist[i]
	}
	return start, dst, port, dist
}

// buildClusters runs a truncated BFS from every destination v to depth
// home(v)−1 and lays the entries out as per-node CSR rows sorted by
// destination.
func (s *Scheme) buildClusters(x *portIndex) {
	c := newEntries(s.n, nil)
	for v := int32(1); v <= int32(s.n); v++ {
		if limit := s.homeDist[v] - 1; limit >= 2 {
			c.emit(x, v, limit) // below 2 the cluster holds only neighbours, which store nothing
		}
	}
	s.clusterStart, s.clusterDst, s.clusterPort, s.clusterDist = c.rows(s.n)
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

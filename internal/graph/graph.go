// Package graph implements the static communication networks of the paper:
// undirected graphs on nodes labelled {1,…,n}, the canonical binary encoding
// E(G) of Definition 2, relabelling, and port assignments.
//
// Every incompressibility argument in the paper manipulates E(G) — the
// length-n(n−1)/2 bit string listing the possible edges in standard
// lexicographic order — so the codec here is bit-exact and its edge
// enumeration order is part of the package contract.
package graph

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync/atomic"

	"routetab/internal/bitio"
)

// Common errors.
var (
	// ErrNodeRange indicates a node label outside {1,…,n}.
	ErrNodeRange = errors.New("graph: node label out of range")
	// ErrSelfLoop indicates an attempted self loop; the paper's networks are
	// simple graphs.
	ErrSelfLoop = errors.New("graph: self loops not allowed")
	// ErrBadEncoding indicates an E(G) string of the wrong length.
	ErrBadEncoding = errors.New("graph: malformed E(G) encoding")
	// ErrBadPermutation indicates a relabelling that is not a permutation of
	// {1,…,n}.
	ErrBadPermutation = errors.New("graph: relabelling is not a permutation")
)

// Graph is a simple undirected graph on nodes {1,…,n}. The zero value is the
// empty graph on zero nodes; use New for anything useful.
//
// Concurrency: any number of goroutines may read a Graph (Neighbors, AdjRow,
// HasEdge, …) concurrently — the lazy neighbour-list cache is published
// atomically. Mutations (AddEdge, RemoveEdge) require external
// synchronisation with respect to all other access.
type Graph struct {
	n     int
	words int // bitset words per adjacency row
	adj   []uint64

	// lists is the lazily built neighbour-list cache, published atomically
	// so concurrent readers never observe a partial rebuild. nil means
	// "stale": the next Neighbors call rebuilds from the bitsets.
	lists atomic.Pointer[[][]int]
	// version counts mutations; the shortestpath cache keys on it.
	version uint64
	edges   int
}

// New returns an edgeless graph on n ≥ 0 nodes labelled 1…n.
func New(n int) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: n = %d", ErrNodeRange, n)
	}
	words := (n + 63) / 64
	return &Graph{
		n:     n,
		words: words,
		adj:   make([]uint64, n*words),
	}, nil
}

// MustNew is New for statically valid sizes; it panics on error and exists
// for tests and internal constructions.
func MustNew(n int) *Graph {
	g, err := New(n)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.edges }

// Version returns a counter that changes on every successful mutation.
// Caches keyed on (graph, version) — e.g. shortestpath.Cache — use it to
// detect staleness without hashing the edge set.
func (g *Graph) Version() uint64 { return g.version }

// Words returns the number of uint64 words per adjacency bitset row.
func (g *Graph) Words() int { return g.words }

// AdjRow exposes node u's adjacency bitset row (Words() words; bit (v−1) set
// iff uv ∈ E, laid out little-endian within each word). The returned slice
// aliases the graph's storage — callers must treat it as read-only. This is
// the word-parallel substrate of the bitset BFS in internal/shortestpath.
func (g *Graph) AdjRow(u int) []uint64 {
	if g.check(u) != nil {
		return nil
	}
	return g.row(u)
}

func (g *Graph) check(u int) error {
	if u < 1 || u > g.n {
		return fmt.Errorf("%w: %d not in [1,%d]", ErrNodeRange, u, g.n)
	}
	return nil
}

func (g *Graph) row(u int) []uint64 {
	off := (u - 1) * g.words
	return g.adj[off : off+g.words]
}

// AddEdge inserts the undirected edge uv. Adding an existing edge is a no-op.
func (g *Graph) AddEdge(u, v int) error {
	if err := g.check(u); err != nil {
		return err
	}
	if err := g.check(v); err != nil {
		return err
	}
	if u == v {
		return fmt.Errorf("%w: %d", ErrSelfLoop, u)
	}
	if g.HasEdge(u, v) {
		return nil
	}
	g.row(u)[(v-1)/64] |= 1 << uint((v-1)%64)
	g.row(v)[(u-1)/64] |= 1 << uint((u-1)%64)
	g.edges++
	g.invalidate()
	return nil
}

// RemoveEdge deletes the undirected edge uv. Removing a missing edge is a
// no-op.
func (g *Graph) RemoveEdge(u, v int) error {
	if err := g.check(u); err != nil {
		return err
	}
	if err := g.check(v); err != nil {
		return err
	}
	if u == v || !g.HasEdge(u, v) {
		return nil
	}
	g.row(u)[(v-1)/64] &^= 1 << uint((v-1)%64)
	g.row(v)[(u-1)/64] &^= 1 << uint((u-1)%64)
	g.edges--
	g.invalidate()
	return nil
}

// FromAdjWords builds a graph directly from n adjacency bitset rows of
// (n+63)/64 words each — the zero-copy arena snapshot's decode path, which
// ships whole rows instead of the triangular E(G) string. The rows are
// validated structurally (clear diagonal, clear tail bits past column n,
// symmetry) and copied, so the caller's buffer may be reused; the edge count
// is recomputed from the bits rather than trusted.
func FromAdjWords(n int, rows []uint64) (*Graph, error) {
	g, err := New(n)
	if err != nil {
		return nil, err
	}
	if len(rows) != n*g.words {
		return nil, fmt.Errorf("%w: %d adjacency words, want %d", ErrBadEncoding, len(rows), n*g.words)
	}
	copy(g.adj, rows)
	ones := 0
	var tailMask uint64
	if r := uint(n % 64); r != 0 {
		tailMask = ^uint64(0) << r
	}
	for u := 1; u <= n; u++ {
		row := g.row(u)
		if row[(u-1)/64]&(1<<uint((u-1)%64)) != 0 {
			return nil, fmt.Errorf("%w: self loop bit at node %d", ErrSelfLoop, u)
		}
		if tailMask != 0 && row[g.words-1]&tailMask != 0 {
			return nil, fmt.Errorf("%w: node %d has adjacency bits past column %d", ErrBadEncoding, u, n)
		}
		for w, word := range row {
			ones += bits.OnesCount64(word)
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				v := w*64 + b + 1
				if v > u {
					break // symmetry of the lower triangle already checked from v's row
				}
				if g.row(v)[(u-1)/64]&(1<<uint((u-1)%64)) == 0 {
					return nil, fmt.Errorf("%w: edge %d-%d present only one way", ErrBadEncoding, v, u)
				}
			}
		}
	}
	if ones%2 != 0 {
		return nil, fmt.Errorf("%w: odd adjacency bit count %d", ErrBadEncoding, ones)
	}
	g.edges = ones / 2
	return g, nil
}

// invalidate records a mutation: bumps the version and drops the published
// neighbour-list cache.
func (g *Graph) invalidate() {
	g.version++
	g.lists.Store(nil)
}

// HasEdge reports whether uv ∈ E. Out-of-range labels report false.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 1 || u > g.n || v < 1 || v > g.n || u == v {
		return false
	}
	return g.row(u)[(v-1)/64]&(1<<uint((v-1)%64)) != 0
}

// Degree returns d(u), the number of neighbours of u.
func (g *Graph) Degree(u int) int {
	if g.check(u) != nil {
		return 0
	}
	d := 0
	for _, w := range g.row(u) {
		d += bits.OnesCount64(w)
	}
	return d
}

// ensureLists returns the current neighbour-list snapshot, building and
// publishing it if stale. Safe for concurrent readers: racing builders each
// construct a full snapshot from the (immutable, absent mutation) bitsets and
// atomically publish equivalent values.
func (g *Graph) ensureLists() [][]int {
	if l := g.lists.Load(); l != nil {
		return *l
	}
	lists := make([][]int, g.n+1)
	for u := 1; u <= g.n; u++ {
		row := g.row(u)
		list := make([]int, 0, g.Degree(u))
		for wi, w := range row {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				list = append(list, wi*64+b+1)
				w &= w - 1
			}
		}
		lists[u] = list
	}
	g.lists.Store(&lists)
	return lists
}

// Neighbors returns the neighbours of u in increasing label order. The
// returned slice is shared; callers must not modify it. Safe for concurrent
// readers.
func (g *Graph) Neighbors(u int) []int {
	if g.check(u) != nil {
		return nil
	}
	return g.ensureLists()[u]
}

// FirstNeighbors returns the k least-labelled neighbours of u (all of them if
// d(u) < k). This is the paper's "first (c+3)log n directly adjacent nodes"
// (Lemma 3).
func (g *Graph) FirstNeighbors(u, k int) []int {
	nb := g.Neighbors(u)
	if k < 0 {
		k = 0
	}
	if k > len(nb) {
		k = len(nb)
	}
	return nb[:k]
}

// Nodes returns 1…n (fresh slice).
func (g *Graph) Nodes() []int {
	out := make([]int, g.n)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	cp := &Graph{
		n:     g.n,
		words: g.words,
		adj:   make([]uint64, len(g.adj)),
		edges: g.edges,
	}
	copy(cp.adj, g.adj)
	return cp
}

// Equal reports whether g and h have identical node sets and edge sets.
func (g *Graph) Equal(h *Graph) bool {
	if g.n != h.n {
		return false
	}
	for i := range g.adj {
		if g.adj[i] != h.adj[i] {
			return false
		}
	}
	return true
}

// Diff returns the edges of cur missing from prev (adds) and the edges of
// prev missing from cur (removes), each in Edges() order. It XORs the two
// adjacency rows of every node word by word, so it costs O(n²/64) whatever
// the edge count. prev and cur must have the same node count.
func Diff(prev, cur *Graph) (adds, removes [][2]int) {
	if prev.n != cur.n {
		panic(fmt.Sprintf("graph: diff of n=%d and n=%d graphs", prev.n, cur.n))
	}
	for u := 1; u <= cur.n; u++ {
		pr, cr := prev.row(u), cur.row(u)
		// Bit u−1 of a row is node u; only partners v > u are reported, from
		// bit u on.
		for wi := u / 64; wi < cur.words; wi++ {
			mask := ^uint64(0)
			if wi == u/64 {
				mask <<= uint(u % 64)
			}
			for w := (pr[wi] ^ cr[wi]) & mask; w != 0; w &= w - 1 {
				v := wi*64 + bits.TrailingZeros64(w) + 1
				if cr[wi]&(w&-w) != 0 {
					adds = append(adds, [2]int{u, v})
				} else {
					removes = append(removes, [2]int{u, v})
				}
			}
		}
	}
	return adds, removes
}

// Relabel returns the graph obtained by renaming node u to perm[u]. perm is
// 1-based (perm[0] ignored) and must be a permutation of {1,…,n}. This is the
// paper's model-β operation.
func (g *Graph) Relabel(perm []int) (*Graph, error) {
	if len(perm) != g.n+1 {
		return nil, fmt.Errorf("%w: length %d, want %d", ErrBadPermutation, len(perm), g.n+1)
	}
	seen := make([]bool, g.n+1)
	for u := 1; u <= g.n; u++ {
		p := perm[u]
		if p < 1 || p > g.n || seen[p] {
			return nil, fmt.Errorf("%w: perm[%d] = %d", ErrBadPermutation, u, p)
		}
		seen[p] = true
	}
	out := MustNew(g.n)
	for u := 1; u <= g.n; u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				if err := out.AddEdge(perm[u], perm[v]); err != nil {
					return nil, err
				}
			}
		}
	}
	return out, nil
}

// EdgeCodeLen returns n(n−1)/2, the length of E(G) for an n-node graph.
func EdgeCodeLen(n int) int { return n * (n - 1) / 2 }

// EdgeIndex returns the 0-based position of the possible edge uv (u≠v) in the
// standard lexicographic enumeration (1,2),(1,3),…,(1,n),(2,3),… used by
// Definition 2.
func EdgeIndex(n, u, v int) (int, error) {
	if u < 1 || u > n || v < 1 || v > n || u == v {
		return 0, fmt.Errorf("%w: edge (%d,%d) in n=%d", ErrNodeRange, u, v, n)
	}
	if u > v {
		u, v = v, u
	}
	// Edges with first endpoint < u precede; then v within u's block.
	return (u-1)*n - u*(u-1)/2 + (v - u - 1), nil
}

// EdgeFromIndex is the inverse of EdgeIndex.
func EdgeFromIndex(n, idx int) (u, v int, err error) {
	if idx < 0 || idx >= EdgeCodeLen(n) {
		return 0, 0, fmt.Errorf("%w: edge index %d in n=%d", ErrNodeRange, idx, n)
	}
	u = 1
	for {
		block := n - u
		if idx < block {
			return u, u + 1 + idx, nil
		}
		idx -= block
		u++
	}
}

// EncodeBits writes E(G) (Definition 2) to a fresh bit writer: bit i is 1 iff
// the i-th possible edge in lexicographic order is present.
func (g *Graph) EncodeBits() *bitio.Writer {
	w := bitio.NewWriter(EdgeCodeLen(g.n))
	for u := 1; u <= g.n; u++ {
		for v := u + 1; v <= g.n; v++ {
			w.WriteBit(g.HasEdge(u, v))
		}
	}
	return w
}

// EncodeBytes returns E(G) packed into bytes (final byte zero-padded).
func (g *Graph) EncodeBytes() []byte { return g.EncodeBits().Bytes() }

// DecodeBits reconstructs a graph on n nodes from an E(G) bit stream.
func DecodeBits(r *bitio.Reader, n int) (*Graph, error) {
	if r.Remaining() < EdgeCodeLen(n) {
		return nil, fmt.Errorf("%w: %d bits remaining, want %d", ErrBadEncoding, r.Remaining(), EdgeCodeLen(n))
	}
	g := MustNew(n)
	for u := 1; u <= n; u++ {
		for v := u + 1; v <= n; v++ {
			b, err := r.ReadBit()
			if err != nil {
				return nil, err
			}
			if b {
				if err := g.AddEdge(u, v); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// DecodeBytes reconstructs a graph on n nodes from packed E(G) bytes.
func DecodeBytes(buf []byte, n int) (*Graph, error) {
	r, err := bitio.NewReader(buf, EdgeCodeLen(n))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEncoding, err)
	}
	return DecodeBits(r, n)
}

// Edges returns all edges (u < v) in lexicographic order.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.edges)
	for u := 1; u <= g.n; u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}

// String renders a compact human-readable description.
func (g *Graph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph{n=%d m=%d}", g.n, g.edges)
	return sb.String()
}

// DOT renders the graph in Graphviz format (debugging helper).
func (g *Graph) DOT(name string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph %s {\n", name)
	for _, e := range g.Edges() {
		fmt.Fprintf(&sb, "  %d -- %d;\n", e[0], e[1])
	}
	sb.WriteString("}\n")
	return sb.String()
}

// Complement returns the complement graph: E(Ḡ) is E(G) with every bit
// flipped. Complementation preserves randomness deficiency up to O(1) —
// a graph and its complement are equally (in)compressible — which the kolmo
// tests exploit.
func (g *Graph) Complement() *Graph {
	out := MustNew(g.n)
	for u := 1; u <= g.n; u++ {
		for v := u + 1; v <= g.n; v++ {
			if !g.HasEdge(u, v) {
				// Adding to a fresh graph with valid labels cannot fail.
				if err := out.AddEdge(u, v); err != nil {
					panic(err)
				}
			}
		}
	}
	return out
}

// FirstCommonNeighbor returns the least node adjacent to both u and v, or 0
// if none exists. Runs over the adjacency bitsets word-wise, so diameter-2
// certification (Lemma 2) over all pairs costs O(n³/64).
func (g *Graph) FirstCommonNeighbor(u, v int) int {
	if g.check(u) != nil || g.check(v) != nil {
		return 0
	}
	ru, rv := g.row(u), g.row(v)
	for wi := range ru {
		if w := ru[wi] & rv[wi]; w != 0 {
			return wi*64 + bits.TrailingZeros64(w) + 1
		}
	}
	return 0
}

// CommonNeighborCount returns |N(u) ∩ N(v)|.
func (g *Graph) CommonNeighborCount(u, v int) int {
	if g.check(u) != nil || g.check(v) != nil {
		return 0
	}
	ru, rv := g.row(u), g.row(v)
	count := 0
	for wi := range ru {
		count += bits.OnesCount64(ru[wi] & rv[wi])
	}
	return count
}

// DegreeSequence returns the sorted (descending) degree sequence.
func (g *Graph) DegreeSequence() []int {
	out := make([]int, g.n)
	for u := 1; u <= g.n; u++ {
		out[u-1] = g.Degree(u)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// IsConnected reports whether the graph is connected (vacuously true for
// n ≤ 1).
func (g *Graph) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	seen := make([]bool, g.n+1)
	queue := []int{1}
	seen[1] = true
	count := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if !seen[v] {
				seen[v] = true
				count++
				queue = append(queue, v)
			}
		}
	}
	return count == g.n
}

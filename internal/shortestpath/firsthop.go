package shortestpath

import (
	"fmt"
	"math/bits"

	"routetab/internal/graph"
)

// FirstHopRow fills hop[v], for every node v, with the smallest-labelled
// neighbour of src on a shortest src→v path, min{w ∈ N(src) : d(w,v) =
// d(src,v) − 1}; hop[src] and the entries of nodes unreachable from src are
// 0. hop is indexed by node label and must have n+1 entries.
//
// This is the first hop of the BFS tree a neighbour-list BFS from src grows
// when it scans neighbours in increasing label order: by induction on the
// level, that BFS dequeues each level sorted by first hop, so a node's
// parent is its frontier neighbour with the smallest first hop. Full tables
// built from these rows are therefore fixed by the graph and the port
// assignment alone. The kernel is picked by the same density rule as
// AllPairs.
func FirstHopRow(g *graph.Graph, src int, hop []int32) error {
	n := g.N()
	if src < 1 || src > n {
		return fmt.Errorf("%w: source %d", ErrNodeRange, src)
	}
	if len(hop) != n+1 {
		return fmt.Errorf("shortestpath: first-hop row has %d entries, want %d for n=%d", len(hop), n+1, n)
	}
	if useBitset(g) {
		bitsetFirstHops(g, src, hop)
	} else {
		listFirstHops(g, src, hop)
	}
	return nil
}

// bitsetFirstHops is the word-parallel first-hop BFS, partitioned by first
// hop. Each level's frontier is kept as a node list grouped by first hop in
// increasing order; a group's next level is the OR of its members'
// adjacency rows minus everything visited, and visited grows after every
// group, so a node reached by several groups in one level goes to the
// smallest first hop. The OR work is Θ(n·words) per source, as in bitsetRow.
func bitsetFirstHops(g *graph.Graph, src int, hop []int32) {
	s := scratchPool.Get().(*bitsetScratch)
	defer scratchPool.Put(s)
	s.reset(g.Words())
	visited, acc := s.visited, s.next

	clear(hop)
	sb := src - 1
	visited[sb/64] = 1 << uint(sb%64)
	cur := s.cur[:0]
	for k, w := range g.AdjRow(src) {
		visited[k] |= w
		for w != 0 {
			v := k*64 + bits.TrailingZeros64(w) + 1
			w &= w - 1
			hop[v] = int32(v)
			cur = append(cur, int32(v))
		}
	}
	next := s.queue[:0]
	for len(cur) > 0 {
		next = next[:0]
		for i := 0; i < len(cur); {
			h := hop[cur[i]]
			clear(acc)
			for ; i < len(cur) && hop[cur[i]] == h; i++ {
				row := g.AdjRow(int(cur[i]))
				for k := range acc {
					acc[k] |= row[k]
				}
			}
			for k, nw := range acc {
				nw &^= visited[k]
				if nw == 0 {
					continue
				}
				visited[k] |= nw
				for nw != 0 {
					v := k*64 + bits.TrailingZeros64(nw) + 1
					nw &= nw - 1
					hop[v] = h
					next = append(next, int32(v))
				}
			}
		}
		cur, next = next, cur
	}
	s.cur, s.queue = cur, next
}

// listFirstHops is the neighbour-list first-hop BFS: each node inherits the
// first hop of the node that discovered it, in queue order, so no parent
// chain is ever walked.
func listFirstHops(g *graph.Graph, src int, hop []int32) {
	s := scratchPool.Get().(*bitsetScratch)
	defer scratchPool.Put(s)

	clear(hop)
	queue := s.queue[:0]
	for _, w := range g.Neighbors(src) {
		hop[w] = int32(w)
		queue = append(queue, int32(w))
	}
	for i := 0; i < len(queue); i++ {
		u := queue[i]
		h := hop[u]
		for _, v := range g.Neighbors(int(u)) {
			if hop[v] == 0 && v != src {
				hop[v] = h
				queue = append(queue, int32(v))
			}
		}
	}
	s.queue = queue
}

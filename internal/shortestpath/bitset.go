package shortestpath

import (
	"math/bits"
	"sync"

	"routetab/internal/graph"
)

// bitsetScratch holds the three per-BFS frontier bitsets, plus the node
// queues of the first-hop kernels (firsthop.go). AllPairs and fulltable
// construction run one BFS per source over a worker pool, so the scratch is
// pooled instead of reallocated n times.
type bitsetScratch struct {
	visited, frontier, next []uint64
	cur, queue              []int32
}

var scratchPool = sync.Pool{New: func() any { return &bitsetScratch{} }}

func (s *bitsetScratch) reset(words int) {
	if cap(s.visited) < words {
		s.visited = make([]uint64, words)
		s.frontier = make([]uint64, words)
		s.next = make([]uint64, words)
		return
	}
	s.visited = s.visited[:words]
	s.frontier = s.frontier[:words]
	s.next = s.next[:words]
	clear(s.visited)
	clear(s.frontier)
	clear(s.next)
}

// bitsetRow fills one packed matrix row with a word-parallel BFS from src:
// each level ORs the adjacency bitset rows of every frontier node into the
// next-frontier bitset, then strips already-visited nodes with one ANDNOT
// sweep. Per level the work is Θ(|frontier|·n/64) regardless of edge count —
// on G(n, 1/2), where Lemma 1 pins every degree near n/2 and Lemma 2 pins the
// diameter at 2, that beats the Θ(n+m) list BFS by roughly the word width.
//
// Adjacency rows never carry bits ≥ n, so no end-of-row masking is needed.
func bitsetRow(g *graph.Graph, src int, row []uint8) {
	n := g.N()
	words := g.Words()
	s := scratchPool.Get().(*bitsetScratch)
	defer scratchPool.Put(s)
	s.reset(words)

	for i := range row {
		row[i] = unreachable8
	}
	sb := src - 1
	row[sb] = 0
	s.visited[sb/64] = 1 << uint(sb%64)
	s.frontier[sb/64] = 1 << uint(sb%64)

	for dist := 1; ; dist++ {
		d8 := uint8(dist)
		if dist > MaxDistance {
			d8 = MaxDistance
		}
		// next = ∪ AdjRow(u) over frontier u.
		clear(s.next)
		for wi, w := range s.frontier {
			for w != 0 {
				u := wi*64 + bits.TrailingZeros64(w)
				w &= w - 1
				ru := g.AdjRow(u + 1)
				for k := range s.next {
					s.next[k] |= ru[k]
				}
			}
		}
		// Strip visited, mark distances, advance.
		grew := false
		for k := range s.next {
			nw := s.next[k] &^ s.visited[k]
			s.next[k] = nw
			if nw == 0 {
				continue
			}
			grew = true
			s.visited[k] |= nw
			base := k * 64
			for nw != 0 {
				v := base + bits.TrailingZeros64(nw)
				nw &= nw - 1
				row[v] = d8
			}
		}
		if !grew {
			return
		}
		s.frontier, s.next = s.next, s.frontier
		if dist >= n { // safety: no simple path exceeds n−1 edges
			return
		}
	}
}

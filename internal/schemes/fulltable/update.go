package fulltable

import (
	"fmt"
	"slices"

	"routetab/internal/graph"
	"routetab/internal/shortestpath"
)

// updateWorkShare bounds Update: when the entries a flip flags exceed
// n²/updateWorkShare, recomputing them one by one approaches the cost of
// the n first-hop rows of a full Build, and Update declines.
const updateWorkShare = 8

// Update returns the scheme of g derived from prev, built with the sorted
// ports of a graph that differs from g by exactly the edge {x,y}. prevDist
// and dist are the all-pairs matrices of prev's graph and of g, and changed
// lists the sources whose row differs between them (shortestpath.Update
// returns both). ports must be the sorted view of g. The result equals
// Build(g, ports) byte for byte; callers fall back to Build on an error.
//
// Entry (w,q) is the port of the first neighbour z in w's sorted row with
// d(z,q) = d(w,q) − 1, so it reads only w's row, d(w,q) and d(z,q) for the
// neighbours z of w. Only the rows of x and y change; those two are rebuilt
// whole. Any other entry (w,q) can change only when d(w,q) changed or
// d(z,q) changed for a neighbour z of w, so for every changed pair (p,q)
// Update recomputes (p,q) and (w,q) for each neighbour w of p. Changed
// pairs come in both orders, since distances are symmetric. Unchanged rows
// are shared with prev and a row is copied before its first write, so the
// result holds no reference to prev itself.
func Update(prev *Scheme, prevDist, dist *shortestpath.Distances, changed []int, g *graph.Graph, ports *graph.Ports, x, y int) (*Scheme, error) {
	n := prev.n
	if g.N() != n || prevDist.N() != n || dist.N() != n {
		return nil, fmt.Errorf("fulltable: update of n=%d scheme with n=%d graph, n=%d and n=%d matrices",
			n, g.N(), prevDist.N(), dist.N())
	}
	if x < 1 || x > n || y < 1 || y > n || x == y {
		return nil, fmt.Errorf("fulltable: update across bad edge {%d,%d}", x, y)
	}
	if !ports.Sorted() {
		return nil, fmt.Errorf("fulltable: update needs sorted ports")
	}
	if err := ports.Validate(g); err != nil {
		return nil, fmt.Errorf("fulltable: %w", err)
	}
	pd, d := prevDist.Packed(), dist.Packed()
	work := 0
	for _, p := range changed {
		diff := 0
		for i, b := range d[(p-1)*n : p*n] {
			if b != pd[(p-1)*n+i] {
				diff++
			}
		}
		work += diff * (1 + g.Degree(p))
	}
	if work > n*n/updateWorkShare {
		return nil, fmt.Errorf("fulltable: flip flags %d entries, past the %d an update may take", work, n*n/updateWorkShare)
	}

	u := &updater{
		s:      &Scheme{n: n, table: slices.Clone(prev.table), width: slices.Clone(prev.width)},
		g:      g,
		d:      d,
		x:      x,
		y:      y,
		copied: make([]bool, n+1),
	}
	for _, w := range [2]int{x, y} {
		if err := u.s.buildRow(g, ports, w); err != nil {
			return nil, err
		}
	}
	for _, p := range changed {
		for i, b := range d[(p-1)*n : p*n] {
			if b == pd[(p-1)*n+i] {
				continue
			}
			q := i + 1
			if err := u.refresh(p, q); err != nil {
				return nil, err
			}
			for _, w := range g.Neighbors(p) {
				if err := u.refresh(w, q); err != nil {
					return nil, err
				}
			}
		}
	}
	return u.s, nil
}

// updater is the state of one Update: the scheme being written, g's
// matrix, the rebuilt rows x and y, and which rows are already private
// copies.
type updater struct {
	s      *Scheme
	g      *graph.Graph
	d      []uint8
	x, y   int
	copied []bool
}

// refresh recomputes entry (w,q) by FirstHopRow's definition. It refuses a
// saturated or unreachable d(w,q), where the equality test is not sound.
func (u *updater) refresh(w, q int) error {
	if w == q || w == u.x || w == u.y {
		return nil
	}
	// Distances are symmetric, so q's row holds d(·,q) contiguously.
	n := u.s.n
	dq := u.d[(q-1)*n : q*n]
	dw := dq[w-1]
	if dw >= shortestpath.MaxDistance {
		return fmt.Errorf("fulltable: update reads d(%d,%d), saturated or unreachable", w, q)
	}
	for i, z := range u.g.Neighbors(w) {
		if dq[z-1] != dw-1 {
			continue
		}
		port := uint16(i + 1)
		if u.s.table[w][q] != port {
			if !u.copied[w] {
				u.s.table[w] = slices.Clone(u.s.table[w])
				u.copied[w] = true
			}
			u.s.table[w][q] = port
		}
		return nil
	}
	return fmt.Errorf("fulltable: update finds no first hop %d→%d", w, q)
}

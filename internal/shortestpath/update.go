package shortestpath

import (
	"bytes"
	"fmt"
	"slices"

	"routetab/internal/graph"
	"routetab/internal/par"
)

// Update returns the all-pairs matrix of g derived from prev, the matrix of
// a graph that differs from g by exactly the edge {x,y}, and the sources
// whose row changed, in increasing order. prev is read, never written. The
// result equals AllPairs(g) byte for byte.
//
// Each source a is handled on its own, from dx = d(a,x) and dy = d(a,y)
// in prev:
//
//   - Added edge. A shortest path through the new edge crosses it once,
//     from the nearer endpoint to the farther one, so the new row is
//     min(row, d(a,near) + 1 + row of far), capped at MaxDistance. Capping
//     is monotone, so the capped min-plus of saturated bytes is the
//     saturated exact value. When |dx − dy| ≤ 1 the sum never undercuts
//     d(a,far) + d(far,v) ≥ d(a,v), and the row is unchanged.
//   - Removed edge. When dx = dy no shortest path from a used the edge.
//     Otherwise the edge ran from near to far = near + 1; when far keeps a
//     neighbour z in g with d(a,z) = d(a,near), every path that used the
//     edge can reach far through z at the same length (no shortest path to
//     z uses the edge), and the row is unchanged. Any other row reruns its
//     BFS on g.
//
// A row whose dx or dy is saturated or unreachable reruns its BFS too:
// equality tests on saturated bytes are not sound.
func Update(prev *Distances, g *graph.Graph, x, y int) (*Distances, []int, error) {
	n := g.N()
	if prev.n != n {
		return nil, nil, fmt.Errorf("shortestpath: update of an n=%d matrix to an n=%d graph", prev.n, n)
	}
	if x < 1 || x > n || y < 1 || y > n || x == y {
		return nil, nil, fmt.Errorf("%w: update across edge {%d,%d}", ErrNodeRange, x, y)
	}
	added := g.HasEdge(x, y)
	dm := &Distances{n: n, d: slices.Clone(prev.d)}
	changed := make([]bool, n)
	var rerun []int
	for i := 0; i < n; i++ {
		row := dm.d[i*n : (i+1)*n]
		near, far := x, y
		if row[y-1] < row[x-1] {
			near, far = y, x
		}
		dnear, dfar := row[near-1], row[far-1]
		switch {
		case dfar >= MaxDistance:
			// dfar ≥ dnear, so this also covers a saturated or unreachable dnear.
			rerun = append(rerun, i)
		case dfar == dnear, added && dfar-dnear <= 1:
			// The row is unchanged.
		case added:
			changed[i] = relaxThrough(row, int(dnear)+1, prev.d[(far-1)*n:far*n])
		case !keepsParent(g, row, far, dnear):
			rerun = append(rerun, i)
		}
	}
	if len(rerun) > 0 {
		bitset := useBitset(g)
		if !bitset {
			g.Neighbors(1) // one up-front rebuild saves racing (safe) rebuilds
		}
		err := par.ForEach(len(rerun), func(k int) error {
			i := rerun[k]
			row := dm.d[i*n : (i+1)*n]
			if bitset {
				bitsetRow(g, i+1, row)
			} else if err := listRow(g, i+1, row); err != nil {
				return err
			}
			changed[i] = !bytes.Equal(row, prev.d[i*n:(i+1)*n])
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	var sources []int
	for i, c := range changed {
		if c {
			sources = append(sources, i+1)
		}
	}
	return dm, sources, nil
}

// relaxThrough lowers row[v] to the capped dist + farRow[v], skipping
// unreachable entries of farRow, and reports whether any entry fell.
func relaxThrough(row []uint8, dist int, farRow []uint8) bool {
	fell := false
	for v, fv := range farRow {
		if fv == unreachable8 {
			continue
		}
		c := dist + int(fv)
		if c > MaxDistance {
			c = MaxDistance
		}
		if uint8(c) < row[v] {
			row[v] = uint8(c)
			fell = true
		}
	}
	return fell
}

// keepsParent reports whether far has a neighbour in g at distance dnear
// from the row's source.
func keepsParent(g *graph.Graph, row []uint8, far int, dnear uint8) bool {
	for _, z := range g.Neighbors(far) {
		if row[z-1] == dnear {
			return true
		}
	}
	return false
}

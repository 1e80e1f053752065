package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// edgeListDiff is the diff replication used before Diff: two full Edges()
// lists, each filtered against the other graph. Diff must return exactly
// this, since WAL records carry the lists.
func edgeListDiff(prev, cur *Graph) (adds, removes [][2]int) {
	for _, e := range cur.Edges() {
		if !prev.HasEdge(e[0], e[1]) {
			adds = append(adds, e)
		}
	}
	for _, e := range prev.Edges() {
		if !cur.HasEdge(e[0], e[1]) {
			removes = append(removes, e)
		}
	}
	return adds, removes
}

func randomGraph(n int, p float64, rng *rand.Rand) *Graph {
	g := MustNew(n)
	for u := 1; u <= n; u++ {
		for v := u + 1; v <= n; v++ {
			if rng.Float64() < p {
				_ = g.AddEdge(u, v)
			}
		}
	}
	return g
}

// TestDiffMatchesEdgeLists pins Diff against edgeListDiff on random graph
// pairs: a few flips apart, independent, and identical, across row widths
// around the 64-bit word boundary.
func TestDiffMatchesEdgeLists(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 3, 63, 64, 65, 127, 128, 130} {
		for trial := 0; trial < 20; trial++ {
			prev := randomGraph(n, rng.Float64(), rng)
			var cur *Graph
			switch trial % 3 {
			case 0:
				cur = prev.Clone()
			case 1:
				cur = prev.Clone()
				for i := rng.Intn(6); i > 0 && n > 1; i-- {
					u, v := 1+rng.Intn(n), 1+rng.Intn(n)
					if cur.HasEdge(u, v) {
						_ = cur.RemoveEdge(u, v)
					} else {
						_ = cur.AddEdge(u, v)
					}
				}
			default:
				cur = randomGraph(n, rng.Float64(), rng)
			}
			adds, removes := Diff(prev, cur)
			wantAdds, wantRemoves := edgeListDiff(prev, cur)
			if !reflect.DeepEqual(adds, wantAdds) || !reflect.DeepEqual(removes, wantRemoves) {
				t.Fatalf("n=%d trial %d: Diff = %v, %v; want %v, %v", n, trial, adds, removes, wantAdds, wantRemoves)
			}
		}
	}
}

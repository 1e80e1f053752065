package graph_test

import (
	"math/rand"
	"runtime"
	"testing"

	"routetab/internal/gengraph"
	"routetab/internal/graph"
)

var cloneSink *graph.Graph

// TestCloneCopiesPagePointers: Clone of SparseConnected(16384, 8), whose
// bitset is 32 MiB, allocates at most 1/16 of that, since it copies page
// pointers rather than rows.
func TestCloneCopiesPagePointers(t *testing.T) {
	g, err := gengraph.SparseConnected(16384, 8, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	bitset := uint64(g.N() * g.Words() * 8)
	const clones = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < clones; i++ {
		cloneSink = g.Clone()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / clones; per > bitset/16 {
		t.Fatalf("Clone allocates %d B, want ≤ %d B (1/16 of the %d B bitset)", per, bitset/16, bitset)
	}
}

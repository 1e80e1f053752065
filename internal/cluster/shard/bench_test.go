package shard

import (
	"math/rand"
	"testing"

	"routetab/internal/gengraph"
	"routetab/internal/serve"
)

// frontFixture builds an in-process landmark cluster over
// SparseConnected(n, 8): groups shard groups of a primary plus one replica,
// replicas driven by explicit Sync only, and batches of batch uniform
// (src, dst) pairs drawn from a fixed seed.
func frontFixture(tb testing.TB, n, groups, batch, batches int) (*Cluster, [][][2]int) {
	tb.Helper()
	g, err := gengraph.SparseConnected(n, 8, rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	m, err := NewUniform(n, groups)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := NewCluster(g, m, ClusterOptions{
		Replicas: 1,
		Server:   serve.ServerOptions{StretchSampleEvery: -1},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	rng := rand.New(rand.NewSource(2))
	reqs := make([][][2]int, batches)
	for b := range reqs {
		reqs[b] = make([][2]int, batch)
		for i := range reqs[b] {
			src := 1 + rng.Intn(n)
			dst := 1 + rng.Intn(n-1)
			if dst >= src {
				dst++
			}
			reqs[b][i] = [2]int{src, dst}
		}
	}
	return c, reqs
}

// BenchmarkFrontLookupBatch times one 64-key batch through the in-process
// scatter-gather front: n=4096, 2 groups, 1 replica each.
func BenchmarkFrontLookupBatch(b *testing.B) {
	c, reqs := frontFixture(b, 4096, 2, 64, 64)
	out := make([]serve.Result, 64)
	front := c.Front()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := front.LookupBatch(reqs[i%len(reqs)], out); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, res := range out {
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

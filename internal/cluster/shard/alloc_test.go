//go:build !race

package shard

import (
	"testing"

	"routetab/internal/serve"
)

// maxFrontAllocs bounds the in-process front's allocations per batch. Race
// instrumentation allocates on its own, so the pin is for plain builds.
const maxFrontAllocs = 32

// TestFrontLookupBatchAllocs pins the batch front's allocations per batch,
// at two batch sizes, so they stay flat in the key count: pooled scratch
// carries the grouping, and each group costs its goroutine, its hedge timer
// and its member's batch, not a lookup per key. AllocsPerRun counts global
// mallocs, so the member servers' work is included.
func TestFrontLookupBatchAllocs(t *testing.T) {
	c, reqs := frontFixture(t, 1024, 2, 256, 8)
	front := c.Front()
	for _, size := range []int{64, 256} {
		out := make([]serve.Result, size)
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			if err := front.LookupBatch(reqs[i%len(reqs)][:size], out); err != nil {
				t.Fatal(err)
			}
			i++
		})
		for _, res := range out {
			if res.Err != nil {
				t.Fatalf("%d keys: %v", size, res.Err)
			}
		}
		t.Logf("%d keys: %.1f allocs per batch", size, allocs)
		if allocs > maxFrontAllocs {
			t.Fatalf("%d keys: %.1f allocs per batch, want at most %d", size, allocs, maxFrontAllocs)
		}
	}
}

package chaos

import "testing"

// TestRunBigSmallScale: the full large-graph harness — sparse topology,
// tables-tier landmark build, spot-graded closed loop with hot swaps — at a
// size small enough for the race detector.
func TestRunBigSmallScale(t *testing.T) {
	rep, err := RunBig(BigConfig{N: 256, Seed: 17, Lookups: 3_000, Workers: 2, Swaps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Landmarks < 2 {
		t.Fatalf("landmarks = %d", rep.Landmarks)
	}
	if rep.Lookups != 3_000 || rep.QPS <= 0 || rep.P50ns <= 0 || rep.P99ns < rep.P50ns {
		t.Fatalf("load figures: lookups=%d qps=%v p50=%d p99=%d", rep.Lookups, rep.QPS, rep.P50ns, rep.P99ns)
	}
	if rep.SpotGraded == 0 || rep.SpotViolations != 0 {
		t.Fatalf("spot grading: graded=%d violations=%d", rep.SpotGraded, rep.SpotViolations)
	}
	if rep.SpotMaxStretchMilli > 3000 {
		t.Fatalf("max stretch %d over bound", rep.SpotMaxStretchMilli)
	}
	if uint64(rep.SnapshotBytes) >= uint64(rep.N)*uint64(rep.N) {
		t.Fatalf("snapshot %d bytes is not sub-n² at n=%d", rep.SnapshotBytes, rep.N)
	}
}

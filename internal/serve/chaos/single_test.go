package chaos

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"routetab/internal/gengraph"
	"routetab/internal/serve"
)

// TestRunSmallSweep is the deterministic tier-1 chaos gate: a small
// G(32, 1/2) run with every single-node fault kind armed must grade clean.
func TestRunSmallSweep(t *testing.T) {
	sc := Scenario{Scheme: "fulltable", N: 32, Seed: 7, Lookups: 40_000, Workers: 6,
		Faults: []Fault{Stall, Stall, Drop, Drop, Burst, Burst, Burst, Burst, Burst, KillRestore, KillRestore}}
	rep, err := Run(sc)
	if err != nil {
		t.Fatalf("chaos run failed: %v\nreport: %v", err, rep)
	}
	if rep.Incorrect != 0 {
		t.Fatalf("incorrect answers: %d", rep.Incorrect)
	}
	if rep.Correct == 0 {
		t.Fatalf("no correct answers graded (lookups=%d)", rep.Lookups)
	}
	if rep.Bursts != 5 {
		t.Errorf("bursts executed = %d, want 5", rep.Bursts)
	}
	if rep.BurstEvents == 0 {
		t.Errorf("fault plan scheduled no events")
	}
	if rep.Kills != 2 {
		t.Errorf("kills executed = %d, want 2", rep.Kills)
	}
	if !rep.RestoredIdentical {
		t.Errorf("kill restore was not byte-identical")
	}
	if rep.RecoveryNs <= 0 {
		t.Errorf("recovery time not measured")
	}
	if !rep.SelfHealed {
		t.Errorf("topology did not self-heal")
	}
	if rep.MaxDetourExtraHops > 2 {
		t.Errorf("max detour extra = %d, want ≤ 2", rep.MaxDetourExtraHops)
	}
	if rep.AvailabilityPct < 90 {
		t.Errorf("availability %.2f%% below 90%%", rep.AvailabilityPct)
	}
	if rep.Trips == 0 || rep.Shunts == 0 {
		t.Errorf("stall surge exercised no breaker path (trips=%d shunts=%d)", rep.Trips, rep.Shunts)
	}
}

// TestRunDegradedDuringChurn runs bursts only (no kills/stalls/drops) and
// expects the overlay to actually produce graded degraded detours: the run
// must see churn, not just a healthy steady state.
func TestRunDegradedDuringChurn(t *testing.T) {
	rep, err := Run(Scenario{Scheme: "fulltable", N: 32, Seed: 3, Lookups: 60_000, Workers: 6,
		Faults: []Fault{Burst, Burst, Burst, Burst, Burst, Burst}})
	if err != nil {
		t.Fatalf("chaos run failed: %v\nreport: %v", err, rep)
	}
	if rep.Degraded+rep.Unavailable == 0 {
		t.Errorf("churn bursts produced no degraded or unavailable answers (events=%d); injection not reaching the serve path", rep.BurstEvents)
	}
	if rep.Incorrect != 0 {
		t.Fatalf("incorrect answers: %d", rep.Incorrect)
	}
	if !rep.SelfHealed {
		t.Errorf("topology did not self-heal after bursts")
	}
}

// TestRunWire: the single-node run on the full tier must hold its
// invariants on a small deterministic run — both protocols served, swaps
// observed by clients, and not one incorrect or errored answer over either
// transport.
func TestRunWire(t *testing.T) {
	rep, err := Run(Scenario{Scheme: "fulltable", N: 24, Seed: 7, Workers: 4, Lookups: 8000, Faults: []Fault{Swap, Swap}})
	if err != nil {
		t.Fatalf("%v\nreport: %v", err, rep)
	}
	if rep.Tier != serve.TierFull {
		t.Fatalf("tier %q: %s", rep.Tier, rep)
	}
	if rep.JSONLookups != 4000 || rep.BinLookups != 4000 {
		t.Fatalf("lookup targets missed: %s", rep)
	}
	if rep.Correct+rep.Degraded+rep.Rejected+rep.Unavailable == 0 {
		t.Fatalf("nothing graded: %s", rep)
	}
}

// TestRunBigSmallScale: the single-node run on the tables tier — sparse
// topology, landmark build, spot-graded closed loop over both transports with
// hot swaps — at a size small enough for the race detector.
func TestRunBigSmallScale(t *testing.T) {
	rep, err := Run(Scenario{Scheme: "landmark", N: 256, Seed: 17, Workers: 2, Lookups: 3_000, Faults: []Fault{Swap, Swap}})
	if err != nil {
		t.Fatalf("%v\nreport: %v", err, rep)
	}
	if rep.Tier != serve.TierTables || rep.Landmarks < 2 {
		t.Fatalf("tier = %q, landmarks = %d", rep.Tier, rep.Landmarks)
	}
	if rep.Lookups != 3_000 || rep.QPS <= 0 || rep.P50ns <= 0 || rep.P99ns < rep.P50ns {
		t.Fatalf("load figures: lookups=%d qps=%v p50=%d p99=%d", rep.Lookups, rep.QPS, rep.P50ns, rep.P99ns)
	}
	if rep.JSONLookups == 0 || rep.BinLookups == 0 || rep.JSONLookups+rep.BinLookups != rep.Lookups {
		t.Fatalf("transports: %d json + %d binary of %d lookups", rep.JSONLookups, rep.BinLookups, rep.Lookups)
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

// TestBinaryDoublesJSONThroughput is the RTBIN1 throughput bound: at
// GOMAXPROCS 1, the same seeded closed loop (4 clients, batches of 16, 5,000
// lookups per transport, JSON first, then binary) over real loopback
// listeners must answer at least twice as many lookups per second over
// binary TCP as over JSON HTTP, every answer strictly correct.
func TestBinaryDoublesJSONThroughput(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n, lookups = 64, 5_000
	g, err := gengraph.GnHalf(n, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := serve.NewEngine(g, "fulltable")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(eng, serve.ServerOptions{Shards: 1, StretchSampleEvery: -1})
	defer srv.Close()
	jsonClient, binClient, closeAll, err := listenBoth(srv)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll()

	qps := func(name string, lookupBatch func([][2]int, []serve.Result) error) float64 {
		gr := &grader{strict: true}
		elapsed, err := loop{
			n: n, workers: 4, batch: 16, seed: 1, lookups: lookups,
			answered: &gr.answered, maxBackoff: 2 * time.Millisecond,
			lookup: func(pairs [][2]int, out []serve.Result) (time.Duration, error) {
				if err := lookupBatch(pairs, out); err != nil {
					return 0, err
				}
				var backoff time.Duration
				for i := range out {
					backoff = max(backoff, gr.judge(pairs[i], &out[i], nil))
				}
				return backoff, nil
			},
		}.run(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c := gr.correct.Load(); c != lookups {
			t.Fatalf("%s: %d of %d answers correct (incorrect=%d rejected=%d errored=%d)",
				name, c, lookups, gr.incorrect.Load(), gr.rejected.Load(), gr.errored.Load())
		}
		return lookups / elapsed.Seconds()
	}
	jsonQPS := qps("json-http", jsonClient.LookupBatch)
	binQPS := qps("bin-tcp", binClient.LookupBatch)
	t.Logf("bin-tcp %.0f qps, json-http %.0f qps (%.1f×)", binQPS, jsonQPS, binQPS/jsonQPS)
	if binQPS < 2*jsonQPS {
		t.Fatalf("bin-tcp %.0f qps < 2× json-http %.0f qps at GOMAXPROCS=1", binQPS, jsonQPS)
	}
}

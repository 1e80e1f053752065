package chaos

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunShardSmall is the deterministic tier-1 gate for the partitioned
// cluster harness at a CI-friendly n: per-group replica partitions, a wire
// corruption, a live split racing churn, and a shard-primary kill + promotion
// must all resolve with zero spot violations, every quiesce route walk within
// stretch 3, and per-group convergence. Each shard's resync payload must stay
// below that of one unsharded 3-member landmark group on the same topology,
// the byte economics the keyspace partition exists for. The n=4096 run is
// `make shardchaos`.
func TestRunShardSmall(t *testing.T) {
	cfg := ShardConfig{
		N:        192,
		Seed:     7,
		Groups:   2,
		Replicas: 1,
		Lookups:  6_000,
		Workers:  3,
	}
	rep, err := RunShard(cfg)
	if err != nil {
		t.Fatalf("shard chaos run failed: %v\nreport: %v", err, rep)
	}
	if rep.SpotViolations != 0 {
		t.Fatalf("spot violations: %d", rep.SpotViolations)
	}
	if rep.SpotGraded == 0 {
		t.Fatalf("no answers spot-graded (lookups=%d)", rep.Lookups)
	}
	if rep.SpotMaxStretchMilli > 3000 {
		t.Errorf("max estimate stretch %.3f exceeds the scheme bound 3", float64(rep.SpotMaxStretchMilli)/1000)
	}
	if rep.WalksGraded == 0 {
		t.Errorf("no quiesce route walks graded")
	}
	if !rep.SplitDone || rep.FinalGroups != cfg.Groups+1 || rep.MapEpoch != 2 {
		t.Errorf("split: done=%v groups=%d epoch=%d, want true/%d/2",
			rep.SplitDone, rep.FinalGroups, rep.MapEpoch, cfg.Groups+1)
	}
	if rep.SplitNs <= 0 {
		t.Errorf("split latency not measured")
	}
	if !rep.Promoted {
		t.Errorf("shard primary kill did not end in promotion")
	}
	if rep.FailoverNs <= 0 {
		t.Errorf("failover latency not measured")
	}
	if rep.Partitions < cfg.Groups {
		t.Errorf("partitions injected = %d, want ≥ %d", rep.Partitions, cfg.Groups)
	}
	if rep.Corruptions != 1 {
		t.Errorf("corruptions injected = %d, want 1", rep.Corruptions)
	}
	if !rep.DigestsConverged || !rep.TablesIdentical || !rep.TopologiesEqual {
		t.Errorf("quiesce: digests=%v tables=%v topologies=%v",
			rep.DigestsConverged, rep.TablesIdentical, rep.TopologiesEqual)
	}
	if len(rep.PerShard) != rep.FinalGroups {
		t.Fatalf("per-shard stats for %d groups, want %d", len(rep.PerShard), rep.FinalGroups)
	}
	base, err := RunCluster(ClusterConfig{N: cfg.N, Seed: cfg.Seed, Scheme: "landmark",
		Replicas: 2, Lookups: cfg.Lookups, Workers: cfg.Workers})
	if err != nil {
		t.Fatalf("single-group baseline failed: %v\nreport: %v", err, base)
	}
	for _, s := range rep.PerShard {
		if s.AvailabilityPct < 99 {
			t.Errorf("shard %d availability %.3f%% below floor", s.Group, s.AvailabilityPct)
		}
		if s.ResyncBytes <= 0 || s.ResyncBytes >= base.ResyncBytes {
			t.Errorf("shard %d resync payload %d B, want in (0, %d) (single-group baseline)",
				s.Group, s.ResyncBytes, base.ResyncBytes)
		}
	}
}

// TestRunShardNoSplitNoKill checks the partition/corruption path standalone:
// the map stays at epoch 1, no promotion, and convergence still holds.
func TestRunShardNoSplitNoKill(t *testing.T) {
	rep, err := RunShard(ShardConfig{
		N:         128,
		Seed:      11,
		Groups:    2,
		Replicas:  1,
		Lookups:   4_000,
		Workers:   2,
		SkipSplit: true,
		SkipKill:  true,
	})
	if err != nil {
		t.Fatalf("shard chaos run failed: %v\nreport: %v", err, rep)
	}
	if rep.SplitDone || rep.MapEpoch != 1 || rep.FinalGroups != 2 {
		t.Errorf("no-split run: done=%v epoch=%d groups=%d", rep.SplitDone, rep.MapEpoch, rep.FinalGroups)
	}
	if rep.Promoted {
		t.Errorf("no-kill run promoted")
	}
	if !rep.DigestsConverged || !rep.TablesIdentical || !rep.TopologiesEqual {
		t.Errorf("quiesce: digests=%v tables=%v topologies=%v",
			rep.DigestsConverged, rep.TablesIdentical, rep.TopologiesEqual)
	}
}

func TestWriteShardCSV(t *testing.T) {
	rep, err := RunShard(ShardConfig{
		N:         96,
		Seed:      3,
		Groups:    2,
		Replicas:  1,
		Lookups:   2_500,
		Workers:   2,
		SkipSplit: true,
		SkipKill:  true,
	})
	if err != nil {
		t.Fatalf("run: %v\nreport: %v", err, rep)
	}
	var buf bytes.Buffer
	if err := WriteShardCSV(&buf, []*ShardReport{rep}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d, want 2", len(lines))
	}
	if lines[0] != ShardCSVHeader {
		t.Fatalf("header mismatch: %q", lines[0])
	}
	if got := strings.Count(lines[1], ","); got != strings.Count(ShardCSVHeader, ",") {
		t.Fatalf("row has %d commas, header %d", got, strings.Count(ShardCSVHeader, ","))
	}
}

package chaos

import (
	"bytes"
	"strings"
	"testing"
)

// noPromote is the cluster gates' fault list without the primary kill.
var noPromote = []Fault{Churn, CrashRestart, Partition, Corrupt, Truncate, Churn}

// TestRunClusterSmall is the deterministic tier-1 cluster gate on both
// tiers: a cluster must survive a partition of every replica, a kill -9 of
// the primary recovered from its WAL, a WAL corruption, a WAL truncation, and
// a primary kill + promotion, with zero wrong answers and byte-identical
// convergence at quiesce. The full tier grades every answer strictly, for
// fulltable and for compact (a two-member cluster); the tables tier
// spot-grades on a sparse topology at a CI-friendly n (the n=4096 run is the
// `make bigcluster` gate; landmark-n128 is that run's configuration scaled
// down) and must resync with fewer bytes than the n² matrix.
func TestRunClusterSmall(t *testing.T) {
	for _, tc := range []struct {
		name string
		sc   Scenario
	}{
		{"fulltable", Scenario{Scheme: "fulltable", N: 32, Seed: 7, Lookups: 30_000, Workers: 4, Replicas: 2, Faults: clusterFaults}},
		{"compact", Scenario{Scheme: "compact", N: 24, Seed: 1, Lookups: 10_000, Workers: 2, Replicas: 1, Faults: clusterFaults}},
		{"landmark", Scenario{Scheme: "landmark", N: 192, Seed: 7, Lookups: 6_000, Workers: 3, Replicas: 2, Faults: clusterFaults}},
		{"landmark-n128", Scenario{Scheme: "landmark", N: 128, Seed: 1, Lookups: 4_000, Workers: 2, Replicas: 2, Faults: clusterFaults}},
	} {
		sc := tc.sc
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Run(sc)
			if err != nil {
				t.Fatalf("cluster chaos run failed: %v\nreport: %v", err, rep)
			}
			if sc.Scheme != "landmark" {
				if rep.Tier != "full" {
					t.Errorf("tier = %q, want full", rep.Tier)
				}
				if rep.Incorrect != 0 {
					t.Fatalf("incorrect answers: %d", rep.Incorrect)
				}
				if rep.Correct == 0 {
					t.Fatalf("no correct answers graded (lookups=%d)", rep.Lookups)
				}
				if rep.AvailabilityPct < 99 {
					t.Errorf("availability %.3f%% below 99%%", rep.AvailabilityPct)
				}
			} else {
				if rep.Tier != "tables" {
					t.Errorf("tier = %q, want tables", rep.Tier)
				}
				if rep.SpotViolations != 0 {
					t.Fatalf("spot violations: %d", rep.SpotViolations)
				}
				if rep.SpotGraded == 0 {
					t.Fatalf("no answers spot-graded (lookups=%d)", rep.Lookups)
				}
				if rep.SpotMaxStretchMilli > 3000 {
					t.Errorf("max stretch %.3f exceeds the scheme bound 3", float64(rep.SpotMaxStretchMilli)/1000)
				}
				if rep.Landmarks == 0 {
					t.Errorf("landmark count not reported")
				}
				if rep.ResyncBytes <= 0 || uint64(rep.ResyncBytes) >= rep.MatrixBytes {
					t.Errorf("resync %d B vs matrix %d B: the tables tier must undercut the matrix", rep.ResyncBytes, rep.MatrixBytes)
				}
				if rep.MatrixBytes != uint64(sc.N)*uint64(sc.N) {
					t.Errorf("matrix bytes = %d, want %d", rep.MatrixBytes, sc.N*sc.N)
				}
				if rep.AvailabilityPct < 98 {
					t.Errorf("availability %.3f%% below 98%%", rep.AvailabilityPct)
				}
			}
			if rep.Members != sc.Replicas+1 {
				t.Errorf("members = %d, want %d", rep.Members, sc.Replicas+1)
			}
			if rep.Partitions < sc.Replicas {
				t.Errorf("partitions injected = %d, want ≥ %d", rep.Partitions, sc.Replicas)
			}
			if rep.Corruptions != 1 {
				t.Errorf("corruptions injected = %d, want 1", rep.Corruptions)
			}
			if rep.Truncations != 1 {
				t.Errorf("truncations = %d, want 1", rep.Truncations)
			}
			if !rep.Promoted || rep.FinalEpoch != 2 {
				t.Errorf("promotion: promoted=%v epoch=%d, want true/2", rep.Promoted, rep.FinalEpoch)
			}
			if rep.CrashRestarts != 1 || !rep.WalRecovered {
				t.Errorf("crash phase: restarts=%d wal_recovered=%v, want 1/true", rep.CrashRestarts, rep.WalRecovered)
			}
			if rep.RecoveryResyncs != 0 {
				t.Errorf("crash restart cost %d full resyncs, want 0 (replicas must catch up via WAL)", rep.RecoveryResyncs)
			}
			if rep.SettleTimeouts != 0 {
				t.Errorf("%d settles ran out their deadline, want 0", rep.SettleTimeouts)
			}
			if rep.FailoverNs <= 0 {
				t.Errorf("failover latency not measured")
			}
			if rep.Resyncs == 0 {
				t.Errorf("no resyncs recorded (corruption/truncation/promotion must force some)")
			}
			if !rep.DigestsConverged || !rep.TablesIdentical {
				t.Errorf("quiesce: digests=%v identical=%v", rep.DigestsConverged, rep.TablesIdentical)
			}
			served := uint64(0)
			for _, m := range rep.PerMember {
				served += m.Served
			}
			if served == 0 {
				t.Errorf("per-member accounting empty: %+v", rep.PerMember)
			}
		})
	}
}

// TestRunClusterNoKill checks the partition/corruption path standalone on
// both tiers: no promotion, epoch stays 1, and convergence still holds.
func TestRunClusterNoKill(t *testing.T) {
	for _, sc := range []Scenario{
		{Scheme: "fulltable", N: 24, Seed: 11, Lookups: 15_000, Workers: 3, Replicas: 2, Faults: noPromote},
		{Scheme: "landmark", N: 128, Seed: 11, Lookups: 4_000, Workers: 2, Replicas: 2, Faults: noPromote},
	} {
		t.Run(sc.Scheme, func(t *testing.T) {
			rep, err := Run(sc)
			if err != nil {
				t.Fatalf("cluster chaos run failed: %v\nreport: %v", err, rep)
			}
			if rep.Promoted || rep.FinalEpoch != 1 {
				t.Errorf("no-kill run promoted=%v epoch=%d", rep.Promoted, rep.FinalEpoch)
			}
			if !rep.DigestsConverged || !rep.TablesIdentical {
				t.Errorf("quiesce: digests=%v identical=%v", rep.DigestsConverged, rep.TablesIdentical)
			}
		})
	}
}

// TestWriteClusterCSV writes one row per tier into the shared CSV layout.
func TestWriteClusterCSV(t *testing.T) {
	checkCSV(t, []Scenario{
		{Scheme: "fulltable", N: 16, Seed: 3, Lookups: 8_000, Workers: 2, Replicas: 1, Faults: noPromote},
		{Scheme: "landmark", N: 96, Seed: 3, Lookups: 2_500, Workers: 2, Replicas: 1, Faults: noPromote},
	}, ClusterCSVHeader, []string{"fulltable,full,", "landmark,tables,"})
}

// TestWriteBigClusterCSV checks that a tables-tier report alone fills the
// shared CSV layout: the row is tagged with its tier and has every column.
func TestWriteBigClusterCSV(t *testing.T) {
	checkCSV(t, []Scenario{
		{Scheme: "landmark", N: 96, Seed: 3, Lookups: 2_500, Workers: 2, Replicas: 1, Faults: noPromote},
	}, ClusterCSVHeader, []string{"landmark,tables,"})
}

// checkCSV runs each scenario, writes the reports as CSV, and checks the
// header and that row i starts with prefixes[i] and has as many columns as
// the header.
func checkCSV(t *testing.T, scs []Scenario, header string, prefixes []string) {
	t.Helper()
	var reports []*Report
	for _, sc := range scs {
		rep, err := Run(sc)
		if err != nil {
			t.Fatalf("%s run: %v\nreport: %v", sc.Scheme, err, rep)
		}
		reports = append(reports, rep)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, reports); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(scs)+1 {
		t.Fatalf("csv lines = %d, want %d", len(lines), len(scs)+1)
	}
	if lines[0] != header {
		t.Fatalf("header mismatch: %q", lines[0])
	}
	for i, row := range lines[1:] {
		if i < len(prefixes) && !strings.HasPrefix(row, prefixes[i]) {
			t.Errorf("row %d = %q, want prefix %q", i+1, row, prefixes[i])
		}
		if got := strings.Count(row, ","); got != strings.Count(header, ",") {
			t.Fatalf("row %d has %d commas, header %d", i+1, got, strings.Count(header, ","))
		}
	}
}

// TestRunShardSmall is the deterministic tier-1 gate for the sharded shape at
// a CI-friendly n: per-group replica partitions, a wire corruption, a live
// split racing churn, and a shard-primary kill + promotion must all resolve
// with zero spot violations, every quiesce route walk within stretch 3,
// per-group convergence, and no settle running out its deadline. Each shard's
// resync payload must stay below that of one unsharded 3-member landmark
// group on the same topology, the byte economics the keyspace partition
// exists for. The n=4096 run is `make shardchaos`.
func TestRunShardSmall(t *testing.T) {
	sc := Scenario{Scheme: "landmark", N: 192, Seed: 7, Lookups: 6_000, Workers: 3, Replicas: 1, Groups: 2, Faults: shardFaults}
	rep, err := Run(sc)
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
	if !rep.SplitDone || rep.FinalGroups != sc.Groups+1 || rep.MapEpoch != 2 {
		t.Errorf("split: done=%v groups=%d epoch=%d, want true/%d/2",
			rep.SplitDone, rep.FinalGroups, rep.MapEpoch, sc.Groups+1)
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
	if rep.Partitions < sc.Groups {
		t.Errorf("partitions injected = %d, want ≥ %d", rep.Partitions, sc.Groups)
	}
	if rep.Corruptions != 1 {
		t.Errorf("corruptions injected = %d, want 1", rep.Corruptions)
	}
	if rep.SettleTimeouts != 0 {
		t.Errorf("%d settles ran out their deadline, want 0", rep.SettleTimeouts)
	}
	if !rep.DigestsConverged || !rep.TablesIdentical || !rep.TopologiesEqual {
		t.Errorf("quiesce: digests=%v tables=%v topologies=%v",
			rep.DigestsConverged, rep.TablesIdentical, rep.TopologiesEqual)
	}
	if len(rep.PerShard) != rep.FinalGroups {
		t.Fatalf("per-shard stats for %d groups, want %d", len(rep.PerShard), rep.FinalGroups)
	}
	base, err := Run(Scenario{Scheme: "landmark", N: sc.N, Seed: sc.Seed, Lookups: sc.Lookups, Workers: sc.Workers,
		Replicas: 2, Faults: clusterFaults})
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

// noSplitNoKill is the shard gate's fault list without the split and the
// primary kill.
var noSplitNoKill = []Fault{Churn, Partition, Corrupt, Churn}

// TestRunShardNoSplitNoKill checks the partition/corruption path standalone:
// the map stays at epoch 1, no promotion, and convergence still holds.
func TestRunShardNoSplitNoKill(t *testing.T) {
	rep, err := Run(Scenario{Scheme: "landmark", N: 128, Seed: 11, Lookups: 4_000, Workers: 2, Replicas: 1, Groups: 2,
		Faults: noSplitNoKill})
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
	checkCSV(t, []Scenario{{Scheme: "landmark", N: 96, Seed: 3, Lookups: 2_500, Workers: 2, Replicas: 1, Groups: 2,
		Faults: noSplitNoKill}}, ShardCSVHeader, nil)
}

package chaos

import (
	"bytes"
	"strings"
	"testing"
)

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
		cfg  ClusterConfig
	}{
		{"fulltable", ClusterConfig{N: 32, Seed: 7, Scheme: "fulltable", Replicas: 2, Lookups: 30_000, Workers: 4}},
		{"compact", ClusterConfig{N: 24, Seed: 1, Scheme: "compact", Replicas: 1, Lookups: 10_000, Workers: 2}},
		{"landmark", ClusterConfig{N: 192, Seed: 7, Scheme: "landmark", Replicas: 2, Lookups: 6_000, Workers: 3}},
		{"landmark-n128", ClusterConfig{N: 128, Seed: 1, Scheme: "landmark", Replicas: 2, Lookups: 4_000, Workers: 2}},
	} {
		cfg := tc.cfg
		t.Run(tc.name, func(t *testing.T) {
			rep, err := RunCluster(cfg)
			if err != nil {
				t.Fatalf("cluster chaos run failed: %v\nreport: %v", err, rep)
			}
			if cfg.Scheme != "landmark" {
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
				if rep.MatrixBytes != uint64(cfg.N)*uint64(cfg.N) {
					t.Errorf("matrix bytes = %d, want %d", rep.MatrixBytes, cfg.N*cfg.N)
				}
				if rep.AvailabilityPct < 98 {
					t.Errorf("availability %.3f%% below 98%%", rep.AvailabilityPct)
				}
			}
			if rep.Members != cfg.Replicas+1 {
				t.Errorf("members = %d, want %d", rep.Members, cfg.Replicas+1)
			}
			if rep.Partitions < cfg.Replicas {
				t.Errorf("partitions injected = %d, want ≥ %d", rep.Partitions, cfg.Replicas)
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
	for _, cfg := range []ClusterConfig{
		{N: 24, Seed: 11, Scheme: "fulltable", Replicas: 2, Lookups: 15_000, Workers: 3, SkipKill: true},
		{N: 128, Seed: 11, Scheme: "landmark", Replicas: 2, Lookups: 4_000, Workers: 2, SkipKill: true},
	} {
		t.Run(cfg.Scheme, func(t *testing.T) {
			rep, err := RunCluster(cfg)
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
	checkClusterCSV(t, []ClusterConfig{
		{N: 16, Seed: 3, Scheme: "fulltable", Replicas: 1, Lookups: 8_000, Workers: 2, SkipKill: true},
		{N: 96, Seed: 3, Scheme: "landmark", Replicas: 1, Lookups: 2_500, Workers: 2, SkipKill: true},
	}, []string{"fulltable,full,", "landmark,tables,"})
}

// TestWriteBigClusterCSV checks that a tables-tier report alone fills the
// shared CSV layout: the row is tagged with its tier and has every column.
func TestWriteBigClusterCSV(t *testing.T) {
	checkClusterCSV(t, []ClusterConfig{
		{N: 96, Seed: 3, Scheme: "landmark", Replicas: 1, Lookups: 2_500, Workers: 2, SkipKill: true},
	}, []string{"landmark,tables,"})
}

// checkClusterCSV runs each config, writes the reports as CSV, and checks the
// header and that row i starts with prefixes[i] (scheme and tier) and has as
// many columns as the header.
func checkClusterCSV(t *testing.T, cfgs []ClusterConfig, prefixes []string) {
	t.Helper()
	var reports []*ClusterReport
	for _, cfg := range cfgs {
		rep, err := RunCluster(cfg)
		if err != nil {
			t.Fatalf("%s run: %v\nreport: %v", cfg.Scheme, err, rep)
		}
		reports = append(reports, rep)
	}
	var buf bytes.Buffer
	if err := WriteClusterCSV(&buf, reports); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(cfgs)+1 {
		t.Fatalf("csv lines = %d, want %d", len(lines), len(cfgs)+1)
	}
	if lines[0] != ClusterCSVHeader {
		t.Fatalf("header mismatch: %q", lines[0])
	}
	for i, prefix := range prefixes {
		row := lines[i+1]
		if !strings.HasPrefix(row, prefix) {
			t.Errorf("row %d = %q, want prefix %q", i+1, row, prefix)
		}
		if got := strings.Count(row, ","); got != strings.Count(ClusterCSVHeader, ",") {
			t.Fatalf("row %d has %d commas, header %d", i+1, got, strings.Count(ClusterCSVHeader, ","))
		}
	}
}

package chaos

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestRunSmallSweep is the deterministic tier-1 chaos gate: a small
// G(32, 1/2) run with every injection kind armed must grade clean.
func TestRunSmallSweep(t *testing.T) {
	cfg := Config{
		N:           32,
		Seed:        7,
		Scheme:      "fulltable",
		Lookups:     40_000,
		Workers:     6,
		Stalls:      2,
		StallDur:    5 * time.Millisecond,
		Drops:       2,
		DropBatches: 20,
		Bursts:      5,
		BurstLinks:  6,
		BurstNodes:  1,
		Kills:       2,
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("chaos run failed: %v\nreport: %v", err, rep)
	}
	if rep.Incorrect != 0 {
		t.Fatalf("incorrect answers: %d", rep.Incorrect)
	}
	if rep.Correct == 0 {
		t.Fatalf("no correct answers graded (lookups=%d)", rep.Lookups)
	}
	if rep.Bursts != cfg.Bursts {
		t.Errorf("bursts executed = %d, want %d", rep.Bursts, cfg.Bursts)
	}
	if rep.BurstEvents == 0 {
		t.Errorf("fault plan scheduled no events")
	}
	if rep.Kills != cfg.Kills {
		t.Errorf("kills executed = %d, want %d", rep.Kills, cfg.Kills)
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
	cfg := Config{
		N:          32,
		Seed:       3,
		Lookups:    60_000,
		Stalls:     -1,
		Drops:      -1,
		Kills:      -1,
		Bursts:     6,
		BurstLinks: 10,
		BurstNodes: 2,
	}
	rep, err := Run(cfg)
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

// TestRunRejectsNonShortestPathScheme: strict grading needs stretch-1 ground
// truth, so stretchy schemes are refused up front — by the single-node run
// too, which spot-grades only schemes with a table codec.
func TestRunRejectsNonShortestPathScheme(t *testing.T) {
	if _, err := Run(Config{N: 16, Scheme: "interval-dfs"}); err == nil {
		t.Fatalf("Run accepted a non-shortest-path scheme")
	}
	if _, err := RunNode(NodeConfig{N: 16, Seed: 1, Scheme: "interval-dfs", Workers: 1, Lookups: 100, Swaps: 1}); err == nil {
		t.Fatalf("RunNode accepted a non-shortest-path scheme")
	}
	if _, err := Run(Config{N: 16, Scheme: "no-such-scheme"}); err == nil {
		t.Fatalf("Run accepted an unknown scheme")
	}
}

// TestWriteCSV checks the artefact layout: header plus one row per report,
// with column count matching the header.
func TestWriteCSV(t *testing.T) {
	rep := &Report{Scheme: "fulltable", N: 64, Seed: 1, Ledger: Ledger{Lookups: 1000, Served: 1000, AvailabilityPct: 100},
		Correct: 990, Degraded: 10, RestoredIdentical: true, SelfHealed: true}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []*Report{rep, rep}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	want := len(strings.Split(CSVHeader, ","))
	for i, ln := range lines {
		if got := len(strings.Split(ln, ",")); got != want {
			t.Errorf("line %d has %d columns, want %d: %q", i, got, want, ln)
		}
	}
}

// TestErrorsAreDistinct guards errors.Is behaviour the daemon relies on when
// mapping run failures to exit codes.
func TestErrorsAreDistinct(t *testing.T) {
	all := []error{ErrIncorrect, ErrBudget, ErrDetourBudget, ErrRestore, ErrNotHealed}
	for i, a := range all {
		for j, b := range all {
			if (i == j) != errors.Is(a, b) {
				t.Errorf("errors.Is(%v, %v) = %v", a, b, errors.Is(a, b))
			}
		}
	}
}

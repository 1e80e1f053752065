package chaos

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// gateScenario returns the scenario of the gate row name.
func gateScenario(t *testing.T, name string) Scenario {
	t.Helper()
	for _, g := range Gates {
		if g.Name == name {
			return g.Scenario
		}
	}
	t.Fatalf("no gate row %q", name)
	return Scenario{}
}

// TestGatesValidate: every row of the gate table is a scenario Run accepts
// at the row's own parameters (the crash row: a scheme RunCrash accepts).
func TestGatesValidate(t *testing.T) {
	for _, g := range Gates {
		if g.Crash {
			if plan, err := planFor(g.Scheme); err != nil || !plan.strict {
				t.Errorf("crash row scheme %q: strict=%v err=%v", g.Scheme, plan.strict, err)
			}
			continue
		}
		if _, err := g.validate(); err != nil {
			t.Errorf("gate %s: %v", g.Name, err)
		}
	}
}

// TestRunRejectsNonShortestPathScheme: strict grading needs stretch-1 ground
// truth and spot grading a table codec, so a scheme with neither is refused
// up front in every shape, as is an unknown scheme.
func TestRunRejectsNonShortestPathScheme(t *testing.T) {
	for _, sc := range []Scenario{
		{Scheme: "interval", N: 16, Seed: 1, Lookups: 100, Workers: 1, Faults: []Fault{Swap}},
		{Scheme: "interval", N: 16, Seed: 1, Lookups: 100, Workers: 1, Replicas: 1, Faults: []Fault{Churn}},
		{Scheme: "no-such-scheme", N: 16, Seed: 1, Lookups: 100, Workers: 1},
	} {
		if rep, err := Run(sc); err == nil || rep != nil {
			t.Errorf("Run accepted scheme %q (replicas=%d)", sc.Scheme, sc.Replicas)
		}
	}
}

// TestRunRefusesInvalidScenarios: a scenario that cannot run is refused
// before anything is built, with no report.
func TestRunRefusesInvalidScenarios(t *testing.T) {
	single := Scenario{Scheme: "fulltable", N: 16, Seed: 1, Lookups: 100, Workers: 1}
	with := func(sc Scenario, f func(*Scenario)) Scenario { f(&sc); return sc }
	for name, sc := range map[string]Scenario{
		"kill-restore on tables": with(single, func(s *Scenario) { s.Scheme, s.Faults = "landmark", []Fault{KillRestore} }),
		"burst on tables":        with(single, func(s *Scenario) { s.Scheme, s.Faults = "landmark", []Fault{Burst} }),
		"promote, 0 replicas":    with(single, func(s *Scenario) { s.Faults = []Fault{Promote} }),
		"split without shards":   with(single, func(s *Scenario) { s.Replicas, s.Faults = 2, []Fault{Split} }),
		"group fault, 1 node":    with(single, func(s *Scenario) { s.Faults = []Fault{Churn} }),
		"node fault in a group":  with(single, func(s *Scenario) { s.Replicas, s.Faults = 1, []Fault{Stall} }),
		"crash-restart, shards":  with(single, func(s *Scenario) { s.Scheme, s.Replicas, s.Groups, s.Faults = "landmark", 1, 2, []Fault{CrashRestart} }),
		"shards on full tier":    with(single, func(s *Scenario) { s.Replicas, s.Groups = 1, 2 }),
		"shards, 0 replicas":     with(single, func(s *Scenario) { s.Scheme, s.Groups = "landmark", 2 }),
		"unknown fault":          with(single, func(s *Scenario) { s.Faults = []Fault{Split + 1} }),
		"tiny n":                 with(single, func(s *Scenario) { s.N = 4 }),
		"no lookups":             with(single, func(s *Scenario) { s.Lookups = 0 }),
	} {
		if rep, err := Run(sc); err == nil || rep != nil {
			t.Errorf("%s: Run accepted %+v", name, sc)
		}
	}
}

// cleanReport is a report that holds every invariant of every shape.
func cleanReport(tier string) *Report {
	return &Report{Tier: tier, Ledger: Ledger{Lookups: 1000, Served: 1000}, SpotTotals: SpotTotals{SpotGraded: 100},
		RestoredIdentical: true, SelfHealed: true, JSONLookups: 500, BinLookups: 500, Swaps: 2, SeqsSeen: 3,
		MinShardAvailabilityPct: 100, DigestsConverged: true, TablesIdentical: true, TopologiesEqual: true,
		WalksGraded: 8, WalRecovered: true, Promoted: true, SplitDone: true}
}

// TestVerdictInvariants: for every invariant, a report that breaks only that
// one fails with the matching sentinel, on the gate row whose scenario
// implies it; a clean report passes every row; each budget holds at its
// bound and breaks one lookup past it.
func TestVerdictInvariants(t *testing.T) {
	for _, g := range Gates {
		if !g.Crash {
			plan, _ := planFor(g.Scheme)
			if err := verdict(g.Scenario, cleanReport(plan.name)); err != nil {
				t.Errorf("clean %s report: %v", g.Name, err)
			}
		}
	}
	unserved := func(k uint64) func(*Report) { return func(r *Report) { r.Served = r.Lookups - k } }
	for _, tc := range []struct {
		name, gate string
		breakIt    func(*Report)
		want       error
	}{
		{"incorrect answer", "cluster", func(r *Report) { r.Incorrect = 1 }, ErrIncorrect},
		{"errored single-node answer", "wiresmoke", func(r *Report) { r.Errored, r.Served = 1, 999 }, ErrIncorrect},
		{"detour over +2", "chaos", func(r *Report) { r.MaxDetourExtraHops = 3 }, ErrDetourBudget},
		{"spot violation", "bigcluster", func(r *Report) { r.SpotViolations = 1 }, ErrIncorrect},
		{"no spot-graded answers", "bigsmoke", func(r *Report) { r.SpotGraded = 0 }, ErrUngraded},
		{"single budget at bound", "chaos", unserved(100), nil},
		{"single budget", "chaos", unserved(101), ErrBudget},
		{"full-tier cluster budget at bound", "cluster", unserved(10), nil},
		{"full-tier cluster budget", "cluster", unserved(11), ErrBudget},
		{"tables-tier cluster budget at bound", "bigcluster", unserved(20), nil},
		{"tables-tier cluster budget", "bigcluster", unserved(21), ErrBudget},
		{"per-shard floor", "shardchaos", func(r *Report) { r.MinShardAvailabilityPct = 98.9 }, ErrBudget},
		{"not converged", "cluster", func(r *Report) { r.DigestsConverged = false }, ErrDiverged},
		{"not identical", "shardchaos", func(r *Report) { r.TablesIdentical = false }, ErrDiverged},
		{"topologies unequal", "shardchaos", func(r *Report) { r.TopologiesEqual = false }, ErrDiverged},
		{"restore not identical", "chaos", func(r *Report) { r.RestoredIdentical = false }, ErrRestore},
		{"not self-healed", "chaos", func(r *Report) { r.SelfHealed = false }, ErrNotHealed},
		{"WAL not recovered", "bigcluster", func(r *Report) { r.WalRecovered = false }, ErrRecovery},
		{"not promoted", "shardchaos", func(r *Report) { r.Promoted = false }, ErrFailover},
		{"split not done", "shardchaos", func(r *Report) { r.SplitDone = false }, ErrSplit},
		{"no route walks", "cluster", func(r *Report) { r.WalksGraded = 0 }, ErrUngraded},
		{"json unused", "wiresmoke", func(r *Report) { r.JSONLookups = 0 }, ErrProtocolUnused},
		{"binary unused", "bigsmoke", func(r *Report) { r.BinLookups = 0 }, ErrProtocolUnused},
		{"no swap", "wiresmoke", func(r *Report) { r.Swaps = 0 }, ErrNoSwap},
		{"one seq seen", "bigsmoke", func(r *Report) { r.SeqsSeen = 1 }, ErrNoSwap},
	} {
		sc := gateScenario(t, tc.gate)
		plan, _ := planFor(sc.Scheme)
		r := cleanReport(plan.name)
		tc.breakIt(r)
		if err := verdict(sc, r); !errors.Is(err, tc.want) {
			t.Errorf("%s on %s: verdict %v, want %v", tc.name, tc.gate, err, tc.want)
		}
	}
}

// TestWriteCSV checks the artefact layout of each shape: header plus one row
// per report, with column count matching the header.
func TestWriteCSV(t *testing.T) {
	for header, rep := range map[string]*Report{
		CSVHeader:        {Scheme: "fulltable", N: 64, Seed: 1, Ledger: Ledger{Lookups: 1000, Served: 1000}, Correct: 990, Degraded: 10},
		ClusterCSVHeader: {Scheme: "fulltable", Tier: "full", N: 64, Replicas: 2, Members: 3},
		ShardCSVHeader:   {Scheme: "landmark", Tier: "tables", N: 64, Replicas: 1, Groups: 2},
	} {
		var buf bytes.Buffer
		if err := WriteCSV(&buf, []*Report{rep, rep}); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if len(lines) != 3 || lines[0] != header {
			t.Fatalf("got %d lines under %q, want 3 under %q", len(lines), lines[0], header)
		}
		want := len(strings.Split(header, ","))
		for i, ln := range lines {
			if got := len(strings.Split(ln, ",")); got != want {
				t.Errorf("line %d has %d columns, want %d: %q", i, got, want, ln)
			}
		}
	}
}

// TestErrorsAreDistinct guards errors.Is behaviour callers rely on when
// mapping run failures to exit codes.
func TestErrorsAreDistinct(t *testing.T) {
	all := []error{ErrIncorrect, ErrBudget, ErrDetourBudget, ErrUngraded, ErrRestore, ErrNotHealed,
		ErrDiverged, ErrFailover, ErrRecovery, ErrLeak, ErrSplit, ErrProtocolUnused, ErrNoSwap, ErrCrashMatrix}
	for i, a := range all {
		for j, b := range all {
			if (i == j) != errors.Is(a, b) {
				t.Errorf("errors.Is(%v, %v) = %v", a, b, errors.Is(a, b))
			}
		}
	}
}

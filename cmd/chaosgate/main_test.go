package main

import (
	"bytes"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"routetab/internal/serve/chaos"
)

// runGate runs chaosgate with args, failing the test on error, and returns
// what it printed.
func runGate(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("chaosgate %v: %v\n%s", args, err, out.String())
	}
	return out.String()
}

// csvLines returns the trimmed lines of the CSV artefact at path.
func csvLines(t *testing.T, path string) []string {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSpace(string(blob)), "\n")
}

// requireAll fails unless out contains every want.
func requireAll(t *testing.T, out string, wants ...string) {
	t.Helper()
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q: %s", want, out)
		}
	}
}

// TestChaosGate runs the chaos gate end to end on a small graph: it must
// pass, print the verdict, and accumulate its CSV artefact — a second run
// appends one row under the single header. It keeps the row's 60,000
// lookups: the row's two drop windows discard a fixed 1,280 lookups, which
// at 20,000 lookups is 6% of the 10% unavailability budget on their own.
func TestChaosGate(t *testing.T) {
	csv := t.TempDir() + "/chaos.csv"
	args := []string{"-n", "24", "-seed", "3", "-csv", csv, "chaos"}
	requireAll(t, runGate(t, args...), "chaos ok: ", `"incorrect": 0`)
	runGate(t, args...)
	if lines := csvLines(t, csv); len(lines) != 3 || lines[0] != chaos.CSVHeader {
		t.Fatalf("csv artefact: %q", lines)
	}
}

// TestClusterGate runs the full-tier replicated gate at a small size: it must
// pass with a promotion and byte-identical tables, and write the E16 row.
func TestClusterGate(t *testing.T) {
	csv := t.TempDir() + "/cluster.csv"
	out := runGate(t, "-n", "24", "-seed", "5", "-lookups", "10000", "-csv", csv, "cluster")
	requireAll(t, out, "cluster ok: ", `"incorrect": 0`, `"promoted": true`, `"tables_identical": true`)
	if lines := csvLines(t, csv); len(lines) != 2 || lines[0] != chaos.ClusterCSVHeader ||
		!strings.HasPrefix(lines[1], "fulltable,full,24,") {
		t.Fatalf("csv artefact: %q", lines)
	}
}

// TestBigClusterGate runs the tables-tier replicated gate at a CI-friendly
// n: landmark must select the tables tier, pass with zero spot violations,
// and write its row in the shared E16/E20 layout.
func TestBigClusterGate(t *testing.T) {
	csv := t.TempDir() + "/cluster.csv"
	out := runGate(t, "-n", "128", "-seed", "7", "-lookups", "4000", "-csv", csv, "bigcluster")
	requireAll(t, out, "bigcluster ok: ", `"tier": "tables"`, `"spot_violations": 0`,
		`"promoted": true`, `"tables_identical": true`)
	if lines := csvLines(t, csv); len(lines) != 2 || lines[0] != chaos.ClusterCSVHeader ||
		!strings.HasPrefix(lines[1], "landmark,tables,128,") {
		t.Fatalf("csv artefact: %q", lines)
	}
}

// TestShardChaosGate runs the partitioned-cluster gate at a CI-friendly n: it
// must pass with a live split and a promotion, and write the E21 row.
func TestShardChaosGate(t *testing.T) {
	csv := t.TempDir() + "/shard.csv"
	out := runGate(t, "-n", "192", "-seed", "7", "-lookups", "6000", "-csv", csv, "shardchaos")
	requireAll(t, out, "shardchaos ok: ", `"spot_violations": 0`, `"split_done": true`,
		`"promoted": true`, `"tables_identical": true`)
	if lines := csvLines(t, csv); len(lines) != 2 || lines[0] != chaos.ShardCSVHeader {
		t.Fatalf("csv artefact: %q", lines)
	}
}

// TestGateArgumentErrors: an unknown gate, a missing gate, -csv on a gate
// without a CSV layout, and a scheme whose tier the row's faults do not fit
// (the chaos row's kill-restore compares packed matrices) or that has no
// tier at all are refused before anything runs.
func TestGateArgumentErrors(t *testing.T) {
	for _, args := range [][]string{
		{"nope"},
		{},
		{"wiresmoke", "crash"},
		{"-csv", t.TempDir() + "/x.csv", "crash"},
		{"-scheme", "landmark", "chaos"},
		{"-scheme", "interval", "chaos"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("chaosgate %v: accepted", args)
		}
	}
}

// TestGatesMatchMakefile: the Makefile's one gate rule names exactly the
// gates of the table, and runs them through chaosgate.
func TestGatesMatchMakefile(t *testing.T) {
	blob, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^([a-z ]+):\n\t\$\(GO\) run \./cmd/chaosgate \$@$`).FindSubmatch(blob)
	if m == nil {
		t.Fatal("Makefile has no `$(GO) run ./cmd/chaosgate $@` rule")
	}
	var names []string
	for _, g := range gates {
		names = append(names, g.Name)
	}
	if targets := strings.Fields(string(m[1])); !slices.Equal(targets, names) {
		t.Fatalf("Makefile gate rule %v, gate table %v", targets, names)
	}
}

// TestCSVArtefactsMatchWriters pins each checked-in artefact's header to the
// layout its writer emits today, so a regenerated file appends cleanly.
func TestCSVArtefactsMatchWriters(t *testing.T) {
	for file, header := range map[string]string{
		"chaos_n256.csv":       chaos.CSVHeader,
		"cluster_n256.csv":     chaos.ClusterCSVHeader,
		"bigcluster_n4096.csv": chaos.ClusterCSVHeader,
		"shard_n4096.csv":      chaos.ShardCSVHeader,
	} {
		if lines := csvLines(t, "../../docs/"+file); lines[0] != header {
			t.Errorf("docs/%s header\n%s\nwant\n%s", file, lines[0], header)
		}
	}
}

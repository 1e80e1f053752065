package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func sectionSet(t *testing.T, csv string) map[string]bool {
	t.Helper()
	s, err := parseSections(csv)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestQuickSuite runs the one-iteration smoke in-process over the PR 2
// sections: every measured path must succeed and the artefact must carry all
// expected entries.
func TestQuickSuite(t *testing.T) {
	rep, err := runSuite(true, "BENCH_pr2", sectionSet(t, "bfs,cache,resilience"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"bfs_list_n256": false, "bfs_bitset_n256": false,
		"bfs_list_n1024": false, "bfs_bitset_n1024": false,
		"allpairs_uncached_n256": false, "allpairs_cached_n256": false,
		"e13_sweep_n32": false,
	}
	for _, r := range rep.Results {
		if _, ok := want[r.Name]; !ok {
			t.Errorf("unexpected result %q", r.Name)
			continue
		}
		want[r.Name] = true
		if r.Iters < 1 || r.NsPerOp <= 0 {
			t.Errorf("%s: iters=%d ns/op=%v", r.Name, r.Iters, r.NsPerOp)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("missing result %q", name)
		}
	}
	if rep.BitsetSpeedupN1024 <= 0 || rep.CacheSpeedupN256 <= 0 {
		t.Errorf("speedup ratios not computed: %+v", rep)
	}
}

// TestParseSectionsRejectsUnknown: the five kept sections parse; unknown
// and retired names do not.
func TestParseSectionsRejectsUnknown(t *testing.T) {
	if s := sectionSet(t, "bfs,cache,resilience,chaos,wal"); len(s) != 5 {
		t.Fatalf("sections = %v, want 5", s)
	}
	for _, csv := range []string{"bfs,warp", "serve", "cluster", "wire", "big", "bigcluster", "shard"} {
		if _, err := parseSections(csv); err == nil {
			t.Fatalf("section list %q accepted", csv)
		}
	}
	if _, err := parseSections(""); err == nil {
		t.Fatal("empty section list accepted")
	}
}

func TestRunWritesJSON(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run(true, "BENCH_pr2", "cache", out); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatalf("artefact is not valid JSON: %v", err)
	}
	if rep.Artefact != "BENCH_pr2" || !rep.Quick || len(rep.Sections) != 1 || rep.Sections[0] != "cache" {
		t.Fatalf("unexpected report header: %+v", rep)
	}
}

// TestChaosSection runs the quick chaos section: both schemes must grade
// clean — zero incorrect, bounded detours, byte-identical restores — and
// report the headline recovery/availability figures.
func TestChaosSection(t *testing.T) {
	rep, err := runSuite(true, "BENCH_pr4", sectionSet(t, "chaos"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Chaos) != 2 {
		t.Fatalf("chaos reports: %d, want 2", len(rep.Chaos))
	}
	for _, c := range rep.Chaos {
		if c.Incorrect != 0 {
			t.Errorf("%s: %d incorrect answers", c.Scheme, c.Incorrect)
		}
		if c.MaxDetourExtraHops > 2 {
			t.Errorf("%s: detour extra %d", c.Scheme, c.MaxDetourExtraHops)
		}
		if !c.RestoredIdentical || !c.SelfHealed {
			t.Errorf("%s: restored=%v healed=%v", c.Scheme, c.RestoredIdentical, c.SelfHealed)
		}
		if c.RecoveryNs <= 0 || c.QPS <= 0 {
			t.Errorf("%s: recovery=%d qps=%v", c.Scheme, c.RecoveryNs, c.QPS)
		}
	}
}

// TestWalSection runs the quick WAL append-throughput section: all three
// fsync policies must report positive throughput, and the section must
// surface both the per-policy rows and the generic ns/op results.
func TestWalSection(t *testing.T) {
	rep, err := runSuite(true, "BENCH_pr6", sectionSet(t, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Wal) != 3 {
		t.Fatalf("wal rows: %d, want 3 (always/batch/off)", len(rep.Wal))
	}
	policies := map[string]bool{}
	for _, w := range rep.Wal {
		policies[w.Policy] = true
		if w.Appends < 1 || w.NsPerAppend <= 0 || w.AppendsPerSec <= 0 {
			t.Errorf("%s: appends=%d ns=%v qps=%v", w.Policy, w.Appends, w.NsPerAppend, w.AppendsPerSec)
		}
		if w.PayloadBytes != 64 {
			t.Errorf("%s: payload %d bytes", w.Policy, w.PayloadBytes)
		}
	}
	for _, p := range []string{"always", "batch", "off"} {
		if !policies[p] {
			t.Errorf("policy %q missing: %v", p, policies)
		}
	}
	if len(rep.Results) != 3 {
		t.Errorf("wal section results: %+v", rep.Results)
	}
}

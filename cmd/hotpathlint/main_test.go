package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestLintDirFindsViolations(t *testing.T) {
	dir := filepath.Join("testdata", "hotpkg")
	tagged := map[string]bool{filepath.Clean(filepath.Join(dir, "hot.go")): true}
	vs, err := lintDir(dir, tagged)
	if err != nil {
		t.Fatalf("lintDir: %v", err)
	}
	if len(vs) != 2 {
		t.Fatalf("got %d violations, want 2:\n%s", len(vs), strings.Join(vs, "\n"))
	}
	var sawMap, sawSprintf bool
	for _, v := range vs {
		if !strings.Contains(v, "hot.go") {
			t.Errorf("violation outside the tagged file: %s", v)
		}
		if strings.Contains(v, "map iteration") {
			sawMap = true
		}
		if strings.Contains(v, "fmt.Sprintf") {
			sawSprintf = true
		}
	}
	if !sawMap || !sawSprintf {
		t.Fatalf("missing finding kinds (map=%v sprintf=%v):\n%s", sawMap, sawSprintf, strings.Join(vs, "\n"))
	}
}

func TestHasTag(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"//rt:hotpath\npackage p\n", true},
		{"\t//rt:hotpath extra words\npackage p\n", true},
		{"// prose mentioning //rt:hotpath mid-line\npackage p\n", false},
		{"package p\nconst tag = \"//rt:hotpath\"\n", false},
		{"package p\n", false},
	}
	for _, c := range cases {
		if got := hasTag(c.src); got != c.want {
			t.Errorf("hasTag(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestFindTaggedSkipsTestdata(t *testing.T) {
	files, err := findTagged([]string{"."})
	if err != nil {
		t.Fatalf("findTagged: %v", err)
	}
	for _, f := range files {
		if strings.Contains(f, "testdata") {
			t.Errorf("testdata file tagged: %s", f)
		}
	}
}

func TestLintDirFindsMapIndexing(t *testing.T) {
	dir := filepath.Join("testdata", "hotpkg")
	tagged := map[string]bool{filepath.Clean(filepath.Join(dir, "index.go")): true}
	vs, err := lintDir(dir, tagged)
	if err != nil {
		t.Fatalf("lintDir: %v", err)
	}
	var lines []string
	for _, v := range vs {
		if !strings.Contains(v, "index.go") || !strings.Contains(v, "map index") {
			t.Errorf("unexpected finding: %s", v)
		}
		lines = append(lines, filepath.Base(v[:strings.Index(v, ": ")]))
	}
	// A read, the comma-ok form, and a write; the slice index and the
	// generic instantiation are not findings.
	want := []string{"index.go:8:7", "index.go:9:14", "index.go:12:2"}
	if strings.Join(lines, " ") != strings.Join(want, " ") {
		t.Fatalf("findings at %v, want %v:\n%s", lines, want, strings.Join(vs, "\n"))
	}
}

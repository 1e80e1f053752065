package serve

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"routetab/internal/gengraph"
)

func buildTestEngine(t testing.TB, n int, seed int64, scheme string) *Engine {
	t.Helper()
	g, err := gengraph.GnHalf(n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(g, scheme)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestSaveLoadAtomicOverwrite: repeated saves to one path leave a readable,
// latest-wins file (the temp-file + rename contract).
func TestSaveLoadAtomicOverwrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.rtsnap")
	eng := buildTestEngine(t, 24, 5, "fulltable")
	if err := SaveSnapshot(path, eng.Current()); err != nil {
		t.Fatal(err)
	}
	snap, err := eng.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveSnapshot(path, snap); err != nil {
		t.Fatal(err)
	}
	sd, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if sd.Seq != snap.Seq {
		t.Fatalf("loaded seq %d, want latest %d", sd.Seq, snap.Seq)
	}
}

// TestRestoreEngine: a restored engine must serve the persisted snapshot with
// identical Seq and byte-identical packed distances — and continue the Seq
// sequence on its next publish instead of restarting at 1.
func TestRestoreEngine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.rtsnap")
	eng := buildTestEngine(t, 32, 7, "compact")
	if err := eng.EnablePersist(path); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Reload(); err != nil { // bump Seq past the initial build
		t.Fatal(err)
	}
	want := eng.Current()

	restored, err := RestoreEngine(path)
	if err != nil {
		t.Fatal(err)
	}
	got := restored.Current()
	if got.Seq != want.Seq {
		t.Fatalf("restored Seq %d, want %d", got.Seq, want.Seq)
	}
	if !bytes.Equal(got.Dist.Packed(), want.Dist.Packed()) {
		t.Fatal("restored packed distances not byte-identical")
	}
	if !got.Graph.Equal(want.Graph) {
		t.Fatal("restored graph differs")
	}
	// Restored answers must match the original for every pair.
	n := want.N()
	for src := 1; src <= n; src++ {
		for dst := 1; dst <= n; dst++ {
			if src == dst {
				continue
			}
			a, errA := want.NextHop(src, dst)
			b, errB := got.NextHop(src, dst)
			if (errA == nil) != (errB == nil) || a != b {
				t.Fatalf("NextHop(%d,%d): restored %d,%v vs original %d,%v", src, dst, b, errB, a, errA)
			}
		}
	}
	next, err := restored.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if next.Seq != want.Seq+1 {
		t.Fatalf("post-restore publish Seq %d, want %d", next.Seq, want.Seq+1)
	}
}

// TestDecodeRejectsCorruption: every truncation and every single-bit flip of
// a valid arena must fail the stream decoder — the path cluster state bodies
// take through readArena — never silently yield a snapshot, on either tier.
func TestDecodeRejectsCorruption(t *testing.T) {
	for _, c := range arenaCases(t) {
		valid := EncodeArena(c.snap.data())
		if _, err := DecodeSnapshot(bytes.NewReader(valid)); err != nil {
			t.Fatalf("%s: valid arena: %v", c.name, err)
		}
		for cut := 0; cut < len(valid); cut++ {
			if _, err := DecodeSnapshot(bytes.NewReader(valid[:cut])); !errors.Is(err, ErrBadSnapshotFile) {
				t.Fatalf("%s: truncation at %d: err = %v", c.name, cut, err)
			}
		}
		for off := 0; off < len(valid); off++ {
			mut := bytes.Clone(valid)
			mut[off] ^= 1 << uint(off%8)
			if sd, err := DecodeSnapshot(bytes.NewReader(mut)); !errors.Is(err, ErrBadSnapshotFile) {
				t.Fatalf("%s: bit flip at %d decoded to %+v, err = %v", c.name, off, sd, err)
			}
		}
	}
}

// FuzzDecodeSnapshot: arbitrary bytes must never panic the stream decoder,
// and anything that decodes must be internally consistent.
func FuzzDecodeSnapshot(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		sd, err := DecodeSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		if sd.Graph == nil || (sd.Dist == nil) == (sd.Tables == nil) {
			t.Fatalf("decode returned inconsistent fields without error")
		}
		if sd.Dist != nil && sd.Graph.N() != sd.Dist.N() {
			t.Fatalf("decoded n mismatch: graph %d, dist %d", sd.Graph.N(), sd.Dist.N())
		}
	})
}

package serve

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"slices"
	"testing"

	"routetab/internal/gengraph"
	"routetab/internal/graph"
)

func snapshotData(t *testing.T, n int, seed int64, scheme string) *SnapshotData {
	t.Helper()
	snap := buildTestEngine(t, n, seed, scheme).Current()
	return &SnapshotData{
		Seq:    snap.Seq,
		Scheme: snap.Scheme,
		Graph:  snap.Graph,
		Ports:  snap.Ports,
		Dist:   snap.Dist,
	}
}

// TestArenaRoundTrip: EncodeArena → OpenArena → SnapshotData must reproduce
// graph, ports, packed distances, scheme, and Seq exactly, and encoding must
// be byte-identical on re-encode — the determinism contract every downstream
// CRC comparison (anti-entropy digests, golden files) leans on.
func TestArenaRoundTrip(t *testing.T) {
	for _, scheme := range []string{"fulltable", "compact"} {
		sd := snapshotData(t, 48, 3, scheme)
		buf := EncodeArena(sd)
		a, err := OpenArena(buf)
		if err != nil {
			t.Fatalf("%s: open: %v", scheme, err)
		}
		if a.Seq() != sd.Seq || a.Scheme() != sd.Scheme || a.N() != sd.Graph.N() || a.M() != sd.Graph.M() {
			t.Fatalf("%s: header (%d,%q,%d,%d)", scheme, a.Seq(), a.Scheme(), a.N(), a.M())
		}
		if !bytes.Equal(a.PackedDist(), sd.Dist.Packed()) {
			t.Fatalf("%s: packed distances differ", scheme)
		}
		got, err := a.SnapshotData()
		if err != nil {
			t.Fatalf("%s: materialise: %v", scheme, err)
		}
		if !got.Graph.Equal(sd.Graph) {
			t.Fatalf("%s: graph does not round-trip", scheme)
		}
		for u := 1; u <= sd.Graph.N(); u++ {
			av, bv := sd.Ports.NeighborsByPort(u), got.Ports.NeighborsByPort(u)
			if len(av) != len(bv) {
				t.Fatalf("%s: node %d port count %d vs %d", scheme, u, len(av), len(bv))
			}
			for p := range av {
				if av[p] != bv[p] {
					t.Fatalf("%s: node %d port %d: %d vs %d", scheme, u, p, av[p], bv[p])
				}
			}
		}
		if !bytes.Equal(got.Dist.Packed(), sd.Dist.Packed()) {
			t.Fatalf("%s: distances do not round-trip", scheme)
		}
		if !bytes.Equal(EncodeArena(sd), buf) {
			t.Fatalf("%s: encoding is not deterministic", scheme)
		}
		// The distance section is adopted, not copied: a zero-copy restore
		// must alias the arena buffer.
		if &got.Dist.Packed()[0] != &a.PackedDist()[0] {
			t.Fatalf("%s: materialised distances are a copy, want arena alias", scheme)
		}
	}
}

// TestArenaPortOrders: a PDAT in sorted order decodes to the sorted view, and
// one out of sorted order (a model-IA assignment) still decodes, as a
// permutation overlay with every port where the encoder put it.
func TestArenaPortOrders(t *testing.T) {
	sd := snapshotData(t, 48, 3, "fulltable")
	for _, ports := range []*graph.Ports{sd.Ports, graph.RandomPorts(sd.Graph, rand.New(rand.NewSource(5)))} {
		sd.Ports = ports
		a, err := OpenArena(EncodeArena(sd))
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.SnapshotData()
		if err != nil {
			t.Fatal(err)
		}
		for u := 1; u <= sd.Graph.N(); u++ {
			if av, bv := ports.NeighborsByPort(u), got.Ports.NeighborsByPort(u); !slices.Equal(av, bv) {
				t.Fatalf("node %d: ports %v decode as %v", u, av, bv)
			}
		}
	}
}

// TestArenaGoldenFile pins the RTARENA1 on-disk bytes: a checked-in arena of
// a small seeded topology must stay byte-identical to a fresh encode, so any
// layout change fails loudly here instead of at a production restart.
func TestArenaGoldenFile(t *testing.T) {
	const golden = "testdata/snapshot_n16_seed2_fulltable.rtarena"
	sd := snapshotData(t, 16, 2, "fulltable")
	want := EncodeArena(sd)

	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file unreadable (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("golden arena differs from seeded rebuild (%d vs %d bytes)", len(got), len(want))
	}
	a, err := OpenArena(got)
	if err != nil {
		t.Fatal(err)
	}
	if a.Scheme() != "fulltable" || a.N() != 16 {
		t.Fatalf("golden header: scheme=%q n=%d", a.Scheme(), a.N())
	}
}

// TestOpenArenaRejectsCorruption walks the failure surface: every truncation
// length and every flipped bit must be rejected — nothing in the arena is
// slack the CRC ignores (only padding bytes, which are covered too since the
// checksum spans the full buffer past the CRC field).
func TestOpenArenaRejectsCorruption(t *testing.T) {
	buf := EncodeArena(snapshotData(t, 16, 2, "fulltable"))

	t.Run("truncation", func(t *testing.T) {
		for l := 0; l < len(buf); l++ {
			if _, err := OpenArena(buf[:l]); err == nil {
				t.Fatalf("truncation to %d bytes accepted", l)
			}
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		for i := 0; i < len(buf); i++ {
			mut := bytes.Clone(buf)
			mut[i] ^= 1 << uint(i%8)
			if _, err := OpenArena(mut); err == nil {
				t.Fatalf("bit flip at byte %d accepted", i)
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		if _, err := OpenArena(append(bytes.Clone(buf), 0xEE)); err == nil {
			t.Fatal("trailing byte accepted")
		}
	})
}

// TestReadArenaRejectsOversize: a streamed header advertising an absurd total
// must be rejected before any allocation — the stream-decode guard against a
// corrupt or hostile peer.
func TestReadArenaRejectsOversize(t *testing.T) {
	hdr := make([]byte, 16)
	copy(hdr, arenaMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], uint64(maxArenaLen)+1)
	if _, err := readArena(bytes.NewReader(hdr[8:]), arenaMagic); err == nil {
		t.Fatal("oversize total accepted")
	}
	binary.LittleEndian.PutUint64(hdr[8:], uint64(arenaHeaderLen)-1)
	if _, err := readArena(bytes.NewReader(hdr[8:]), arenaMagic); err == nil {
		t.Fatal("undersize total accepted")
	}
}

// FuzzOpenArena mirrors the walstore fuzz pattern: whatever bytes arrive,
// OpenArena must either reject them or return an arena whose materialisation
// succeeds with consistent invariants — never panic, never over-read.
func FuzzOpenArena(f *testing.F) {
	g, err := gengraph.GnHalf(12, rand.New(rand.NewSource(4)))
	if err != nil {
		f.Fatal(err)
	}
	eng, err := NewEngine(g, "fulltable")
	if err != nil {
		f.Fatal(err)
	}
	snap := eng.Current()
	valid := EncodeArena(&SnapshotData{
		Seq: snap.Seq, Scheme: snap.Scheme, Graph: snap.Graph, Ports: snap.Ports, Dist: snap.Dist,
	})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("RTARENA1"))
	f.Add([]byte{})
	mut := bytes.Clone(valid)
	mut[len(mut)/2] ^= 0x40
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := OpenArena(data)
		if err != nil {
			return
		}
		sd, err := a.SnapshotData()
		if err != nil {
			return
		}
		if sd.Graph.N() != a.N() || sd.Graph.M() != a.M() {
			t.Fatalf("inconsistent materialisation: (%d,%d) vs (%d,%d)",
				sd.Graph.N(), sd.Graph.M(), a.N(), a.M())
		}
	})
}

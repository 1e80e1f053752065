package serve

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"
)

// arenaCase is one snapshot the arena tests encode. Every property is
// checked on one case per tier: the TestArena* tests run the full-tier case,
// the TestTieredArena* tests the tables-tier case.
type arenaCase struct {
	name   string
	snap   *Snapshot
	golden string // the checked-in encoding
}

func fullArenaCase(tb testing.TB) arenaCase {
	tb.Helper()
	return arenaCase{"full", buildTestEngine(tb, 16, 2, "fulltable").Current(), "testdata/arena_n16_seed2_fulltable.rtarena"}
}

func tablesArenaCase(tb testing.TB) arenaCase {
	tb.Helper()
	return arenaCase{"tables", tieredEngine(tb, 32, 2).Current(), "testdata/arena_n32_seed2_landmark.rtarena"}
}

func arenaCases(tb testing.TB) []arenaCase {
	tb.Helper()
	return []arenaCase{fullArenaCase(tb), tablesArenaCase(tb)}
}

// payload returns the bytes an arena's DATA section carries for sd.
func payload(sd *SnapshotData) []byte {
	if sd.Dist != nil {
		return sd.Dist.Packed()
	}
	return sd.Tables
}

// TestArenaRoundTrip: EncodeArena → OpenArena → SnapshotData must reproduce
// graph, payload, scheme and Seq exactly, re-encode byte-identically (the
// determinism contract every downstream CRC comparison leans on), adopt the
// payload in place, and restore an engine answering as the original did on
// the sorted ports the arena implies. The arena is the bitset, the payload
// and at most 128 bytes of header, name and padding: no port table.
func TestArenaRoundTrip(t *testing.T) { checkArenaRoundTrip(t, fullArenaCase(t)) }

// TestTieredArenaRoundTrip is TestArenaRoundTrip on the tables tier, whose
// DATA section is the scheme's table blob instead of the packed matrix.
func TestTieredArenaRoundTrip(t *testing.T) { checkArenaRoundTrip(t, tablesArenaCase(t)) }

func checkArenaRoundTrip(t *testing.T, c arenaCase) {
	t.Helper()
	sd := c.snap.data()
	buf := EncodeArena(sd)
	if len(buf) != c.snap.ArenaSize() {
		t.Fatalf("%s: encoded %d bytes, ArenaSize says %d", c.name, len(buf), c.snap.ArenaSize())
	}
	a, err := OpenArena(buf)
	if err != nil {
		t.Fatalf("%s: open: %v", c.name, err)
	}
	if a.seq != sd.Seq || a.scheme != sd.Scheme || a.n != sd.Graph.N() || a.m != sd.Graph.M() {
		t.Fatalf("%s: header (%d,%q,%d,%d)", c.name, a.seq, a.scheme, a.n, a.m)
	}
	if !bytes.Equal(a.data, payload(sd)) {
		t.Fatalf("%s: DATA section differs from the snapshot's payload", c.name)
	}
	if over := len(buf) - len(a.adj) - len(a.data); over > 128 {
		t.Fatalf("%s: %d bytes beyond the bitset and payload, want ≤ 128", c.name, over)
	}
	got, err := a.SnapshotData()
	if err != nil {
		t.Fatalf("%s: materialise: %v", c.name, err)
	}
	if !got.Graph.Equal(sd.Graph) || (got.Dist == nil) != (sd.Dist == nil) {
		t.Fatalf("%s: graph or tier does not round-trip", c.name)
	}
	// The payload is adopted, not copied: a zero-copy restore must alias
	// the arena buffer.
	if p := payload(got); !bytes.Equal(p, payload(sd)) || &p[0] != &a.data[0] {
		t.Fatalf("%s: materialised payload differs or is a copy", c.name)
	}
	if !bytes.Equal(EncodeArena(sd), buf) || !bytes.Equal(EncodeArena(got), buf) {
		t.Fatalf("%s: encoding is not deterministic", c.name)
	}
	eng, err := NewEngineFromSnapshot(got)
	if err != nil {
		t.Fatalf("%s: restore: %v", c.name, err)
	}
	rs := eng.Current()
	if rs.Seq != sd.Seq || !rs.Ports.Sorted() {
		t.Fatalf("%s: restored seq %d, sorted ports %v", c.name, rs.Seq, rs.Ports.Sorted())
	}
	for src := 1; src <= rs.N(); src++ {
		for dst := 1; dst <= rs.N(); dst++ {
			if src == dst {
				continue
			}
			want, werr := c.snap.NextHop(src, dst)
			next, err := rs.NextHop(src, dst)
			if next != want || (err == nil) != (werr == nil) {
				t.Fatalf("%s: NextHop(%d,%d) = %d/%v, original %d/%v", c.name, src, dst, next, err, want, werr)
			}
		}
	}
}

// TestArenaGoldenFile pins the on-disk bytes: a checked-in arena of a small
// seeded topology must stay byte-identical to a fresh encode, so
// any layout change fails loudly here instead of at a production restart.
func TestArenaGoldenFile(t *testing.T) { checkArenaGolden(t, fullArenaCase(t)) }

// TestTieredArenaGoldenFile pins the tables tier's on-disk bytes.
func TestTieredArenaGoldenFile(t *testing.T) { checkArenaGolden(t, tablesArenaCase(t)) }

func checkArenaGolden(t *testing.T, c arenaCase) {
	t.Helper()
	want := EncodeArena(c.snap.data())
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(c.golden, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(c.golden)
	if err != nil {
		t.Fatalf("%s: golden file unreadable (regenerate with UPDATE_GOLDEN=1): %v", c.name, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: golden arena differs from seeded rebuild (%d vs %d bytes)", c.name, len(got), len(want))
	}
	a, err := OpenArena(got)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	if a.scheme != c.snap.Scheme || a.n != c.snap.N() {
		t.Fatalf("%s: golden header: scheme=%q n=%d", c.name, a.scheme, a.n)
	}
}

// TestOpenArenaRejectsCorruption walks the failure surface: every truncation
// length and every flipped bit must be rejected — nothing in the arena is
// slack the CRC ignores (only padding bytes, which are covered too since the
// checksum spans the full buffer past the CRC field).
func TestOpenArenaRejectsCorruption(t *testing.T) {
	checkArenaRejectsCorruption(t, fullArenaCase(t))
}

// TestTieredArenaRejectsCorruption walks the same failure surface on the
// tables tier.
func TestTieredArenaRejectsCorruption(t *testing.T) {
	checkArenaRejectsCorruption(t, tablesArenaCase(t))
}

func checkArenaRejectsCorruption(t *testing.T, c arenaCase) {
	buf := EncodeArena(c.snap.data())
	t.Run("truncation", func(t *testing.T) {
		for l := 0; l < len(buf); l++ {
			if _, err := OpenArena(buf[:l]); err == nil {
				t.Fatalf("%s: truncation to %d bytes accepted", c.name, l)
			}
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		for b := 0; b < len(buf); b++ {
			mut := bytes.Clone(buf)
			mut[b] ^= 1 << uint(b%8)
			if _, err := OpenArena(mut); err == nil {
				t.Fatalf("%s: bit flip at byte %d accepted", c.name, b)
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		if _, err := OpenArena(append(bytes.Clone(buf), 0xEE)); err == nil {
			t.Fatalf("%s: trailing byte accepted", c.name)
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
	if _, err := readArena(bytes.NewReader(hdr)); err == nil {
		t.Fatal("oversize total accepted")
	}
	binary.LittleEndian.PutUint64(hdr[8:], uint64(arenaHeaderLen)-1)
	if _, err := readArena(bytes.NewReader(hdr)); err == nil {
		t.Fatal("undersize total accepted")
	}
}

// fuzzSeeds adds each tier's valid arena, its first half and a one-bit
// mutant, then the bare magic and the empty input.
func fuzzSeeds(f *testing.F) {
	for _, c := range arenaCases(f) {
		valid := EncodeArena(c.snap.data())
		mut := bytes.Clone(valid)
		mut[len(mut)/2] ^= 0x40
		f.Add(valid)
		f.Add(valid[:len(valid)/2])
		f.Add(mut)
	}
	f.Add(arenaMagic[:])
	f.Add([]byte{})
}

// FuzzOpenArena mirrors the walstore fuzz pattern: whatever bytes arrive,
// OpenArena must either reject them or return an arena whose materialisation
// succeeds with consistent invariants — never panic, never over-read.
func FuzzOpenArena(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := OpenArena(data)
		if err != nil {
			return
		}
		sd, err := a.SnapshotData()
		if err != nil {
			return
		}
		if sd.Graph.N() != a.n || sd.Graph.M() != a.m || (sd.Dist == nil) != (a.tier == arenaTierTables) {
			t.Fatalf("inconsistent materialisation: (%d,%d,%v) vs (%d,%d,tier %d)",
				sd.Graph.N(), sd.Graph.M(), sd.Dist == nil, a.n, a.m, a.tier)
		}
	})
}

package landmark

import (
	"bytes"
	"math/rand"
	"testing"

	"routetab/internal/gengraph"
	"routetab/internal/graph"
)

// FuzzDecodeLandmarkTables mirrors the arena/WAL fuzz pattern: whatever bytes
// arrive as an LMTB1 blob, DecodeTables must either reject them or return a
// scheme whose tables are internally consistent — never panic, never
// over-read, never serve out-of-range entries. The seed corpus is the
// corruption matrix from TestLandmarkCodecRejectsCorruption: the valid
// encoding, truncations, and a bit flip in every header field, as a resyncing
// replica would see them after wire corruption.
func FuzzDecodeLandmarkTables(f *testing.F) {
	g, err := gengraph.SparseConnected(48, 5, rand.New(rand.NewSource(13)))
	if err != nil {
		f.Fatal(err)
	}
	ports := graph.SortedPorts(g)
	s, err := Build(g, ports, DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	enc := s.EncodeTables()
	f.Add(enc)
	f.Add(enc[:tablesHdrLen])
	f.Add(enc[:len(enc)/2])
	f.Add(enc[:len(enc)-1])
	for off := 0; off < tablesHdrLen; off += 4 {
		bad := bytes.Clone(enc)
		bad[off] ^= 0x40
		f.Add(bad)
	}
	mid := bytes.Clone(enc)
	mid[len(mid)/2] ^= 0x01
	f.Add(mid)
	f.Add([]byte("LMTB"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := DecodeTables(g, ports, data)
		if err != nil {
			return
		}
		// A successful decode must re-encode to its input and round-trip
		// byte-identically — the property replication's CRC verification and
		// quiesce-time table comparison both lean on.
		enc2 := dec.EncodeTables()
		dec2, err := DecodeTables(g, ports, enc2)
		if err != nil {
			t.Fatalf("re-encoded tables rejected: %v", err)
		}
		if !bytes.Equal(enc2, data) || !bytes.Equal(dec2.EncodeTables(), enc2) {
			t.Fatal("decode→encode is not a fixed point")
		}
		// The fingerprint the decoded scheme stores is the one the bytes
		// give.
		if crc, err := BlobCRC(data); err != nil || crc != dec.TablesCRC() || crc != dec.RehashTables() {
			t.Fatalf("fingerprint %08x (err %v) of the blob, decoded %08x, rehashed %08x", crc, err, dec.TablesCRC(), dec.RehashTables())
		}
		// Accepted tables must answer in-range for arbitrary pairs.
		n := g.N()
		for _, pair := range [][2]int{{1, 2}, {1, n}, {n / 2, n}} {
			d := dec.EstimateDist(pair[0], pair[1])
			if d < 1 || d > 3*n {
				t.Fatalf("EstimateDist(%d,%d) = %d out of range", pair[0], pair[1], d)
			}
		}
	})
}

// RTARENA3: the zero-copy snapshot codec. The arena is one contiguous
// 8-byte-aligned buffer — a 72-byte header with an offsets table, then the
// adjacency bitset rows, the tier's data section, and the scheme-name blob —
// guarded by a single CRC-32C over the whole body. Saving a snapshot is one
// contiguous write; loading is one ReadFile; adoption serves the O(n²)
// distance matrix *in place*, aliased by shortestpath.FromPacked rather than
// copied.
//
// Layout (all integers little-endian; every section starts on an 8-byte
// boundary; padding bytes are zero; see DESIGN.md §14 for the diagram):
//
//	off  0  magic "RTARENA3"                  (8 bytes)
//	off  8  u64 total arena length in bytes
//	off 16  u32 CRC-32C (Castagnoli) over buf[24:total]
//	off 20  u32 tier (1 = full, 2 = tables)
//	off 24  u64 snapshot Seq
//	off 32  u32 n        off 36  u32 m        off 40  u32 words per adj row
//	off 44  (off,len) u32 pairs: adj, data, scheme
//	off 68  4 reserved zero bytes
//	off 72  sections
//
// ADJ  is n rows × words u64: node u's adjacency bitset (bit v−1 ⇔ uv ∈ E).
// DATA is the tier's payload: the n² packed uint8 row-major distance matrix
// on the full tier, the scheme's table blob on the tables tier. SCHM is the
// scheme name.
//
// The port assignment is not stored: every snapshot serves the sorted
// assignment (port i of u is u's i-th smallest neighbour), which the decoder
// rebuilds from ADJ — model IB, where the port assignment costs no bits.
//
// Determinism: EncodeArena is a pure function of the snapshot's logical
// content — two engines that published byte-identical tables encode
// byte-identical arenas, and the full tier's DATA section is bit-for-bit the
// packed matrix cluster.DistCRC fingerprints.
package serve

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"routetab/internal/graph"
	"routetab/internal/shortestpath"
)

// CodecArena names the snapshot codec in the RTBIN1 Info frame and the
// daemon's /healthz.
const CodecArena = "arena"

// arenaMagic identifies the arena layout; change it on any layout change, so
// files in an older layout fail loudly and the daemon cold-builds.
var arenaMagic = [8]byte{'R', 'T', 'A', 'R', 'E', 'N', 'A', '3'}

// The header's tier field: what the DATA section carries.
const (
	arenaTierFull   = 1 // the n² packed distance matrix
	arenaTierTables = 2 // the scheme's table blob
)

const (
	arenaHeaderLen = 72
	// maxArenaLen mirrors maxSectionLen: a corrupt length claim may not ask
	// the loader to allocate gigabytes.
	maxArenaLen = 256 << 20
)

// Header field offsets.
const (
	ahTotal = 8
	ahCRC   = 16
	ahTier  = 20
	ahSeq   = 24
	ahN     = 32
	ahM     = 36
	ahWords = 40
	ahAdj   = 44 // three (offset,len) u32 pairs follow: adj, data, scheme
	ahData  = 52
	ahSchm  = 60
)

func align8(x int) int { return (x + 7) &^ 7 }

// arenaLayout returns the section offsets and the total arena size for n
// nodes with words adjacency words per row, a dataLen-byte DATA section and
// a schmLen-byte scheme name. Shared by the encoder and Snapshot.ArenaSize
// so the gauge never drifts from the bytes actually written.
func arenaLayout(n, words, dataLen, schmLen int) (dataOff, schmOff, total int) {
	dataOff = align8(arenaHeaderLen + n*words*8)
	schmOff = align8(dataOff + dataLen)
	return dataOff, schmOff, align8(schmOff + schmLen)
}

// Arena is a validated read-only view over one arena buffer. The sections
// alias the buffer; nothing is materialised until SnapshotData is asked for,
// and even then the DATA section stays aliased.
type Arena struct {
	tier   uint32
	seq    uint64
	n      int
	m      int
	words  int
	scheme string
	adj    []byte // n*words*8 bytes
	data   []byte // n*n packed distances (full tier) or the table blob
}

// EncodeArena lays s out as one arena buffer: the full tier when s carries
// the all-pairs matrix, the tables tier when it carries scheme tables
// instead (s.Dist == nil). The single allocation is the final buffer itself,
// sized exactly.
func EncodeArena(s *SnapshotData) []byte {
	n := s.Graph.N()
	words := s.Graph.Words()
	tier, data := uint32(arenaTierFull), s.Tables
	if s.Dist != nil {
		data = s.Dist.Packed()
	} else {
		tier = arenaTierTables
	}
	adjLen := n * words * 8
	dataOff, schmOff, total := arenaLayout(n, words, len(data), len(s.Scheme))

	buf := make([]byte, total)
	copy(buf, arenaMagic[:])
	le := binary.LittleEndian
	le.PutUint64(buf[ahTotal:], uint64(total))
	le.PutUint32(buf[ahTier:], tier)
	le.PutUint64(buf[ahSeq:], s.Seq)
	le.PutUint32(buf[ahN:], uint32(n))
	le.PutUint32(buf[ahM:], uint32(s.Graph.M()))
	le.PutUint32(buf[ahWords:], uint32(words))
	for _, f := range [3][3]int{
		{ahAdj, arenaHeaderLen, adjLen}, {ahData, dataOff, len(data)}, {ahSchm, schmOff, len(s.Scheme)},
	} {
		le.PutUint32(buf[f[0]:], uint32(f[1]))
		le.PutUint32(buf[f[0]+4:], uint32(f[2]))
	}

	for u := 1; u <= n; u++ {
		off := arenaHeaderLen + (u-1)*words*8
		for w, word := range s.Graph.AdjRow(u) {
			le.PutUint64(buf[off+w*8:], word)
		}
	}
	copy(buf[dataOff:], data)
	copy(buf[schmOff:], s.Scheme)

	le.PutUint32(buf[ahCRC:], crc32.Checksum(buf[ahSeq:], crcTable))
	return buf
}

// WriteArena encodes s as one arena and writes it with a single Write call —
// the contiguous-transfer form replica state shipping uses.
func WriteArena(w io.Writer, s *SnapshotData) error {
	_, err := w.Write(EncodeArena(s))
	return err
}

// OpenArena validates buf as one complete arena and returns the view. Every
// structural claim is checked — magic, total length, body CRC, tier, section
// bounds, alignment, and size consistency — so arbitrary bytes get an error
// wrapping ErrBadSnapshotFile, never a corrupt view. The view aliases buf;
// the caller must not mutate it afterwards.
func OpenArena(buf []byte) (*Arena, error) {
	if len(buf) < arenaHeaderLen {
		return nil, fmt.Errorf("%w: arena of %d bytes", ErrBadSnapshotFile, len(buf))
	}
	if [8]byte(buf[:8]) != arenaMagic {
		return nil, fmt.Errorf("%w: arena magic %q", ErrBadSnapshotFile, buf[:8])
	}
	le := binary.LittleEndian
	total := le.Uint64(buf[ahTotal:])
	if total != uint64(len(buf)) {
		return nil, fmt.Errorf("%w: arena claims %d bytes, have %d", ErrBadSnapshotFile, total, len(buf))
	}
	if got, want := crc32.Checksum(buf[ahSeq:], crcTable), le.Uint32(buf[ahCRC:]); got != want {
		return nil, fmt.Errorf("%w: arena checksum %08x, want %08x", ErrBadSnapshotFile, got, want)
	}
	tier := le.Uint32(buf[ahTier:])
	if tier != arenaTierFull && tier != arenaTierTables {
		return nil, fmt.Errorf("%w: arena tier %d", ErrBadSnapshotFile, tier)
	}
	n := int(le.Uint32(buf[ahN:]))
	m := int(le.Uint32(buf[ahM:]))
	words := int(le.Uint32(buf[ahWords:]))
	if n < 0 || n > 1<<16 {
		return nil, fmt.Errorf("%w: n = %d", ErrBadSnapshotFile, n)
	}
	if words != (n+63)/64 {
		return nil, fmt.Errorf("%w: %d adj words per row for n=%d", ErrBadSnapshotFile, words, n)
	}
	if m < 0 || m > n*(n-1)/2 {
		return nil, fmt.Errorf("%w: m = %d", ErrBadSnapshotFile, m)
	}
	section := func(at, wantLen int, name string) ([]byte, error) {
		off := int(le.Uint32(buf[at:]))
		length := int(le.Uint32(buf[at+4:]))
		if off < arenaHeaderLen || off%8 != 0 || length < 0 || off+length > len(buf) {
			return nil, fmt.Errorf("%w: %s section at %d+%d", ErrBadSnapshotFile, name, off, length)
		}
		if wantLen >= 0 && length != wantLen {
			return nil, fmt.Errorf("%w: %s section of %d bytes, want %d", ErrBadSnapshotFile, name, length, wantLen)
		}
		return buf[off : off+length], nil
	}
	a := &Arena{tier: tier, seq: le.Uint64(buf[ahSeq:]), n: n, m: m, words: words}
	// The table blob's length only the scheme codec knows; it is validated
	// on decode.
	dataLen := -1
	if tier == arenaTierFull {
		dataLen = n * n
	}
	var err error
	if a.adj, err = section(ahAdj, n*words*8, "ADJ"); err != nil {
		return nil, err
	}
	if a.data, err = section(ahData, dataLen, "DATA"); err != nil {
		return nil, err
	}
	var schm []byte
	if schm, err = section(ahSchm, -1, "SCHM"); err != nil {
		return nil, err
	}
	a.scheme = string(schm)
	if !KnownScheme(a.scheme) {
		return nil, fmt.Errorf("%w: unknown scheme %q", ErrBadSnapshotFile, a.scheme)
	}
	if tier == arenaTierTables && !TableCapable(a.scheme) {
		return nil, fmt.Errorf("%w: scheme %q cannot serve the tables tier", ErrBadSnapshotFile, a.scheme)
	}
	return a, nil
}

// SnapshotData materialises the decoded form. The graph is rebuilt from ADJ
// with full structural validation; the DATA section is *adopted in place*,
// still aliasing the arena buffer, so the O(n²) matrix is never copied.
func (a *Arena) SnapshotData() (*SnapshotData, error) {
	le := binary.LittleEndian
	rows := make([]uint64, a.n*a.words)
	for i := range rows {
		rows[i] = le.Uint64(a.adj[i*8:])
	}
	g, err := graph.FromAdjWords(a.n, rows)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshotFile, err)
	}
	if g.M() != a.m {
		return nil, fmt.Errorf("%w: %d edges decoded, header says %d", ErrBadSnapshotFile, g.M(), a.m)
	}
	sd := &SnapshotData{Seq: a.seq, Scheme: a.scheme, Graph: g}
	if a.tier == arenaTierTables {
		sd.Tables = a.data
		return sd, nil
	}
	if sd.Dist, err = shortestpath.FromPacked(a.n, a.data); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshotFile, err)
	}
	return sd, nil
}

// readArena reads one arena from r — the stream-decode path (cluster state
// bodies). The magic and length are checked before anything is allocated;
// the whole arena then lands in one allocation and one ReadFull.
func readArena(r io.Reader) (*Arena, error) {
	var head [16]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("%w: arena header: %v", ErrBadSnapshotFile, err)
	}
	if [8]byte(head[:8]) != arenaMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadSnapshotFile, head[:8])
	}
	total := binary.LittleEndian.Uint64(head[8:])
	if total < arenaHeaderLen || total > maxArenaLen {
		return nil, fmt.Errorf("%w: arena claims %d bytes", ErrBadSnapshotFile, total)
	}
	buf := make([]byte, total)
	copy(buf, head[:])
	if _, err := io.ReadFull(r, buf[16:]); err != nil {
		return nil, fmt.Errorf("%w: arena body: %v", ErrBadSnapshotFile, err)
	}
	return OpenArena(buf)
}

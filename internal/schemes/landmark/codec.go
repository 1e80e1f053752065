package landmark

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"routetab/internal/graph"
	"routetab/internal/keyspace"
)

// Table encoding ("LMTB", version 3), little-endian throughout. The layout is
// a pure function of the built tables — two identical builds encode
// byte-identically — and every multi-byte field is range-checked on decode:
//
//	u32 magic "LMTB"   u32 version=3   u32 n   u32 k   u32 clusterTotal
//	k   × u32 landmark ids (sorted ascending)
//	n   × u16 homeIdx    (index into landmarks of ℓ(v))
//	n   × u16 homeDist   (d(v, ℓ(v)))
//	n   × u16 eport      (port at ℓ(v) toward v; 0 when v is a landmark)
//	n·k × u16 lmDist     (row-major exact distances to every landmark)
//	n·k × u16 lmPort     (row-major first ports toward every landmark)
//	n+1 × u32 clusterStart (CSR offsets, clusterStart[0] = 0)
//	ct  × u32 clusterDst
//	ct  × u16 clusterPort
//	ct  × u16 clusterDist
//
// Every stored port, eport included, leads to the smallest-id neighbour one
// step closer to its target. Versions 1 and 2 had the same layout but stored
// lmPort and clusterPort as BFS-tree parent edges; their blobs are rejected
// with ErrBadTables, so a persisted snapshot that holds one cold-builds.
//
// The encoding is assembled, not stored: a Scheme keeps its tables in
// copy-on-write pages (pages.go) that the schemes Update derives share,
// and EncodeTables assembles this encoding from them only when a reader
// asks for it — persistence, a state fetch, TablesBytes. The per-node
// sections are paged as whole rows of these very bytes; the cluster CSR is
// held in blocks of consecutive holders with int32 fields and block-local
// row starts, and assembly writes the global offsets. DecodeTables
// validates its input and cuts a copy of it into pages. The tables
// fingerprint (TablesCRC, BlobCRC) is defined over the pages, not over
// this byte string. Every value a u16 field receives is a distance, port
// or index below n, or the repair's 0xFFFF sentinel, and fits because
// Build and DecodeTables reject n > 65535; setU16 re-checks anyway so a
// silent clamp is impossible.
//
// Version 4 is the keyspace-restricted flavour (restrict.go): after the
// shared 20-byte header it inserts
//
//	u32 ownedCount
//	⌈n/64⌉ × u64 owned bitmap (bit u−1 for node u; bits beyond n zero)
//
// and then ships the same sections except that lmPort rows appear only for
// owned nodes (ascending node order) and clusterTotal counts owned rows only
// (non-owned CSR rows must be empty). lmDist stays full — DistEstimate reads
// both endpoints' rows. The version field is the sniff: a decoder that knows
// only version 3 rejects restricted tables outright instead of misreading
// them.
const (
	tablesMagic        = 0x42544d4c // "LMTB" little-endian
	tablesVersion      = 3
	tablesVersionOwned = 4
	tablesHdrLen       = 20
)

// EncodedTablesLen returns the byte length of the version-3 encoding for the
// given shape.
func EncodedTablesLen(n, k, clusterTotal int) int {
	return tablesHdrLen + 4*k + 6*n + 4*n*k + 4*(n+1) + 8*clusterTotal
}

// EncodedTablesLenV2 returns the byte length of the version-4 (restricted)
// encoding: full lmDist, lmPort rows for ownedCount nodes only.
func EncodedTablesLenV2(n, k, clusterTotal, ownedCount int) int {
	words := (n + 63) / 64
	return tablesHdrLen + 4 + 8*words + 4*k + 6*n + 2*n*k + 2*ownedCount*k + 4*(n+1) + 8*clusterTotal
}

// The accessors index with uint and load or store bytes one by one behind a
// single bounds check: the compiler merges them into one 16- or 32-bit
// access, where binary.LittleEndian on a subslice adds a slice bound and a
// length check per access, which measured about 15 % slower in a binary
// search over a u32 section.

// u16 reads entry i of a u16 section.
func u16(b []byte, i int) int32 {
	j := 2 * uint(i)
	_ = b[j+1]
	return int32(uint16(b[j]) | uint16(b[j+1])<<8)
}

// setU16 writes entry i of a u16 section.
func setU16(b []byte, i int, v int32) {
	if uint32(v) > 0xFFFF {
		panic("landmark: value overflows u16 field")
	}
	j := 2 * uint(i)
	_ = b[j+1]
	b[j], b[j+1] = byte(v), byte(v>>8)
}

// u32 reads entry i of a u32 section.
func u32(b []byte, i int) int32 {
	j := 4 * uint(i)
	_ = b[j+3]
	return int32(uint32(b[j]) | uint32(b[j+1])<<8 | uint32(b[j+2])<<16 | uint32(b[j+3])<<24)
}

// setU32 writes entry i of a u32 section.
func setU32(b []byte, i int, v int32) {
	j := 4 * uint(i)
	_ = b[j+3]
	b[j], b[j+1], b[j+2], b[j+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

// newHead returns the blob's bytes before homeIdx for n nodes, the given
// landmarks and ct cluster entries, restricted to owned when it is non-nil:
// the header, the owned section and the landmark list.
func newHead(n int, landmarks []int32, ct int, owned *keyspace.Set) []byte {
	le := binary.LittleEndian
	b := make([]byte, tablesHdrLen, tablesHdrLen+4+8*((n+63)/64)+4*len(landmarks))
	le.PutUint32(b[0:], tablesMagic)
	le.PutUint32(b[4:], tablesVersion)
	le.PutUint32(b[8:], uint32(n))
	le.PutUint32(b[12:], uint32(len(landmarks)))
	le.PutUint32(b[16:], uint32(ct))
	if owned != nil {
		le.PutUint32(b[4:], tablesVersionOwned)
		b = le.AppendUint32(b, uint32(owned.Count()))
		for _, w := range owned.Words() {
			b = le.AppendUint64(b, w)
		}
	}
	for _, a := range landmarks {
		b = le.AppendUint32(b, uint32(a))
	}
	return b
}

// TablesLen returns the byte length of the scheme's encoding, by the layout
// arithmetic: nothing is assembled.
func (s *Scheme) TablesLen() int {
	if s.owned != nil {
		return EncodedTablesLenV2(s.n, s.k, s.ct, s.owned.Count())
	}
	return EncodedTablesLen(s.n, s.k, s.ct)
}

// EncodeTables assembles the scheme's table blob: version 3 for an
// unrestricted scheme, version 4 (owned bitmap, owned-only lmPort rows) for
// a restricted one. Every call assembles a fresh slice from the pages, which
// the caller owns.
func (s *Scheme) EncodeTables() []byte {
	b := make([]byte, 0, s.TablesLen())
	b = append(b, s.head...)
	for _, t := range s.sections() {
		for p := range t.pages {
			b = append(b, t.bytes(p)...)
		}
	}
	off, ct := len(b), s.ct
	b = b[:off+4*(s.n+1)+8*ct]
	start := b[off : off+4*(s.n+1)]
	dst := b[off+4*(s.n+1):][:4*ct]
	port := b[off+4*(s.n+1)+4*ct:][:2*ct]
	dist := b[off+4*(s.n+1)+6*ct:][:2*ct]
	base := 0
	for bi, blk := range s.cluster.blocks {
		c := int(blk[blockHolders])
		for i := 1; i <= blockHolders && bi*blockHolders+i <= s.n; i++ {
			setU32(start, bi*blockHolders+i, int32(base)+blk[i])
		}
		e := blk[blockHolders+1:]
		for i := 0; i < c; i++ {
			setU32(dst, base+i, e[i])
			setU16(port, base+i, e[c+i])
			setU16(dist, base+i, e[2*c+i])
		}
		base += c
	}
	return b
}

// layout is a blob parsed into its sections, views of the input, with the
// shape checked: every section has its length, and the cluster CSR starts
// at 0, ends at clusterTotal and never decreases, so cutting the blob into
// pages reads nothing out of range.
type layout struct {
	n, k, ct int
	owned    *keyspace.Set
	head     []byte
	sections [5][]byte // homeIdx, homeDist, eport, lmDist, lmPort
	start    []byte
	dst      []byte
	port     []byte
	dist     []byte
}

// parseTables parses and shape-checks an encoding.
func parseTables(data []byte) (*layout, error) {
	le := binary.LittleEndian
	if len(data) < tablesHdrLen {
		return nil, fmt.Errorf("%w: %d bytes < header", ErrBadTables, len(data))
	}
	if m := le.Uint32(data[0:]); m != tablesMagic {
		return nil, fmt.Errorf("%w: bad magic %08x", ErrBadTables, m)
	}
	version := le.Uint32(data[4:])
	if version != tablesVersion && version != tablesVersionOwned {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadTables, version)
	}
	n := int(le.Uint32(data[8:]))
	k := int(le.Uint32(data[12:]))
	ct := int(le.Uint32(data[16:]))
	if n < 1 || n > 65535 || k < 1 || k > n || ct < 0 {
		return nil, fmt.Errorf("%w: shape n=%d k=%d ct=%d", ErrBadTables, n, k, ct)
	}
	l := &layout{n: n, k: k, ct: ct}
	off, rows := tablesHdrLen, n
	if version == tablesVersionOwned {
		// The owned section (count + bitmap) sits between the header and the
		// landmark list; the total-length check needs the count first.
		if len(data) < tablesHdrLen+4 {
			return nil, fmt.Errorf("%w: %d bytes < restricted header", ErrBadTables, len(data))
		}
		oc := int(le.Uint32(data[tablesHdrLen:]))
		if oc < 1 || oc > n {
			return nil, fmt.Errorf("%w: ownedCount %d out of 1..%d", ErrBadTables, oc, n)
		}
		if want := EncodedTablesLenV2(n, k, ct, oc); len(data) != want {
			return nil, fmt.Errorf("%w: %d bytes, want %d (restricted)", ErrBadTables, len(data), want)
		}
		words := make([]uint64, (n+63)/64)
		for i := range words {
			words[i] = le.Uint64(data[tablesHdrLen+4+8*i:])
		}
		set, err := keyspace.FromWords(n, words)
		if err != nil {
			return nil, fmt.Errorf("%w: owned bitmap: %v", ErrBadTables, err)
		}
		if set.Count() != oc {
			return nil, fmt.Errorf("%w: owned bitmap popcount %d != ownedCount %d", ErrBadTables, set.Count(), oc)
		}
		l.owned, rows = set, oc
		off += 4 + 8*len(words)
	} else if want := EncodedTablesLen(n, k, ct); len(data) != want {
		return nil, fmt.Errorf("%w: %d bytes, want %d", ErrBadTables, len(data), want)
	}
	section := func(size int) []byte {
		v := data[off : off+size : off+size]
		off += size
		return v
	}
	l.head = data[:off+4*k]
	section(4 * k)
	for i, size := range []int{2 * n, 2 * n, 2 * n, 2 * n * k, 2 * rows * k} {
		l.sections[i] = section(size)
	}
	l.start, l.dst, l.port, l.dist = section(4*(n+1)), section(4*ct), section(2*ct), section(2*ct)
	if u32(l.start, 0) != 0 || u32(l.start, n) != int32(ct) {
		return nil, fmt.Errorf("%w: cluster CSR endpoints", ErrBadTables)
	}
	for u := 1; u <= n; u++ {
		if lo, hi := u32(l.start, u-1), u32(l.start, u); lo > hi || hi > int32(ct) {
			return nil, fmt.Errorf("%w: cluster CSR not monotone at %d", ErrBadTables, u)
		}
	}
	return l, nil
}

// scheme cuts a copy of the parsed blob into a sealed scheme's pages; the
// decoded landmarks, lmIdx, portRow, homeCount and labels are left for the
// caller.
func (l *layout) scheme() *Scheme {
	n, k := l.n, l.k
	rows := n
	if l.owned != nil {
		rows = l.owned.Count()
	}
	s := &Scheme{n: n, k: k, ct: l.ct, owned: l.owned, head: bytes.Clone(l.head)}
	s.homeIdx, s.homeDist, s.eport = newTable(n, 1), newTable(n, 1), newTable(n, 1)
	s.lmDist, s.lmPort = newTable(n, k), newTable(rows, k)
	for i, t := range s.sections() {
		src := l.sections[i]
		for p := range t.pages {
			src = src[copy(t.bytes(p), src):]
		}
	}
	start := make([]int32, n+1)
	for u := range start {
		start[u] = u32(l.start, u)
	}
	dst, port, dist := make([]int32, l.ct), make([]int32, l.ct), make([]int32, l.ct)
	for i := range dst {
		dst[i], port[i], dist[i] = u32(l.dst, i), u16(l.port, i), u16(l.dist, i)
	}
	s.cluster = makeClusters(n, start, dst, port, dist)
	s.seal(true)
	return s
}

// BlobCRC returns the tables fingerprint (Scheme.TablesCRC) of an encoding
// without decoding its contents: the blob is cut into the pages a scheme
// holding it would have, and their CRCs are combined. It fails only on a
// blob whose shape does not parse.
func BlobCRC(blob []byte) (uint32, error) {
	l, err := parseTables(blob)
	if err != nil {
		return 0, err
	}
	return l.scheme().crc, nil
}

// DecodeTables reconstructs a scheme from an encoding produced by
// EncodeTables against the same topology. Every field is validated: shapes,
// landmark ordering, index/distance ranges, port numbers against the actual
// degrees, CSR monotonicity, and per-row destination ordering — corrupt or
// foreign input yields ErrBadTables, never a scheme with out-of-range tables.
// The scheme's pages are copies of data, never data itself.
func DecodeTables(g *graph.Graph, ports *graph.Ports, data []byte) (*Scheme, error) {
	l, err := parseTables(data)
	if err != nil {
		return nil, err
	}
	n, k := l.n, l.k
	if n != g.N() {
		return nil, fmt.Errorf("%w: tables for n=%d, graph has n=%d", ErrBadTables, n, g.N())
	}
	if err := ports.Validate(g); err != nil {
		return nil, fmt.Errorf("landmark: %w", err)
	}
	landmarks := make([]int32, k)
	for j := range landmarks {
		landmarks[j] = u32(l.head[len(l.head)-4*k:], j)
	}
	portRow := ownedRows(l.owned)
	rowOf := func(u int) int {
		if portRow == nil {
			return u - 1
		}
		return int(portRow[u])
	}
	lmIdx := make([]int32, n+1)
	for v := range lmIdx {
		lmIdx[v] = -1
	}
	for j, a := range landmarks {
		if a < 1 || int(a) > n || (j > 0 && a <= landmarks[j-1]) {
			return nil, fmt.Errorf("%w: landmark list not sorted in range", ErrBadTables)
		}
		lmIdx[a] = int32(j)
	}
	homeIdx, homeDist, eport, lmDist, lmPort := l.sections[0], l.sections[1], l.sections[2], l.sections[3], l.sections[4]
	for v := 1; v <= n; v++ {
		hi, hd, ep := u16(homeIdx, v-1), u16(homeDist, v-1), u16(eport, v-1)
		if hi >= int32(k) {
			return nil, fmt.Errorf("%w: homeIdx[%d] = %d ≥ k", ErrBadTables, v, hi)
		}
		if hd != u16(lmDist, (v-1)*k+int(hi)) {
			return nil, fmt.Errorf("%w: homeDist[%d] inconsistent with landmark row", ErrBadTables, v)
		}
		home := landmarks[hi]
		deg := int32(ports.Degree(int(home)))
		if int32(v) == home {
			if ep != 0 || hd != 0 {
				return nil, fmt.Errorf("%w: landmark %d has nonzero home fields", ErrBadTables, v)
			}
		} else if ep < 1 || ep > deg {
			return nil, fmt.Errorf("%w: eport[%d] = %d out of degree %d", ErrBadTables, v, ep, deg)
		}
	}
	for u := 1; u <= n; u++ {
		deg := int32(ports.Degree(u))
		row := rowOf(u)
		for j := 0; j < k; j++ {
			d, port := u16(lmDist, (u-1)*k+j), int32(0)
			if row >= 0 {
				port = u16(lmPort, row*k+j)
			}
			if int32(u) == landmarks[j] {
				if port != 0 || d != 0 {
					return nil, fmt.Errorf("%w: node %d self-landmark row nonzero", ErrBadTables, u)
				}
			} else if d < 1 || int(d) >= n {
				return nil, fmt.Errorf("%w: landmark row (%d,%d) dist=%d", ErrBadTables, u, j, d)
			} else if row >= 0 && (port < 1 || port > deg) {
				return nil, fmt.Errorf("%w: landmark row (%d,%d) port=%d out of degree %d", ErrBadTables, u, j, port, deg)
			}
		}
	}
	for u := 1; u <= n; u++ {
		lo, hi := u32(l.start, u-1), u32(l.start, u)
		if l.owned != nil && !l.owned.Has(u) && lo != hi {
			return nil, fmt.Errorf("%w: non-owned node %d has %d cluster entries", ErrBadTables, u, hi-lo)
		}
		deg := int32(ports.Degree(u))
		for i := int(lo); i < int(hi); i++ {
			v, port, dist := u32(l.dst, i), u16(l.port, i), u16(l.dist, i)
			if v < 1 || int(v) > n || (i > int(lo) && v <= u32(l.dst, i-1)) {
				return nil, fmt.Errorf("%w: cluster row %d destinations unsorted", ErrBadTables, u)
			}
			if port < 1 || port > deg || dist < 2 || int(dist) >= n {
				return nil, fmt.Errorf("%w: cluster entry (%d,%d) port=%d dist=%d", ErrBadTables, u, v, port, dist)
			}
		}
	}
	s := l.scheme()
	s.landmarks, s.lmIdx, s.portRow = landmarks, lmIdx, portRow
	s.countHomes()
	s.buildLabels()
	return s, nil
}

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
// The layout is the memory: a Scheme keeps no other copy of these tables
// but the cluster CSR, which it also holds as int32 arrays for the lookup
// path's binary search (landmark.go). Its other section fields are views of
// its blob, read and written through the u16/u32 accessors below, and
// EncodeTables returns the blob itself. Build writes the sections directly,
// Update repairs a copy of its predecessor's blob, and DecodeTables
// validates and keeps a copy of its input; a blob is never written after
// its scheme is returned. Every value a u16 field receives is a distance,
// port or index below n, or the repair's 0xFFFF sentinel, and fits because
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

// newTables allocates a zeroed blob for n nodes, the given landmarks and ct
// cluster entries, restricted to owned when it is non-nil, and writes its
// header, owned section and landmark list.
func newTables(n int, landmarks []int32, ct int, owned *keyspace.Set) []byte {
	le := binary.LittleEndian
	k := len(landmarks)
	var b []byte
	off := tablesHdrLen
	if owned != nil {
		b = make([]byte, EncodedTablesLenV2(n, k, ct, owned.Count()))
		le.PutUint32(b[4:], tablesVersionOwned)
		le.PutUint32(b[off:], uint32(owned.Count()))
		off += 4
		for _, w := range owned.Words() {
			le.PutUint64(b[off:], w)
			off += 8
		}
	} else {
		b = make([]byte, EncodedTablesLen(n, k, ct))
		le.PutUint32(b[4:], tablesVersion)
	}
	le.PutUint32(b[0:], tablesMagic)
	le.PutUint32(b[8:], uint32(n))
	le.PutUint32(b[12:], uint32(k))
	le.PutUint32(b[16:], uint32(ct))
	for _, a := range landmarks {
		le.PutUint32(b[off:], uint32(a))
		off += 4
	}
	return b
}

// setTables makes b the scheme's blob and points the section views at it.
// b's header must match s.n, s.k and s.owned; its clusterTotal field sizes
// the cluster sections.
func (s *Scheme) setTables(b []byte) {
	n, k := s.n, s.k
	off, rows := tablesHdrLen, n
	if s.owned != nil {
		off += 4 + 8*len(s.owned.Words())
		rows = s.owned.Count()
	}
	section := func(size int) []byte {
		v := b[off : off+size : off+size]
		off += size
		return v
	}
	section(4 * k) // the landmark list, held decoded in s.landmarks
	s.homeIdx = section(2 * n)
	s.homeDist = section(2 * n)
	s.eport = section(2 * n)
	s.lmDist = section(2 * n * k)
	s.lmPort = section(2 * rows * k)
	ct := int(binary.LittleEndian.Uint32(b[16:]))
	if off+4*(n+1)+8*ct != len(b) {
		panic("landmark: table blob length does not match its header")
	}
	s.tables = b
}

// clustersAt returns the offset in the blob of its cluster CSR sections.
func (s *Scheme) clustersAt() int {
	ct := int(binary.LittleEndian.Uint32(s.tables[16:]))
	return len(s.tables) - 4*(s.n+1) - 8*ct
}

// clusterSections returns the blob's cluster CSR sections: n+1 u32 row
// starts, then ct u32 destinations, u16 ports and u16 distances.
func (s *Scheme) clusterSections() (start, dst, port, dist []byte) {
	b := s.tables[s.clustersAt():]
	start, b = b[:4*(s.n+1)], b[4*(s.n+1):]
	ct := len(b) / 8
	dst, b = b[:4*ct], b[4*ct:]
	return start, dst, b[:2*ct], b[2*ct:]
}

// encodeClusters writes the cluster CSR arrays into the blob's sections.
func (s *Scheme) encodeClusters() {
	start, dst, port, dist := s.clusterSections()
	for u, at := range s.clusterStart {
		setU32(start, u, at)
	}
	for i, v := range s.clusterDst {
		setU32(dst, i, v)
		setU16(port, i, s.clusterPort[i])
		setU16(dist, i, s.clusterDist[i])
	}
}

// copyTables returns a copy of every section of s's blob before the cluster
// CSR, sized for ct cluster entries (those sections zero) with room for spare
// more entries; the clusterTotal field says ct.
func (s *Scheme) copyTables(ct, spare int) []byte {
	pre := s.clustersAt()
	size := pre + 4*(s.n+1) + 8*ct
	b := make([]byte, size, size+8*spare)
	copy(b, s.tables[:pre])
	binary.LittleEndian.PutUint32(b[16:], uint32(ct))
	return b
}

// EncodeTables returns the scheme's table blob: version 3 for an unrestricted
// scheme, version 4 (owned bitmap, owned-only lmPort rows) for a restricted
// one. The blob is the scheme's own storage, never written once the scheme is
// returned; callers must not modify it. Its capacity is its length, so an
// append copies.
func (s *Scheme) EncodeTables() []byte { return s.tables[:len(s.tables):len(s.tables)] }

// DecodeTables reconstructs a scheme from an encoding produced by
// EncodeTables against the same topology. Every field is validated: shapes,
// landmark ordering, index/distance ranges, port numbers against the actual
// degrees, CSR monotonicity, and per-row destination ordering — corrupt or
// foreign input yields ErrBadTables, never a scheme with out-of-range tables.
// The scheme keeps a copy of data, never data itself.
func DecodeTables(g *graph.Graph, ports *graph.Ports, data []byte) (*Scheme, error) {
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
	if n != g.N() {
		return nil, fmt.Errorf("%w: tables for n=%d, graph has n=%d", ErrBadTables, n, g.N())
	}
	if n < 1 || n > 65535 || k < 1 || k > n || ct < 0 {
		return nil, fmt.Errorf("%w: shape n=%d k=%d ct=%d", ErrBadTables, n, k, ct)
	}
	var owned *keyspace.Set
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
		owned = set
	} else if want := EncodedTablesLen(n, k, ct); len(data) != want {
		return nil, fmt.Errorf("%w: %d bytes, want %d", ErrBadTables, len(data), want)
	}
	if err := ports.Validate(g); err != nil {
		return nil, fmt.Errorf("landmark: %w", err)
	}
	s := &Scheme{
		n:         n,
		k:         k,
		landmarks: make([]int32, k),
		lmIdx:     make([]int32, n+1),
		owned:     owned,
	}
	s.setTables(bytes.Clone(data))
	off := tablesHdrLen
	if owned != nil {
		off += 4 + 8*len(owned.Words())
	}
	for j := range s.landmarks {
		s.landmarks[j] = int32(le.Uint32(s.tables[off+4*j:]))
	}
	s.portRow = ownedRows(owned)

	for v := range s.lmIdx {
		s.lmIdx[v] = -1
	}
	for j, a := range s.landmarks {
		if a < 1 || int(a) > n || (j > 0 && a <= s.landmarks[j-1]) {
			return nil, fmt.Errorf("%w: landmark list not sorted in range", ErrBadTables)
		}
		s.lmIdx[a] = int32(j)
	}
	for v := 1; v <= n; v++ {
		hi, hd, ep := u16(s.homeIdx, v-1), u16(s.homeDist, v-1), u16(s.eport, v-1)
		if hi >= int32(k) {
			return nil, fmt.Errorf("%w: homeIdx[%d] = %d ≥ k", ErrBadTables, v, hi)
		}
		if hd != u16(s.lmDist, (v-1)*k+int(hi)) {
			return nil, fmt.Errorf("%w: homeDist[%d] inconsistent with landmark row", ErrBadTables, v)
		}
		home := s.landmarks[hi]
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
		row := s.portRowOf(u)
		for j := 0; j < k; j++ {
			d, port := u16(s.lmDist, (u-1)*k+j), int32(0)
			if row >= 0 {
				port = u16(s.lmPort, row*k+j)
			}
			if int32(u) == s.landmarks[j] {
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
	start, dst, port, dist := s.clusterSections()
	s.clusterStart = make([]int32, n+1)
	s.clusterDst = make([]int32, ct)
	s.clusterPort = make([]int32, ct)
	s.clusterDist = make([]int32, ct)
	for u := range s.clusterStart {
		s.clusterStart[u] = u32(start, u)
	}
	for i := range s.clusterDst {
		s.clusterDst[i], s.clusterPort[i], s.clusterDist[i] = u32(dst, i), u16(port, i), u16(dist, i)
	}
	if s.clusterStart[0] != 0 || s.clusterStart[n] != int32(ct) {
		return nil, fmt.Errorf("%w: cluster CSR endpoints", ErrBadTables)
	}
	for u := 1; u <= n; u++ {
		lo, hi := s.clusterStart[u-1], s.clusterStart[u]
		if lo > hi || hi > int32(ct) {
			return nil, fmt.Errorf("%w: cluster CSR not monotone at %d", ErrBadTables, u)
		}
		if owned != nil && !owned.Has(u) && lo != hi {
			return nil, fmt.Errorf("%w: non-owned node %d has %d cluster entries", ErrBadTables, u, hi-lo)
		}
		deg := int32(ports.Degree(u))
		for i := lo; i < hi; i++ {
			v := s.clusterDst[i]
			if v < 1 || int(v) > n || (i > lo && v <= s.clusterDst[i-1]) {
				return nil, fmt.Errorf("%w: cluster row %d destinations unsorted", ErrBadTables, u)
			}
			if s.clusterPort[i] < 1 || s.clusterPort[i] > deg || s.clusterDist[i] < 2 || int(s.clusterDist[i]) >= n {
				return nil, fmt.Errorf("%w: cluster entry (%d,%d) port=%d dist=%d", ErrBadTables, u, v, s.clusterPort[i], s.clusterDist[i])
			}
		}
	}
	s.buildLabels()
	return s, nil
}

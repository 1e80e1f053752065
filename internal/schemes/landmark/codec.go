package landmark

import (
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
// Distances and ports fit u16 because Build rejects n > 65535; the encoder
// re-checks anyway so a silent clamp is impossible.
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
// given shape, shared by the encoder and the serving layer's arena sizing.
func EncodedTablesLen(n, k, clusterTotal int) int {
	return tablesHdrLen + 4*k + 6*n + 4*n*k + 4*(n+1) + 8*clusterTotal
}

// EncodedTablesLenV2 returns the byte length of the version-4 (restricted)
// encoding: full lmDist, lmPort rows for ownedCount nodes only.
func EncodedTablesLenV2(n, k, clusterTotal, ownedCount int) int {
	words := (n + 63) / 64
	return tablesHdrLen + 4 + 8*words + 4*k + 6*n + 2*n*k + 2*ownedCount*k + 4*(n+1) + 8*clusterTotal
}

// EncodeTables serialises the scheme's tables deterministically: version 3
// for an unrestricted scheme, version 4 (owned bitmap, owned-only lmPort rows)
// for a restricted one.
func (s *Scheme) EncodeTables() []byte {
	n, k, ct := s.n, s.k, len(s.clusterDst)
	var buf []byte
	le := binary.LittleEndian
	if s.owned != nil {
		oc := s.owned.Count()
		buf = make([]byte, EncodedTablesLenV2(n, k, ct, oc))
		le.PutUint32(buf[4:], tablesVersionOwned)
		le.PutUint32(buf[tablesHdrLen:], uint32(oc))
	} else {
		buf = make([]byte, EncodedTablesLen(n, k, ct))
		le.PutUint32(buf[4:], tablesVersion)
	}
	le.PutUint32(buf[0:], tablesMagic)
	le.PutUint32(buf[8:], uint32(n))
	le.PutUint32(buf[12:], uint32(k))
	le.PutUint32(buf[16:], uint32(ct))
	off := tablesHdrLen
	if s.owned != nil {
		off += 4
		for _, w := range s.owned.Words() {
			le.PutUint64(buf[off:], w)
			off += 8
		}
	}
	putU32 := func(vals []int32) {
		for _, v := range vals {
			le.PutUint32(buf[off:], uint32(v))
			off += 4
		}
	}
	putU16 := func(vals []int32) {
		for _, v := range vals {
			if v < 0 || v > 0xFFFF {
				panic(fmt.Sprintf("landmark: value %d overflows u16 field", v))
			}
			le.PutUint16(buf[off:], uint16(v))
			off += 2
		}
	}
	putU32(s.landmarks)
	putU16(s.homeIdx[1:])
	putU16(s.homeDist[1:])
	putU16(s.eport[1:])
	putU16(s.lmDist)
	if s.owned != nil {
		for u := 1; u <= n; u++ {
			if s.owned.Has(u) {
				putU16(s.lmPort[(u-1)*k : u*k])
			}
		}
	} else {
		putU16(s.lmPort)
	}
	putU32(s.clusterStart)
	putU32(s.clusterDst)
	putU16(s.clusterPort)
	putU16(s.clusterDist)
	if off != len(buf) {
		panic("landmark: encode length mismatch")
	}
	return buf
}

// DecodeTables reconstructs a scheme from an encoding produced by
// EncodeTables against the same topology. Every field is validated: shapes,
// landmark ordering, index/distance ranges, port numbers against the actual
// degrees, CSR monotonicity, and per-row destination ordering — corrupt or
// foreign input yields ErrBadTables, never a scheme with out-of-range tables.
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
		n:            n,
		k:            k,
		landmarks:    make([]int32, k),
		homeIdx:      make([]int32, n+1),
		homeDist:     make([]int32, n+1),
		eport:        make([]int32, n+1),
		lmIdx:        make([]int32, n+1),
		lmPort:       make([]int32, n*k),
		lmDist:       make([]int32, n*k),
		clusterStart: make([]int32, n+1),
		clusterDst:   make([]int32, ct),
		clusterPort:  make([]int32, ct),
		clusterDist:  make([]int32, ct),
		owned:        owned,
	}
	off := tablesHdrLen
	if owned != nil {
		off += 4 + 8*len(owned.Words())
	}
	getU32 := func(dst []int32) {
		for i := range dst {
			dst[i] = int32(le.Uint32(data[off:]))
			off += 4
		}
	}
	getU16 := func(dst []int32) {
		for i := range dst {
			dst[i] = int32(le.Uint16(data[off:]))
			off += 2
		}
	}
	getU32(s.landmarks)
	getU16(s.homeIdx[1:])
	getU16(s.homeDist[1:])
	getU16(s.eport[1:])
	getU16(s.lmDist)
	if owned != nil {
		// lmPort rows are shipped for owned nodes only; non-owned rows stay
		// zero, matching what Restrict produced on the encoder side.
		for u := 1; u <= n; u++ {
			if owned.Has(u) {
				getU16(s.lmPort[(u-1)*k : u*k])
			}
		}
	} else {
		getU16(s.lmPort)
	}
	getU32(s.clusterStart)
	getU32(s.clusterDst)
	getU16(s.clusterPort)
	getU16(s.clusterDist)

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
		if s.homeIdx[v] >= int32(k) {
			return nil, fmt.Errorf("%w: homeIdx[%d] = %d ≥ k", ErrBadTables, v, s.homeIdx[v])
		}
		if s.homeDist[v] != s.lmDist[(v-1)*k+int(s.homeIdx[v])] {
			return nil, fmt.Errorf("%w: homeDist[%d] inconsistent with landmark row", ErrBadTables, v)
		}
		home := s.landmarks[s.homeIdx[v]]
		deg := int32(ports.Degree(int(home)))
		if int32(v) == home {
			if s.eport[v] != 0 || s.homeDist[v] != 0 {
				return nil, fmt.Errorf("%w: landmark %d has nonzero home fields", ErrBadTables, v)
			}
		} else if s.eport[v] < 1 || s.eport[v] > deg {
			return nil, fmt.Errorf("%w: eport[%d] = %d out of degree %d", ErrBadTables, v, s.eport[v], deg)
		}
	}
	for u := 1; u <= n; u++ {
		deg := int32(ports.Degree(u))
		hasPorts := owned == nil || owned.Has(u)
		for j := 0; j < k; j++ {
			at := (u-1)*k + j
			if int32(u) == s.landmarks[j] {
				if s.lmPort[at] != 0 || s.lmDist[at] != 0 {
					return nil, fmt.Errorf("%w: node %d self-landmark row nonzero", ErrBadTables, u)
				}
			} else if s.lmDist[at] < 1 || int(s.lmDist[at]) >= n {
				return nil, fmt.Errorf("%w: landmark row (%d,%d) dist=%d", ErrBadTables, u, j, s.lmDist[at])
			} else if hasPorts && (s.lmPort[at] < 1 || s.lmPort[at] > deg) {
				return nil, fmt.Errorf("%w: landmark row (%d,%d) port=%d out of degree %d", ErrBadTables, u, j, s.lmPort[at], deg)
			}
		}
	}
	if s.clusterStart[0] != 0 || s.clusterStart[n] != int32(ct) {
		return nil, fmt.Errorf("%w: cluster CSR endpoints", ErrBadTables)
	}
	for u := 1; u <= n; u++ {
		lo, hi := s.clusterStart[u-1], s.clusterStart[u]
		if lo > hi {
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

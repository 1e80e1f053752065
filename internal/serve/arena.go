// RTARENA1: the zero-copy snapshot codec. The arena is one contiguous
// 8-byte-aligned buffer — a 96-byte header with an offsets table, then the
// adjacency bitset rows, the port tables, the packed uint8 distance matrix,
// and the scheme-name blob — guarded by a single CRC-32C over the whole
// body. Saving a snapshot is one contiguous write; loading is one
// ReadFile; adoption serves the O(n²) distance matrix *in place*, aliased by
// shortestpath.FromPacked rather than copied.
//
// Layout (all integers little-endian; every section starts on an 8-byte
// boundary; padding bytes are zero; see DESIGN.md §14 for the diagram):
//
//	off  0  magic "RTARENA1"                  (8 bytes)
//	off  8  u64 total arena length in bytes
//	off 16  u32 CRC-32C (Castagnoli) over buf[24:total]
//	off 20  u32 layout version (1)
//	off 24  u64 snapshot Seq
//	off 32  u32 n        off 36  u32 m        off 40  u32 words per adj row
//	off 44  (off,len) u32 pairs: adj, pidx, pdat, dist, scheme
//	off 84  12 reserved zero bytes
//	off 96  sections
//
// ADJ  is n rows × words u64: node u's adjacency bitset (bit v−1 ⇔ uv ∈ E).
// PIDX is n+1 u32 prefix sums of degree: node u's ports live at
//
//	PDAT[pidx[u-1] : pidx[u]]
//
// PDAT is 2m u32 neighbour labels in port order. DIST is the n² packed
// uint8 row-major distance matrix. SCHM is the scheme name.
//
// Determinism: EncodeArena is a pure function of the snapshot's logical
// content — two engines that published byte-identical tables encode
// byte-identical arenas, and the DIST section is bit-for-bit the packed
// matrix cluster.DistCRC fingerprints.
package serve

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"routetab/internal/graph"
	"routetab/internal/shortestpath"
)

// CodecArena names the snapshot codec in the RTBIN1 Info frame and the
// daemon's /healthz.
const CodecArena = "arena"

// arenaMagic identifies arena layout version 1; bump arenaVersion (and the
// magic, for loud incompatibility) on any layout change.
var arenaMagic = [8]byte{'R', 'T', 'A', 'R', 'E', 'N', 'A', '1'}

// arena2Magic identifies layout version 2 — the tiered layout: identical
// header geometry, but the fourth section (the v1 DIST slot) carries the
// compact scheme's table blob (TBLS) instead of the n² packed matrix, with a
// free length. Full-matrix snapshots keep encoding as v1 byte-identically;
// sniffing dispatches on load.
var arena2Magic = [8]byte{'R', 'T', 'A', 'R', 'E', 'N', 'A', '2'}

const (
	arenaVersion   = 1
	arenaVersion2  = 2
	arenaHeaderLen = 96
	// maxArenaLen mirrors maxSectionLen: a corrupt length claim may not ask
	// the loader to allocate gigabytes.
	maxArenaLen = 256 << 20
)

// Header field offsets.
const (
	ahTotal   = 8
	ahCRC     = 16
	ahVersion = 20
	ahSeq     = 24
	ahN       = 32
	ahM       = 36
	ahWords   = 40
	ahAdj     = 44 // five (offset,len) u32 pairs follow: adj, pidx, pdat, dist, scheme
	ahPidx    = 52
	ahPdat    = 60
	ahDist    = 68
	ahSchm    = 76
)

func align8(x int) int { return (x + 7) &^ 7 }

// arenaLayoutLen returns the total arena size for the given shape, where
// distLen is the fourth section's byte length (n² packed distances on v1,
// the table blob on v2). Shared by the encoder and Snapshot.ArenaSize so the
// gauge never drifts from the bytes actually written.
func arenaLayoutLen(n, words, m, distLen, schmLen int) int {
	adjOff := arenaHeaderLen
	pidxOff := align8(adjOff + n*words*8)
	pdatOff := align8(pidxOff + (n+1)*4)
	distOff := align8(pdatOff + 2*m*4)
	schmOff := align8(distOff + distLen)
	return align8(schmOff + schmLen)
}

// Arena is a validated read-only view over one RTARENA1 buffer. All accessors
// alias the underlying buffer; nothing is materialised until SnapshotData is
// asked for, and even then the distance matrix stays aliased.
type Arena struct {
	buf     []byte
	version int
	seq     uint64
	n       int
	m       int
	words   int
	scheme  string
	adj     []byte // n*words*8 bytes
	pidx    []byte // (n+1)*4 bytes
	pdat    []byte // 2m*4 bytes
	dist    []byte // n*n bytes (v1 only)
	tbls    []byte // scheme table blob (v2 only)
}

// EncodeArena lays s out as one arena buffer — RTARENA1 when s carries the
// all-pairs matrix (byte-identical to the pre-tiered encoder), RTARENA2 when
// it carries compact-scheme tables instead (s.Dist == nil). The single
// allocation is the final buffer itself, sized exactly.
func EncodeArena(s *SnapshotData) []byte {
	n := s.Graph.N()
	words := s.Graph.Words()
	m := s.Graph.M()

	magic, version := arenaMagic, uint32(arenaVersion)
	adjOff := arenaHeaderLen
	adjLen := n * words * 8
	pidxOff := align8(adjOff + adjLen)
	pidxLen := (n + 1) * 4
	pdatOff := align8(pidxOff + pidxLen)
	pdatLen := 2 * m * 4
	distOff := align8(pdatOff + pdatLen)
	distLen := n * n
	if s.Dist == nil {
		magic, version = arena2Magic, arenaVersion2
		distLen = len(s.Tables)
	}
	schmOff := align8(distOff + distLen)
	schmLen := len(s.Scheme)
	total := align8(schmOff + schmLen)

	buf := make([]byte, total)
	copy(buf, magic[:])
	le := binary.LittleEndian
	le.PutUint64(buf[ahTotal:], uint64(total))
	le.PutUint32(buf[ahVersion:], version)
	le.PutUint64(buf[ahSeq:], s.Seq)
	le.PutUint32(buf[ahN:], uint32(n))
	le.PutUint32(buf[ahM:], uint32(m))
	le.PutUint32(buf[ahWords:], uint32(words))
	for _, f := range [5][3]int{
		{ahAdj, adjOff, adjLen}, {ahPidx, pidxOff, pidxLen}, {ahPdat, pdatOff, pdatLen},
		{ahDist, distOff, distLen}, {ahSchm, schmOff, schmLen},
	} {
		le.PutUint32(buf[f[0]:], uint32(f[1]))
		le.PutUint32(buf[f[0]+4:], uint32(f[2]))
	}

	for u := 1; u <= n; u++ {
		row := s.Graph.AdjRow(u)
		off := adjOff + (u-1)*words*8
		for w, word := range row {
			le.PutUint64(buf[off+w*8:], word)
		}
	}
	cum := uint32(0)
	le.PutUint32(buf[pidxOff:], 0)
	pd := pdatOff
	for u := 1; u <= n; u++ {
		d := s.Ports.Degree(u)
		cum += uint32(d)
		le.PutUint32(buf[pidxOff+u*4:], cum)
		for port := 1; port <= d; port++ {
			v, _ := s.Ports.Neighbor(u, port) // every port in 1…d exists
			le.PutUint32(buf[pd:], uint32(v))
			pd += 4
		}
	}
	if s.Dist != nil {
		copy(buf[distOff:distOff+distLen], s.Dist.Packed())
	} else {
		copy(buf[distOff:distOff+distLen], s.Tables)
	}
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

// OpenArena validates buf as one complete RTARENA1 buffer and returns the
// view. Every structural claim is checked — magic, version, total length,
// body CRC, section bounds, alignment, and size consistency — so arbitrary
// bytes get an error wrapping ErrBadSnapshotFile, never a corrupt view. The
// view aliases buf; the caller must not mutate it afterwards.
func OpenArena(buf []byte) (*Arena, error) {
	if len(buf) < arenaHeaderLen {
		return nil, fmt.Errorf("%w: arena of %d bytes", ErrBadSnapshotFile, len(buf))
	}
	le := binary.LittleEndian
	wantVersion := uint32(0)
	switch [8]byte(buf[:8]) {
	case arenaMagic:
		wantVersion = arenaVersion
	case arena2Magic:
		wantVersion = arenaVersion2
	default:
		return nil, fmt.Errorf("%w: arena magic %q", ErrBadSnapshotFile, buf[:8])
	}
	total := le.Uint64(buf[ahTotal:])
	if total != uint64(len(buf)) {
		return nil, fmt.Errorf("%w: arena claims %d bytes, have %d", ErrBadSnapshotFile, total, len(buf))
	}
	if v := le.Uint32(buf[ahVersion:]); v != wantVersion {
		return nil, fmt.Errorf("%w: arena layout version %d, magic wants %d", ErrBadSnapshotFile, v, wantVersion)
	}
	if got, want := crc32.Checksum(buf[ahSeq:], crcTable), le.Uint32(buf[ahCRC:]); got != want {
		return nil, fmt.Errorf("%w: arena checksum %08x, want %08x", ErrBadSnapshotFile, got, want)
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
	a := &Arena{buf: buf, version: int(wantVersion), seq: le.Uint64(buf[ahSeq:]), n: n, m: m, words: words}
	var err error
	if a.adj, err = section(ahAdj, n*words*8, "ADJ"); err != nil {
		return nil, err
	}
	if a.pidx, err = section(ahPidx, (n+1)*4, "PIDX"); err != nil {
		return nil, err
	}
	if a.pdat, err = section(ahPdat, 2*m*4, "PDAT"); err != nil {
		return nil, err
	}
	if a.version == arenaVersion2 {
		// v2 reuses the DIST header slot for the scheme table blob, whose
		// length only the scheme codec knows — validated on decode.
		if a.tbls, err = section(ahDist, -1, "TBLS"); err != nil {
			return nil, err
		}
	} else if a.dist, err = section(ahDist, n*n, "DIST"); err != nil {
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
	if a.version == arenaVersion2 && !TableCapable(a.scheme) {
		return nil, fmt.Errorf("%w: scheme %q cannot serve the tables tier", ErrBadSnapshotFile, a.scheme)
	}
	if le.Uint32(a.pidx) != 0 {
		return nil, fmt.Errorf("%w: PIDX[0] = %d", ErrBadSnapshotFile, le.Uint32(a.pidx))
	}
	for u := 1; u <= n; u++ {
		if le.Uint32(a.pidx[u*4:]) < le.Uint32(a.pidx[(u-1)*4:]) {
			return nil, fmt.Errorf("%w: PIDX not monotone at node %d", ErrBadSnapshotFile, u)
		}
	}
	if got := int(le.Uint32(a.pidx[n*4:])); got != 2*m {
		return nil, fmt.Errorf("%w: PIDX total %d ports, header says %d", ErrBadSnapshotFile, got, 2*m)
	}
	return a, nil
}

// Seq returns the snapshot publication sequence.
func (a *Arena) Seq() uint64 { return a.seq }

// N returns the node count.
func (a *Arena) N() int { return a.n }

// M returns the edge count.
func (a *Arena) M() int { return a.m }

// Scheme returns the construction name.
func (a *Arena) Scheme() string { return a.scheme }

// Len returns the total arena size in bytes.
func (a *Arena) Len() int { return len(a.buf) }

// Bytes returns the whole arena buffer (read-only) — the contiguous form a
// transfer path writes with one call.
func (a *Arena) Bytes() []byte { return a.buf }

// Version returns the arena layout version (1 = full matrix, 2 = tiered).
func (a *Arena) Version() int { return a.version }

// PackedDist returns the n² packed distance bytes, aliasing the arena — the
// zero-copy payload. Nil on v2 arenas, which carry Tables instead.
func (a *Arena) PackedDist() []byte { return a.dist }

// Tables returns the scheme table blob of a v2 arena (nil on v1), aliasing
// the arena buffer.
func (a *Arena) Tables() []byte { return a.tbls }

// DistCRC returns CRC-32C over the packed distance bytes: the same
// convergence fingerprint cluster.DistCRC computes from a live snapshot.
func (a *Arena) DistCRC() uint32 { return crc32.Checksum(a.dist, crcTable) }

// SnapshotData materialises the decoded form. The graph is rebuilt and the
// port sections checked against it (with full structural validation —
// symmetry, degree and bijection checks); the distance matrix is *adopted
// in place*, still aliasing the arena buffer, so the O(n²) payload is never
// copied.
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
	ports, err := a.ports(g)
	if err != nil {
		return nil, err
	}
	if a.version == arenaVersion2 {
		// Tiered arena: no matrix to adopt; the table blob stays aliased to
		// the arena buffer and is validated by the scheme codec on decode.
		return &SnapshotData{Seq: a.seq, Scheme: a.scheme, Graph: g, Ports: ports, Tables: a.tbls}, nil
	}
	dm, err := shortestpath.FromPacked(a.n, a.dist)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshotFile, err)
	}
	return &SnapshotData{Seq: a.seq, Scheme: a.scheme, Graph: g, Ports: ports, Dist: dm}, nil
}

// ports checks PIDX/PDAT against g's sorted neighbour rows. A PDAT that
// lists every row in sorted order — what EncodeArena writes for the sorted
// assignment — decodes to the map-free sorted view; any other order is
// decoded as an explicit per-node permutation.
func (a *Arena) ports(g *graph.Graph) (*graph.Ports, error) {
	le := binary.LittleEndian
	var perms [][]int // nil while PDAT matches the sorted rows
	for u := 1; u <= a.n; u++ {
		lo := int(le.Uint32(a.pidx[(u-1)*4:]))
		hi := int(le.Uint32(a.pidx[u*4:]))
		if hi-lo != g.Degree(u) {
			return nil, fmt.Errorf("%w: PIDX degree %d of node %d, graph says %d", ErrBadSnapshotFile, hi-lo, u, g.Degree(u))
		}
		row := g.Neighbors(u)
		for i := range row {
			v := int(le.Uint32(a.pdat[(lo+i)*4:]))
			if perms == nil && v == row[i] {
				continue
			}
			idx, adj := slices.BinarySearch(row, v)
			if !adj {
				return nil, fmt.Errorf("%w: PDAT of node %d lists non-neighbour %d", ErrBadSnapshotFile, u, v)
			}
			if perms == nil {
				perms = identityPerms(g)
			}
			perms[u][i] = idx
		}
	}
	if perms == nil {
		return graph.SortedPorts(g), nil
	}
	ports, err := graph.PermutedPorts(g, perms)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshotFile, err)
	}
	return ports, nil
}

// identityPerms returns the PermutedPorts argument of the sorted assignment.
func identityPerms(g *graph.Graph) [][]int {
	perms := make([][]int, g.N()+1)
	for u := 1; u <= g.N(); u++ {
		perms[u] = make([]int, g.Degree(u))
		for i := range perms[u] {
			perms[u][i] = i
		}
	}
	return perms
}

// readArena reads the remainder of one arena from r after the 8-byte magic
// (passed in, since both layouts stream through here) has already been
// consumed — the stream-decode path (cluster state bodies). The whole arena
// lands in one allocation and one ReadFull.
func readArena(r io.Reader, magic [8]byte) (*Arena, error) {
	var rest [8]byte
	if _, err := io.ReadFull(r, rest[:]); err != nil {
		return nil, fmt.Errorf("%w: arena length: %v", ErrBadSnapshotFile, err)
	}
	total := binary.LittleEndian.Uint64(rest[:])
	if total < arenaHeaderLen || total > maxArenaLen {
		return nil, fmt.Errorf("%w: arena claims %d bytes", ErrBadSnapshotFile, total)
	}
	buf := make([]byte, total)
	copy(buf, magic[:])
	copy(buf[8:], rest[:])
	if _, err := io.ReadFull(r, buf[16:]); err != nil {
		return nil, fmt.Errorf("%w: arena body: %v", ErrBadSnapshotFile, err)
	}
	return OpenArena(buf)
}

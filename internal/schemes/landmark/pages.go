package landmark

import (
	"encoding/binary"
	"hash/crc32"
	"slices"
)

// Paged storage. A scheme keeps its tables in fixed-size pages that the
// schemes Update derives from one another share: a per-node section in
// pages of whole rows, the cluster CSR in blocks of consecutive holders.
// Update starts from its predecessor's page lists, copies a page the first
// time it writes to it, and shares every other page, so a flip copies what
// it changes. A page is never written once its scheme is sealed (returned
// by Build, Restrict, Update or DecodeTables), which is what makes the
// sharing safe under concurrent readers.
//
// Every page carries a CRC-32C of its canonical bytes, computed when its
// scheme is sealed; the tables fingerprint (TablesCRC) is the CRC-32C of
// those page CRCs in blob order, so sealing a flip hashes the pages it
// copied and four bytes for every other page.

// pageSize bounds the bytes of a section page: the largest power of two of
// rows that fits, and at least one row.
const pageSize = 4096

// Cluster blocks hold blockHolders consecutive holders: block b holds nodes
// b·blockHolders+1 onward, and a last block short of n is padded with empty
// rows.
const (
	blockShift   = 4
	blockHolders = 1 << blockShift
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// page is a section page: its rows from the start, zeros past the last
// row of a section's last page.
type page [pageSize]byte

// table is one per-node section stored as pages of whole rows: row r, entry
// j is u16 entry (r&mask)·width + j of page r>>shift. Rows are a section's
// nodes (v−1) or owned lmPort rows (portRowOf). Pages are fixed-size
// arrays, so a read loads one page pointer and checks its offset against a
// constant.
type table struct {
	pages []*page
	width int  // u16 entries per row
	shift uint // log2 of the rows per page
	mask  int  // rows per page − 1
	rows  int
	// own marks the pages the scheme being built allocated or copied, the
	// only ones it may write; nil once the scheme is sealed.
	own []bool
}

// newTable allocates rows zeroed rows of width u16 entries, every page
// owned.
func newTable(rows, width int) table {
	shift := uint(0)
	for 2*width<<(shift+1) <= pageSize {
		shift++
	}
	t := table{width: width, shift: shift, mask: 1<<shift - 1, rows: rows}
	np := (rows + t.mask) >> shift
	t.pages, t.own = make([]*page, np), make([]bool, np)
	for p := range t.pages {
		t.pages[p], t.own[p] = new(page), true
	}
	return t
}

// bytes returns the bytes of page p's rows: the encoding's bytes of them.
func (t *table) bytes(p int) []byte {
	return t.pages[p][:2*t.width*min(t.mask+1, t.rows-p<<t.shift)]
}

// at reads entry j of row r.
func (t *table) at(r, j int) int32 {
	return t.pages[r>>(t.shift&63)].u16((r&t.mask)*t.width + j)
}

// cellShift is log2 of the rows of a page of a section one entry wide
// (homeIdx, homeDist, eport): pageSize/2 of them.
const cellShift = 11

// cell reads row r of a section one entry wide; the page geometry is a
// constant.
func (t *table) cell(r int) int32 {
	return t.pages[r>>cellShift].u16(r & (1<<cellShift - 1))
}

// u16 reads u16 entry i of the page. The byte offset is masked into the
// page, which a valid entry index always is, so the compiler drops the
// bounds checks.
func (p *page) u16(i int) int32 {
	j := 2 * uint(i) & (pageSize - 2)
	return int32(uint16(p[j]) | uint16(p[j+1])<<8)
}

// row returns the bytes of row r: width u16 entries, read-only.
func (t *table) row(r int) []byte {
	o := 2 * (r & t.mask) * t.width
	return t.pages[r>>t.shift][o : o+2*t.width]
}

// set writes entry j of row r, copying its page first unless the scheme
// being built owns it. Writing the value already stored copies nothing.
func (t *table) set(r, j int, v int32) {
	p, i := r>>(t.shift&63), (r&t.mask)*t.width+j
	if t.pages[p].u16(i) == v {
		return
	}
	if !t.own[p] {
		c := *t.pages[p]
		t.pages[p], t.own[p] = &c, true
	}
	setU16(t.pages[p][:], i, v)
}

// share returns a table that shares every page of t and owns none.
func (t *table) share() table {
	c := *t
	c.pages, c.own = slices.Clone(t.pages), make([]bool, len(t.pages))
	return c
}

// clusters is the cluster CSR in blocks of blockHolders holders. A block is
// one int32 array: blockHolders+1 row starts local to the block (the first
// 0, the last the block's entry count c), then c destinations, c ports and
// c distances, each row sorted by destination.
type clusters struct {
	blocks [][]int32
	// own marks the blocks the scheme being built made; nil once sealed.
	own []bool
}

// emptyBlock is every block whose rows are all empty, shared by all
// schemes and never written: the lookups of a shard's non-owned holders
// keep reading the same cache lines.
var emptyBlock = make([]int32, blockHolders+1)

// blockCount returns how many cluster blocks cover n holders.
func blockCount(n int) int { return (n + blockHolders - 1) >> blockShift }

// newBlock lays out one block from its holders' global CSR slice: starts
// holds the row starts of its holders and the end of the last one (at most
// blockHolders+1 values, fewer when the block runs past n), and dst, port
// and dist the entries from starts[0] on.
func newBlock(starts, dst, port, dist []int32) []int32 {
	base, c := starts[0], starts[len(starts)-1]-starts[0]
	if c == 0 {
		return emptyBlock
	}
	blk := make([]int32, blockHolders+1+3*int(c))
	for i := range blockHolders + 1 {
		blk[i] = c
		if i < len(starts) {
			blk[i] = starts[i] - base
		}
	}
	e := blk[blockHolders+1:]
	copy(e, dst[base:base+c])
	copy(e[c:], port[base:base+c])
	copy(e[2*c:], dist[base:base+c])
	return blk
}

// makeClusters cuts a global cluster CSR — start[u] the end of node u's row,
// start[0] = 0 — into blocks, every one owned.
func makeClusters(n int, start, dst, port, dist []int32) clusters {
	nb := blockCount(n)
	c := clusters{blocks: make([][]int32, nb), own: make([]bool, nb)}
	for b := range c.blocks {
		c.blocks[b] = newBlock(start[b*blockHolders:min(n, (b+1)*blockHolders)+1], dst, port, dist)
		c.own[b] = true
	}
	return c
}

// blockSum returns the CRC-32C of a block's canonical bytes: every int32 of
// it as a little-endian u32, in order. buf is scratch, a multiple of 4
// bytes long.
func blockSum(blk []int32, buf []byte) uint32 {
	crc := uint32(0)
	for len(blk) > 0 {
		m := min(len(blk), len(buf)/4)
		for i, v := range blk[:m] {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
		}
		crc = crc32.Update(crc, castagnoli, buf[:4*m])
		blk = blk[m:]
	}
	return crc
}

// sections returns the per-node sections in blob order.
func (s *Scheme) sections() [5]*table {
	return [5]*table{&s.homeIdx, &s.homeDist, &s.eport, &s.lmDist, &s.lmPort}
}

// pageCount returns how many pages carry a CRC: the head, every section
// page and every cluster block.
func (s *Scheme) pageCount() int {
	c := 1 + len(s.cluster.blocks)
	for _, t := range s.sections() {
		c += len(t.pages)
	}
	return c
}

// sumPages writes into sums, u32 little-endian in blob order, the CRC-32C
// of the head and of every page and block the scheme owns, or of every one
// when all is set.
func (s *Scheme) sumPages(sums []byte, all bool) {
	le := binary.LittleEndian
	le.PutUint32(sums, crc32.Checksum(s.head, castagnoli))
	i := 1
	for _, t := range s.sections() {
		for p := range t.pages {
			if all || t.own[p] {
				le.PutUint32(sums[4*i:], crc32.Checksum(t.bytes(p), castagnoli))
			}
			i++
		}
	}
	var buf []byte
	for b, blk := range s.cluster.blocks {
		if all || s.cluster.own[b] {
			if buf == nil {
				buf = make([]byte, 1024)
			}
			le.PutUint32(sums[4*i:], blockSum(blk, buf))
		}
		i++
	}
}

// seal hashes the pages the scheme owns, or all of them, sets the
// fingerprint and gives up ownership: from here on no page is written.
func (s *Scheme) seal(all bool) {
	if want := 4 * s.pageCount(); len(s.sums) != want {
		s.sums, all = make([]byte, want), true
	}
	s.sumPages(s.sums, all)
	s.crc = crc32.Checksum(s.sums, castagnoli)
	for _, t := range s.sections() {
		t.own = nil
	}
	s.cluster.own = nil
}

// TablesCRC returns the scheme's tables fingerprint: the CRC-32C of the
// u32 little-endian CRC-32Cs of its pages, in blob order — the head (the
// blob's bytes before homeIdx: header, owned section and landmark list),
// the pages of homeIdx, homeDist, eport, lmDist and lmPort, whose bytes are
// the blob's bytes of their rows, and the cluster blocks by holder. Two
// schemes with identical encodings have the same fingerprint. It was
// computed when the scheme was sealed; RehashTables recomputes it.
func (s *Scheme) TablesCRC() uint32 { return s.crc }

// RehashTables recomputes the tables fingerprint from every page's bytes,
// trusting no stored page CRC.
func (s *Scheme) RehashTables() uint32 {
	sums := make([]byte, 4*s.pageCount())
	s.sumPages(sums, true)
	return crc32.Checksum(sums, castagnoli)
}

// share returns clusters that share every block of c and own none.
func (c *clusters) share() clusters {
	return clusters{blocks: slices.Clone(c.blocks), own: make([]bool, len(c.blocks))}
}

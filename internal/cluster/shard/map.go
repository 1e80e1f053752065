// Package shard partitions a routing cluster's source keyspace across
// replicated serving groups.
//
// The unit of placement is the source node: a lookup (src, dst) is answered
// by the group that owns src, using the keyspace-restricted scheme tables of
// internal/schemes/landmark (LMTB v2) — dst never constrains placement, so
// any split of the sources is a correct split of the work. Ownership is
// decided by a consistent-hash shard map: each node hashes to a point on the
// 64-bit ring and the map is a sorted tiling of [0, 2^64) into half-open
// ranges, each assigned to a group. Splitting a group moves ranges, not
// nodes, so a split relocates only the keys in the moved range and every
// other group's placement is untouched.
//
// The map itself is replicated state: it is versioned by an epoch that bumps
// on every reshape, and it travels in the same CRC-32C framing as the WAL
// (serve.WriteFrame), so a torn or bit-flipped map is rejected
// loudly and never partially adopted — the codec returns either a fully
// validated map or an error, nothing in between.
package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"routetab/internal/keyspace"
	"routetab/internal/serve"
)

// ErrBadMap reports a shard map that failed structural validation or CRC.
var ErrBadMap = errors.New("shard: bad shard map")

// maxNodes mirrors the landmark scheme's node-id ceiling (ports and ids are
// uint16 on the wire).
const maxNodes = 65535

// maxRanges bounds decode-side allocation: a map may carry at most this many
// ranges regardless of what its header claims.
const maxRanges = 1 << 16

// Range assigns the half-open hash interval [Start, next.Start) — or
// [Start, 2^64) for the last range — to one group.
type Range struct {
	Start uint64
	Group int
}

// Map is an immutable placement of the source keyspace onto shard groups.
// Mutating operations (Split) return a new Map under a bumped epoch.
type Map struct {
	// Epoch versions the placement; every reshape bumps it. Routers compare
	// epochs to decide which of two maps is newer.
	Epoch uint64
	// N is the number of nodes in the keyspace (ids 1..N).
	N int
	// Groups is the number of shard groups; ids are dense 0..Groups-1.
	Groups int
	// Ranges tile [0, 2^64) sorted by Start; Ranges[0].Start == 0.
	Ranges []Range
}

// HashKey places node u on the 64-bit ring (splitmix64 of the id — cheap,
// stateless, and well-mixed so uniform range splits give near-uniform key
// splits).
func HashKey(u int) uint64 {
	z := uint64(u) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewUniform builds the epoch-1 map: the ring cut into groups equal ranges,
// range i owned by group i.
func NewUniform(n, groups int) (*Map, error) {
	if n < 1 || n > maxNodes {
		return nil, fmt.Errorf("%w: n=%d out of range [1, %d]", ErrBadMap, n, maxNodes)
	}
	if groups < 1 || groups > n {
		return nil, fmt.Errorf("%w: %d groups for %d nodes", ErrBadMap, groups, n)
	}
	ranges := make([]Range, groups)
	step := ^uint64(0)/uint64(groups) + 1
	for g := 0; g < groups; g++ {
		ranges[g] = Range{Start: uint64(g) * step, Group: g}
	}
	m := &Map{Epoch: 1, N: n, Groups: groups, Ranges: ranges}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// GroupFor returns the group owning node u.
func (m *Map) GroupFor(u int) int {
	h := HashKey(u)
	// The last range with Start <= h owns h.
	i := sort.Search(len(m.Ranges), func(i int) bool { return m.Ranges[i].Start > h }) - 1
	return m.Ranges[i].Group
}

// rangeEnd returns the exclusive end of range i (0 means 2^64 for the last).
func (m *Map) rangeEnd(i int) uint64 {
	if i+1 < len(m.Ranges) {
		return m.Ranges[i+1].Start
	}
	return 0 // wraps: treated as 2^64 by width()
}

func (m *Map) width(i int) uint64 {
	w := m.rangeEnd(i) - m.Ranges[i].Start // wraps correctly for the last range
	if w == 0 && len(m.Ranges) == 1 {
		return ^uint64(0) // single full-ring range: 2^64, saturated to max
	}
	return w
}

// OwnedSet materialises the keyspace owned by group g under this map.
func (m *Map) OwnedSet(g int) (*keyspace.Set, error) {
	if g < 0 || g >= m.Groups {
		return nil, fmt.Errorf("%w: group %d of %d", ErrBadMap, g, m.Groups)
	}
	set, err := keyspace.New(m.N)
	if err != nil {
		return nil, err
	}
	for u := 1; u <= m.N; u++ {
		if m.GroupFor(u) == g {
			set.Add(u)
		}
	}
	return set, nil
}

// Split carves a new group out of group g: the widest range owned by g is
// halved, the upper half moves to a fresh group (id = old Groups), and the
// epoch bumps. The receiver is unchanged; the new map and the new group id
// are returned. A split that would move zero keys (the half is empty) is
// still structurally valid — the caller decides whether an empty handover is
// worth an epoch.
func (m *Map) Split(g int) (*Map, int, error) {
	if g < 0 || g >= m.Groups {
		return nil, 0, fmt.Errorf("%w: split group %d of %d", ErrBadMap, g, m.Groups)
	}
	widest, found := -1, false
	for i := range m.Ranges {
		if m.Ranges[i].Group != g {
			continue
		}
		if !found || m.width(i) > m.width(widest) {
			widest, found = i, true
		}
	}
	if !found {
		return nil, 0, fmt.Errorf("%w: group %d owns no range", ErrBadMap, g)
	}
	if m.width(widest) < 2 {
		return nil, 0, fmt.Errorf("%w: group %d's widest range is unsplittable", ErrBadMap, g)
	}
	mid := m.Ranges[widest].Start + m.width(widest)/2
	newGroup := m.Groups
	ranges := make([]Range, 0, len(m.Ranges)+1)
	ranges = append(ranges, m.Ranges[:widest+1]...)
	ranges = append(ranges, Range{Start: mid, Group: newGroup})
	ranges = append(ranges, m.Ranges[widest+1:]...)
	next := &Map{Epoch: m.Epoch + 1, N: m.N, Groups: m.Groups + 1, Ranges: ranges}
	if err := next.validate(); err != nil {
		return nil, 0, err
	}
	return next, newGroup, nil
}

// validate enforces the structural invariants every adopted map must hold.
func (m *Map) validate() error {
	if m.Epoch == 0 {
		return fmt.Errorf("%w: epoch 0", ErrBadMap)
	}
	if m.N < 1 || m.N > maxNodes {
		return fmt.Errorf("%w: n=%d out of range [1, %d]", ErrBadMap, m.N, maxNodes)
	}
	if m.Groups < 1 || m.Groups > maxRanges {
		return fmt.Errorf("%w: %d groups", ErrBadMap, m.Groups)
	}
	if len(m.Ranges) < m.Groups || len(m.Ranges) > maxRanges {
		return fmt.Errorf("%w: %d ranges for %d groups", ErrBadMap, len(m.Ranges), m.Groups)
	}
	if m.Ranges[0].Start != 0 {
		return fmt.Errorf("%w: first range starts at %d, want 0", ErrBadMap, m.Ranges[0].Start)
	}
	seen := make([]bool, m.Groups)
	for i, r := range m.Ranges {
		if i > 0 && r.Start <= m.Ranges[i-1].Start {
			return fmt.Errorf("%w: range starts not strictly increasing at %d", ErrBadMap, i)
		}
		if r.Group < 0 || r.Group >= m.Groups {
			return fmt.Errorf("%w: range %d assigned to group %d of %d", ErrBadMap, i, r.Group, m.Groups)
		}
		seen[r.Group] = true
	}
	for g, ok := range seen {
		if !ok {
			return fmt.Errorf("%w: group %d owns no range", ErrBadMap, g)
		}
	}
	return nil
}

// mapMagic is the codec preamble; frameTag frames the payload in the shared
// WAL CRC framing.
var (
	mapMagic = []byte("RTSMAP1\n")
	frameTag = [4]byte{'S', 'M', 'A', 'P'}
)

// Encode writes the map: magic, then one CRC-framed section holding epoch,
// n, groups, and the range list. Output is a pure function of the map.
func (m *Map) Encode(w *bytes.Buffer) error {
	if err := m.validate(); err != nil {
		return err
	}
	payload := make([]byte, 0, 8+4+4+4+12*len(m.Ranges))
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], m.Epoch)
	payload = append(payload, tmp[:]...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(m.N))
	payload = append(payload, tmp[:4]...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(m.Groups))
	payload = append(payload, tmp[:4]...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(m.Ranges)))
	payload = append(payload, tmp[:4]...)
	for _, r := range m.Ranges {
		binary.LittleEndian.PutUint64(tmp[:], r.Start)
		payload = append(payload, tmp[:]...)
		binary.LittleEndian.PutUint32(tmp[:4], uint32(r.Group))
		payload = append(payload, tmp[:4]...)
	}
	w.Write(mapMagic)
	return serve.WriteFrame(w, frameTag, payload)
}

// EncodeBytes returns the encoded map.
func (m *Map) EncodeBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode parses and fully validates an encoded map. Any corruption — torn
// tail, flipped bit, trailing garbage, structural violation — returns
// ErrBadMap (or the frame's CRC error); a partially valid map is never
// returned.
func Decode(data []byte) (*Map, error) {
	if len(data) < len(mapMagic) || !bytes.Equal(data[:len(mapMagic)], mapMagic) {
		return nil, fmt.Errorf("%w: bad magic", ErrBadMap)
	}
	r := bytes.NewReader(data[len(mapMagic):])
	payload, err := serve.ReadFrame(r, frameTag)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMap, err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadMap, r.Len())
	}
	if len(payload) < 20 {
		return nil, fmt.Errorf("%w: payload %d bytes", ErrBadMap, len(payload))
	}
	m := &Map{
		Epoch:  binary.LittleEndian.Uint64(payload[0:8]),
		N:      int(binary.LittleEndian.Uint32(payload[8:12])),
		Groups: int(binary.LittleEndian.Uint32(payload[12:16])),
	}
	count := int(binary.LittleEndian.Uint32(payload[16:20]))
	if count < 0 || count > maxRanges {
		return nil, fmt.Errorf("%w: %d ranges", ErrBadMap, count)
	}
	if want := 20 + 12*count; len(payload) != want {
		return nil, fmt.Errorf("%w: payload %d bytes, want %d for %d ranges", ErrBadMap, len(payload), want, count)
	}
	m.Ranges = make([]Range, count)
	for i := 0; i < count; i++ {
		off := 20 + 12*i
		m.Ranges[i] = Range{
			Start: binary.LittleEndian.Uint64(payload[off : off+8]),
			Group: int(int32(binary.LittleEndian.Uint32(payload[off+8 : off+12]))),
		}
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Equal reports whether two maps describe the identical placement.
func (m *Map) Equal(o *Map) bool {
	if m == nil || o == nil {
		return m == o
	}
	if m.Epoch != o.Epoch || m.N != o.N || m.Groups != o.Groups || len(m.Ranges) != len(o.Ranges) {
		return false
	}
	for i := range m.Ranges {
		if m.Ranges[i] != o.Ranges[i] {
			return false
		}
	}
	return true
}

func (m *Map) String() string {
	return fmt.Sprintf("shard.Map{epoch %d, n %d, %d groups, %d ranges}", m.Epoch, m.N, m.Groups, len(m.Ranges))
}

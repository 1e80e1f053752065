// Keyspace restriction: a shard group serves lookups only for sources it
// owns, so its tables need only those sources' per-source rows. Restrict
// drops, for every non-owned node u, the landmark-port row (the first hops u
// would forward on) and the entire cluster CSR row — together the dominant
// space terms, Θ(n·k + n²/k) of the full encoding. What stays global is
// everything a route *toward* any destination needs: the landmark list, every
// node's label fields (home landmark, home distance, eport), and the full
// lmDist matrix, which DistEstimate reads for both endpoints of a pair.
//
// The stretch-3 estimate bound survives restriction for owned sources: a
// cluster miss at an owned u still implies d(u,v) ≥ homeDist(v), so the
// landmark detour lmDist[u][ℓ(v)] + homeDist(v) ≤ 3·d(u,v). Estimates *from*
// non-owned sources (the degraded-detour neighbour scan) lose the cluster
// exactness and may exceed the bound — they steer detour choice, never a
// graded answer, and the serving layer rejects non-owned sources up front.
package landmark

import (
	"errors"
	"fmt"

	"routetab/internal/keyspace"
)

// ErrNotOwned reports a routing decision requested from a source node whose
// per-source tables were dropped by Restrict.
var ErrNotOwned = errors.New("landmark: source outside owned keyspace")

// Owned returns the scheme's owned-source set, or nil when the scheme holds
// every node's tables (an unrestricted build or a version-3 decode).
func (s *Scheme) Owned() *keyspace.Set { return s.owned }

// Restrict drops the per-source tables (landmark-port row and cluster row) of
// every node outside owned, moving the scheme to the version-4 layout. It
// applies to a freshly built, unrestricted scheme exactly once —
// re-restricting a restricted scheme would silently compound ownership, so it
// errors instead. The result is a pure function of (built scheme, owned): two
// members of the same group restrict identical builds to byte-identical
// encodings.
func (s *Scheme) Restrict(owned *keyspace.Set) error {
	if s.owned != nil {
		return fmt.Errorf("landmark: scheme already restricted to %v", s.owned)
	}
	if owned == nil {
		return fmt.Errorf("landmark: restrict to nil owned set")
	}
	if owned.N() != s.n {
		return fmt.Errorf("landmark: owned set over n=%d, scheme has n=%d", owned.N(), s.n)
	}
	if owned.Count() == 0 {
		return fmt.Errorf("landmark: owned set is empty")
	}
	full := *s
	s.owned = owned.Clone()
	s.portRow = ownedRows(s.owned)
	s.lmPort = newTable(s.owned.Count(), s.k)
	for u := 1; u <= s.n; u++ {
		if r := s.portRow[u]; r >= 0 {
			copy(s.lmPort.row(int(r)), full.lmPort.row(u-1))
		}
	}
	// Owned rows keep their order and their entries, so the result is
	// deterministic; a block whose rows are all kept is kept whole.
	s.cluster = clusters{blocks: make([][]int32, len(full.cluster.blocks))}
	s.ct = 0
	for b, blk := range full.cluster.blocks {
		s.cluster.blocks[b] = restrictBlock(blk, b*blockHolders, s.owned)
		s.ct += int(s.cluster.blocks[b][blockHolders])
	}
	s.head = newHead(s.n, s.landmarks, s.ct, s.owned)
	s.seal(true)
	return nil
}

// restrictBlock returns blk, the block of holders first+1 onward, with the
// rows of holders outside owned emptied: blk itself when it keeps every
// entry, emptyBlock when it keeps none.
func restrictBlock(blk []int32, first int, owned *keyspace.Set) []int32 {
	c, keep := blk[blockHolders], int32(0)
	starts := make([]int32, blockHolders+1)
	for i := 0; i < blockHolders; i++ {
		if owned.Has(first + i + 1) {
			keep += blk[i+1] - blk[i]
		}
		starts[i+1] = keep
	}
	if keep == c {
		return blk
	}
	if keep == 0 {
		return emptyBlock
	}
	out := make([]int32, blockHolders+1+3*int(keep))
	copy(out, starts)
	e, o := blk[blockHolders+1:], out[blockHolders+1:]
	for f := int32(0); f < 3; f++ {
		for i := 0; i < blockHolders; i++ {
			if starts[i+1] > starts[i] {
				copy(o[f*keep+starts[i]:], e[f*c+blk[i]:f*c+blk[i+1]])
			}
		}
	}
	return out
}

// ownedRows returns the lmPort row index of a restriction to owned: owned
// nodes take rows in ascending order, the others −1. It is nil for nil.
func ownedRows(owned *keyspace.Set) []int32 {
	if owned == nil {
		return nil
	}
	rows := make([]int32, owned.N()+1)
	r := int32(0)
	for u := 1; u <= owned.N(); u++ {
		rows[u] = -1
		if owned.Has(u) {
			rows[u] = r
			r++
		}
	}
	return rows
}

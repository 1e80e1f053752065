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
// every node outside owned, moving the scheme to a version-4 blob. It
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
	// Owned rows keep their order and their entries, so the result is
	// deterministic.
	ct := 0
	for u := 1; u <= s.n; u++ {
		if owned.Has(u) {
			ct += full.ClusterSize(u)
		}
	}
	s.clusterStart = make([]int32, s.n+1)
	s.clusterDst = make([]int32, 0, ct)
	s.clusterPort = make([]int32, 0, ct)
	s.clusterDist = make([]int32, 0, ct)
	for u := 1; u <= s.n; u++ {
		if owned.Has(u) {
			lo, hi := full.clusterStart[u-1], full.clusterStart[u]
			s.clusterDst = append(s.clusterDst, full.clusterDst[lo:hi]...)
			s.clusterPort = append(s.clusterPort, full.clusterPort[lo:hi]...)
			s.clusterDist = append(s.clusterDist, full.clusterDist[lo:hi]...)
		}
		s.clusterStart[u] = int32(len(s.clusterDst))
	}
	s.setTables(newTables(s.n, s.landmarks, ct, s.owned))
	copy(s.homeIdx, full.homeIdx)
	copy(s.homeDist, full.homeDist)
	copy(s.eport, full.eport)
	copy(s.lmDist, full.lmDist)
	rowLen := 2 * s.k
	for u := 1; u <= s.n; u++ {
		if r := s.portRow[u]; r >= 0 {
			copy(s.lmPort[int(r)*rowLen:], full.lmPort[(u-1)*rowLen:u*rowLen])
		}
	}
	s.encodeClusters()
	return nil
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

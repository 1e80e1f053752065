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
// every node outside owned, in place. It applies to a freshly built,
// unrestricted scheme exactly once — re-restricting a restricted scheme would
// silently compound ownership, so it errors instead. The result is a pure
// function of (built scheme, owned): two members of the same group restrict
// identical builds to byte-identical encodings.
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
	for u := 1; u <= s.n; u++ {
		if owned.Has(u) {
			continue
		}
		row := s.lmPort[(u-1)*s.k : u*s.k]
		for i := range row {
			row[i] = 0
		}
	}
	// Rebuild the cluster CSR keeping only owned rows; entry order within a
	// row is unchanged, so the result is deterministic.
	ct := 0
	for u := 1; u <= s.n; u++ {
		if owned.Has(u) {
			ct += int(s.clusterStart[u] - s.clusterStart[u-1])
		}
	}
	dst := make([]int32, 0, ct)
	port := make([]int32, 0, ct)
	dist := make([]int32, 0, ct)
	start := make([]int32, s.n+1)
	for u := 1; u <= s.n; u++ {
		if owned.Has(u) {
			lo, hi := s.clusterStart[u-1], s.clusterStart[u]
			dst = append(dst, s.clusterDst[lo:hi]...)
			port = append(port, s.clusterPort[lo:hi]...)
			dist = append(dist, s.clusterDist[lo:hi]...)
		}
		start[u] = int32(len(dst))
	}
	s.clusterStart, s.clusterDst, s.clusterPort, s.clusterDist = start, dst, port, dist
	s.owned = owned.Clone()
	return nil
}

//rt:hotpath — landmark lookup path: every function here runs inside the
// serving engine's zero-alloc batch loop (serve/hot.go) and must not
// allocate, format strings on success paths, or range over maps.

package landmark

import (
	"fmt"

	"routetab/internal/routing"
)

// Route implements routing.Scheme. Cases, in order:
//
//  1. dest is a neighbour — model-II check, exact;
//  2. dest is in u's cluster table — stored first hop, exact from here on;
//  3. u is dest's landmark — the label's eport points into dest's cluster;
//  4. forward toward dest's landmark via the landmark table.
//
// Cases 1–3 strictly decrease d(·, dest); case 4 strictly decreases
// d(·, ℓ(dest)) and can only repeat until the landmark (or dest's cluster) is
// reached, so routes are loop-free with stretch ≤ 3.
func (s *Scheme) Route(u int, env routing.Env, dest routing.Label, hdr uint64, _ int) (int, uint64, error) {
	v := dest.ID
	if u < 1 || u > s.n || v < 1 || v > s.n || len(dest.Aux) != 2 {
		return 0, 0, fmt.Errorf("%w: %d -> %v", routing.ErrBadDestination, u, dest.ID)
	}
	if s.owned != nil && !s.owned.Has(u) {
		// Restricted scheme: u's per-source tables were dropped. The serving
		// layer rejects non-owned sources before routing; this guard keeps a
		// mis-shard from silently forwarding on zeroed tables.
		return 0, 0, fmt.Errorf("%w: %d", ErrNotOwned, u)
	}
	if port, ok := env.PortOfNeighbor(v); ok {
		return port, hdr, nil
	}
	if port := s.clusterPortTo(u, v); port > 0 {
		return int(port), hdr, nil
	}
	lm := dest.Aux[0]
	if u == lm {
		// We are dest's landmark: eport is the first hop of a shortest path
		// toward dest, whose next node lies inside dest's cluster.
		return dest.Aux[1], hdr, nil
	}
	if lm < 1 || lm > s.n || s.lmIdx[lm] < 0 {
		return 0, 0, fmt.Errorf("%w: label names non-landmark %d", routing.ErrBadDestination, lm)
	}
	port := s.lmPort.at(s.portRowOf(u), int(s.lmIdx[lm]))
	if port <= 0 {
		return 0, 0, fmt.Errorf("%w: %d -> %d via landmark %d", routing.ErrNoRoute, u, v, lm)
	}
	return int(port), hdr, nil
}

// clusterPortTo binary-searches u's cluster row for destination v and returns
// the stored port, or 0 on a miss.
func (s *Scheme) clusterPortTo(u, v int) int32 {
	blk, i := s.cluster.blocks[(u-1)>>blockShift], (u-1)&(blockHolders-1)
	lo, hi := blk[i], blk[i+1]
	e := blk[blockHolders+1:]
	t := int32(v)
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		if d := e[mid]; d == t {
			return e[mid+blk[blockHolders]]
		} else if d < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return 0
}

// clusterDistTo binary-searches u's cluster row for v's exact distance, or 0
// on a miss (stored entries always have distance ≥ 2).
func (s *Scheme) clusterDistTo(u, v int) int32 {
	blk, i := s.cluster.blocks[(u-1)>>blockShift], (u-1)&(blockHolders-1)
	lo, hi := blk[i], blk[i+1]
	e := blk[blockHolders+1:]
	t := int32(v)
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		if d := e[mid]; d == t {
			return e[mid+2*blk[blockHolders]]
		} else if d < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return 0
}

// EstimateDist returns an upper bound on d(u, v) computable from the tables
// alone, allocation-free: exact on a cluster hit in either direction,
// otherwise the better of the two landmark detours (≤ 3·d(u,v) whenever
// neither node clusters the other; callers wanting d = 1 exact must check
// adjacency themselves — serve.Snapshot.DistEstimate does).
func (s *Scheme) EstimateDist(u, v int) int {
	if u == v {
		return 0
	}
	if u < 1 || u > s.n || v < 1 || v > s.n {
		return -1
	}
	if d := s.clusterDistTo(u, v); d > 0 {
		return int(d)
	}
	if d := s.clusterDistTo(v, u); d > 0 {
		return int(d)
	}
	est := s.lmDist.at(u-1, int(s.homeIdx.cell(v-1))) + s.homeDist.cell(v-1)
	if alt := s.lmDist.at(v-1, int(s.homeIdx.cell(u-1))) + s.homeDist.cell(u-1); alt < est {
		est = alt
	}
	return int(est)
}

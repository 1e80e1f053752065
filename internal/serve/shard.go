// Keyspace-restricted serving: a shard group answers lookups only for source
// nodes it owns. The engine carries the intended owned set; on the tables
// tier every rebuild restricts the freshly built scheme (dropping non-owned
// per-source rows before encoding, so persisted and shipped state shrinks
// with the shard), while on the full tier the matrix stays whole and
// ownership is enforced at answer time only. Either way the published
// snapshot knows its owned set and the hot path refuses foreign sources with
// ErrWrongShard — an honest, allocation-free redirect signal the shard router
// (internal/cluster/shard) turns into "try the owning group".
package serve

import (
	"errors"
	"fmt"

	"routetab/internal/graph"
	"routetab/internal/keyspace"
)

// ErrWrongShard reports a lookup whose source node is outside the serving
// group's owned keyspace. The answer is definite — this member will never
// own the source until a rebalance says so — and carries no routing
// information; the caller must re-ask the owning shard group.
var ErrWrongShard = errors.New("serve: source not owned by this shard")

// Restricter is implemented by table schemes that can drop non-owned
// per-source rows (e.g. landmark.Scheme.Restrict). The tables tier requires
// it when an engine is given an owned set.
type Restricter interface {
	Restrict(owned *keyspace.Set) error
}

// Owned returns the snapshot's owned source set, or nil when the snapshot
// serves every source.
func (s *Snapshot) Owned() *keyspace.Set { return s.owned }

// Owned returns the engine's current owned source set (nil = unrestricted).
// The returned set is shared and must be treated as read-only.
func (e *Engine) Owned() *keyspace.Set {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.owned
}

// NewShardEngine builds an engine whose snapshots serve only the owned
// sources, at either tier. owned == nil degrades to NewEngine /
// NewTieredEngine. On the tables tier the built scheme must implement
// Restricter; the restriction happens before encoding, so the snapshot's
// table blob (what replication ships and resync re-sends) contains only the
// owned rows.
func NewShardEngine(g *graph.Graph, schemeName, tier string, owned *keyspace.Set) (*Engine, error) {
	switch tier {
	case TierFull:
		if !KnownScheme(schemeName) {
			return nil, fmt.Errorf("serve: unknown scheme %q (have %v)", schemeName, SchemeNames())
		}
	case TierTables:
		if !TableCapable(schemeName) {
			return nil, fmt.Errorf("serve: scheme %q cannot serve the tables tier", schemeName)
		}
	default:
		return nil, fmt.Errorf("serve: unknown tier %q", tier)
	}
	if owned != nil {
		if owned.N() != g.N() {
			return nil, fmt.Errorf("serve: owned set over n=%d, graph has n=%d", owned.N(), g.N())
		}
		owned = owned.Clone()
	}
	e := &Engine{
		g:      g.Clone(),
		scheme: schemeName,
		tier:   tier,
		owned:  owned,
	}
	if _, err := e.rebuildLocked(); err != nil {
		return nil, err
	}
	return e, nil
}

// MutateOwned is Mutate with an ownership change in the same publication:
// the snapshot built from the (optionally) mutated topology is restricted to
// owned (nil = lift the restriction). Replicas replay shard rebalances
// through here, so the ownership handover and the topology it applies to
// publish atomically — there is no window serving the old keyspace on the
// new tables.
func (e *Engine) MutateOwned(owned *keyspace.Set, fn func(g *graph.Graph) error) (*Snapshot, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if owned != nil {
		if owned.N() != e.g.N() {
			return nil, fmt.Errorf("serve: owned set over n=%d, graph has n=%d", owned.N(), e.g.N())
		}
		owned = owned.Clone()
	}
	next := e.g.Clone()
	if fn != nil {
		if err := fn(next); err != nil {
			return nil, err
		}
	}
	oldG, oldOwned := e.g, e.owned
	e.g, e.owned = next, owned
	snap, err := e.rebuildLocked()
	if err != nil {
		e.g, e.owned = oldG, oldOwned
		return nil, err
	}
	return snap, nil
}

// SetOwned republishes the current topology restricted to owned — the
// shard-split handover step on the donor group.
func (e *Engine) SetOwned(owned *keyspace.Set) (*Snapshot, error) {
	return e.MutateOwned(owned, nil)
}

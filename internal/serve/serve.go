// Package serve is the online query layer over the repo's routing schemes:
// where core.Build constructs a table offline and Verify measures it once,
// serve keeps a built table resident in memory and answers "next port toward
// v" queries under concurrent load — the workload the paper's Θ(n²)-bit
// object (Theorem 1) and its stretch/space relatives (Theorems 3–5) exist
// for.
//
// The package splits into three pieces:
//
//   - Snapshot: one immutable, versioned view of (graph, ports, scheme,
//     distances). All query state hangs off a single pointer, so a reader
//     that has acquired a snapshot can never observe a half-updated table.
//   - Engine: owns the current snapshot behind an atomic pointer. Topology
//     changes clone the graph, rebuild scheme + distances off the hot path
//     (updated from the current snapshot's after a one-edge flip), and
//     publish the finished snapshot with one atomic store — readers are
//     never blocked by a rebuild.
//   - Server (server.go): the sharded, batching lookup front end.
//
// Rebuilds follow the determinism contract of DESIGN.md §8: a snapshot's
// tables are a pure function of (topology, scheme name), so two engines fed
// the same mutation sequence publish byte-identical tables.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"routetab/internal/graph"
	"routetab/internal/keyspace"
	"routetab/internal/routing"
	"routetab/internal/shortestpath"
)

// Errors.
var (
	// ErrOverloaded indicates a lookup was shed because its shard queue was
	// full (explicit backpressure, never silent drops). Sheds carry a
	// *OverloadedError with a retry-after hint; errors.Is against this
	// sentinel matches both forms.
	ErrOverloaded = errors.New("serve: server overloaded, lookup rejected")
	// ErrClosed indicates a lookup arrived after Close started draining.
	ErrClosed = errors.New("serve: server closed")
	// ErrSelfLookup indicates src == dst (there is no next hop to yourself).
	ErrSelfLookup = errors.New("serve: source equals destination")
	// ErrUnavailable indicates a lookup that could not be answered even in
	// degraded mode: the destination (or every candidate detour) is behind
	// failed links or crashed nodes the repairer has not yet routed around.
	// Temporary by construction — repair or rebuild clears it.
	ErrUnavailable = errors.New("serve: temporarily unavailable, no live route")
	// ErrPanicked indicates the lookup's worker panicked mid-answer. The
	// batch fails, the shard worker survives, and the caller gets a definite
	// per-pair answer instead of a hung WaitGroup.
	ErrPanicked = errors.New("serve: lookup worker panicked")
)

// OverloadedError is the structured form of a shed: which shard rejected the
// lookup and a heuristic hint for how long the caller should back off before
// retrying (a full-queue drain estimate from the shard's recent service
// rate). It matches errors.Is(err, ErrOverloaded), so existing callers keep
// working; callers that care unwrap with errors.As.
type OverloadedError struct {
	Shard      int
	RetryAfter time.Duration
}

// Error implements error.
func (e *OverloadedError) Error() string {
	return fmt.Sprintf("serve: shard %d overloaded, retry after %v", e.Shard, e.RetryAfter)
}

// Is reports equivalence to the ErrOverloaded sentinel.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// Snapshot tiers: what a snapshot carries as its distance side-channel.
const (
	// TierFull snapshots carry the O(n²) packed all-pairs matrix — exact
	// distances, exhaustive grading, the classic regime (n ≤ ~4096).
	TierFull = "full"
	// TierTables snapshots carry the compact scheme's own tables instead of
	// the matrix: o(n²) space, distances served as stretch-bounded estimates,
	// answers verified by spot-sampling. The large-graph regime.
	TierTables = "tables"
)

// Router is the uniform query interface every built scheme serves behind:
// queries address nodes by their original index, and label translation (e.g.
// interval routing's DFS renumbering) happens inside.
type Router interface {
	// SchemeName identifies the construction answering queries.
	SchemeName() string
	// N returns the number of nodes covered.
	N() int
	// NextHop returns the neighbour src forwards to on its route to dst.
	NextHop(src, dst int) (int, error)
	// Route runs the full local-function route and returns its trace.
	Route(src, dst int) (*routing.Trace, error)
}

// Snapshot is one immutable serving view: the graph at a fixed version, its
// port assignment, the built scheme, the all-pairs matrix, and the reference
// simulator that executes the scheme's local functions. Snapshots are
// published whole via an atomic pointer and never mutated afterwards.
type Snapshot struct {
	// Seq is the engine-local publication sequence, starting at 1. A reader
	// holding two results can totally order the snapshots that served them.
	Seq uint64
	// Scheme is the construction name (see SchemeNames).
	Scheme string
	// Graph is the topology this snapshot serves. Treat as read-only.
	Graph *graph.Graph
	// Ports is the port assignment the tables were built against: always
	// graph.SortedPorts(Graph), so the arena does not store it.
	Ports *graph.Ports
	// Dist is the all-pairs ground truth for this topology. Nil on TierTables
	// snapshots — use DistEstimate, which degrades to the scheme's own
	// stretch-bounded upper bounds.
	Dist *shortestpath.Distances
	// Tier is TierFull or TierTables (Dist == nil ⇔ TierTables).
	Tier string

	scheme   routing.Scheme
	sim      *routing.Sim
	hopLimit int
	// tables is the scheme on TierTables snapshots, nil on TierFull: the
	// distance estimator, and the tables the arena persists in place of the
	// matrix, assembled when a reader asks.
	tables TableScheme
	// owned restricts the sources this snapshot serves (shard.go); nil means
	// every source. The hot path answers foreign sources with ErrWrongShard.
	owned *keyspace.Set
}

var _ Router = (*Snapshot)(nil)

// SchemeName returns the construction name.
func (s *Snapshot) SchemeName() string { return s.Scheme }

// SchemeImpl returns the routing-scheme object backing this snapshot, for
// callers that need scheme-specific introspection (landmark count, space
// accounting) beyond the routing.Scheme surface.
func (s *Snapshot) SchemeImpl() routing.Scheme { return s.scheme }

// N returns the node count.
func (s *Snapshot) N() int { return s.Graph.N() }

// NextHop asks src's local routing function for its forwarding decision
// toward dst and returns the neighbour behind the chosen port.
func (s *Snapshot) NextHop(src, dst int) (int, error) {
	if src == dst {
		return 0, fmt.Errorf("%w: %d", ErrSelfLookup, src)
	}
	return s.sim.FirstHop(src, dst)
}

// Route runs the full route src→dst under the snapshot's hop limit.
func (s *Snapshot) Route(src, dst int) (*routing.Trace, error) {
	if src == dst {
		return nil, fmt.Errorf("%w: %d", ErrSelfLookup, src)
	}
	return s.sim.RouteByNode(src, dst, s.hopLimit)
}

// SpaceBits returns the scheme's total storage under its own model-free
// accounting (Σ|F(u)|): the table-residency figure the daemon reports.
func (s *Snapshot) SpaceBits() int {
	total := 0
	for u := 1; u <= s.scheme.N(); u++ {
		total += s.scheme.FunctionBits(u)
	}
	return total
}

// TablesBytes assembles the snapshot's persisted table encoding (TierTables
// only; nil on TierFull). Every call assembles a fresh slice.
func (s *Snapshot) TablesBytes() []byte {
	if s.tables == nil {
		return nil
	}
	return s.tables.EncodeTables()
}

// TablesCRC returns the tables fingerprint of a TierTables snapshot, stored
// with its scheme: O(1). It is 0 on TierFull.
func (s *Snapshot) TablesCRC() uint32 {
	if s.tables == nil {
		return 0
	}
	return s.tables.TablesCRC()
}

// RehashTables recomputes the tables fingerprint of a TierTables snapshot
// from the bytes of its tables, trusting no stored CRC. It is 0 on TierFull.
func (s *Snapshot) RehashTables() uint32 {
	if s.tables == nil {
		return 0
	}
	return s.tables.RehashTables()
}

// ArenaSize returns the exact byte size this snapshot occupies in its arena
// encoding — the snapshot_bytes gauge, computed from the layout arithmetic
// without encoding anything.
func (s *Snapshot) ArenaSize() int {
	dataLen := s.Graph.N() * s.Graph.N()
	if s.Dist == nil {
		dataLen = s.tables.TablesLen()
	}
	_, _, total := arenaLayout(s.Graph.N(), s.Graph.Words(), dataLen, len(s.Scheme))
	return total
}

// PublishHook observes every snapshot publication: prev is the snapshot that
// was current before the swap (nil for the engine's very first build) and cur
// the one just published. The hook runs under the engine's mutation lock, so
// invocations are totally ordered by publication and must not call back into
// Mutate/Reload; keep it fast (the replication layer appends one WAL record).
type PublishHook func(prev, cur *Snapshot)

// Engine owns the mutable topology and the atomically-published current
// snapshot. All mutations serialise on an internal mutex (rebuilds are the
// slow path); readers only ever touch the atomic pointer.
type Engine struct {
	mu     sync.Mutex // serialises Mutate/Reload and guards persistPath, hook
	g      *graph.Graph
	scheme string
	// tier selects what snapshots carry: TierFull (all-pairs matrix) or
	// TierTables (the compact scheme's own tables). Set at construction,
	// immutable afterwards.
	tier  string
	cur   atomic.Pointer[Snapshot]
	swaps atomic.Uint64
	hook  PublishHook
	// incremental and full count published rebuilds by how the snapshot was
	// made: updated from the previous snapshot's across a one-edge flip, or
	// built from scratch.
	incremental, full atomic.Uint64
	// owned is the keyspace shard this engine serves (shard.go); nil means
	// unrestricted. Guarded by mu; every rebuild snapshots it.
	owned *keyspace.Set

	// Crash-safe persistence (EnablePersist): every published snapshot is
	// saved to persistPath via an atomic temp-file rename. A failed save
	// never blocks publication — serving availability beats durability —
	// but is recorded for the daemon to surface.
	persistPath     string
	persists        atomic.Uint64
	persistFailures atomic.Uint64
	persistErr      atomic.Pointer[error]
}

// NewEngine builds the first snapshot of g under the named scheme and returns
// the engine serving it. The engine clones g, so later caller-side mutations
// of g do not corrupt published snapshots; change topology through Mutate.
func NewEngine(g *graph.Graph, schemeName string) (*Engine, error) {
	if !KnownScheme(schemeName) {
		return nil, fmt.Errorf("serve: unknown scheme %q (have %v)", schemeName, SchemeNames())
	}
	e := &Engine{
		g:      g.Clone(),
		scheme: schemeName,
		tier:   TierFull,
	}
	if _, err := e.rebuildLocked(); err != nil {
		return nil, err
	}
	return e, nil
}

// NewTieredEngine builds a TierTables engine: snapshots carry the named
// compact scheme's tables instead of the all-pairs matrix, and rebuilds never
// touch the O(n²) distance computation — the large-graph serving mode
// (n = 4096–16384, where the matrix alone would cost up to 256 MB and its
// recompute would dominate every mutation).
func NewTieredEngine(g *graph.Graph, schemeName string) (*Engine, error) {
	if !TableCapable(schemeName) {
		return nil, fmt.Errorf("serve: scheme %q cannot serve the tables tier", schemeName)
	}
	e := &Engine{
		g:      g.Clone(),
		scheme: schemeName,
		tier:   TierTables,
	}
	if _, err := e.rebuildLocked(); err != nil {
		return nil, err
	}
	return e, nil
}

// Current returns the serving snapshot. The returned snapshot stays valid
// (and internally consistent) forever; it just stops being current after the
// next swap.
func (e *Engine) Current() *Snapshot { return e.cur.Load() }

// Swaps returns how many snapshots have been published (initial build
// included).
func (e *Engine) Swaps() uint64 { return e.swaps.Load() }

// Rebuilds reports how many published snapshots, on either tier, were
// updated from the previous snapshot across a one-edge flip (incremental)
// and how many were built in full.
func (e *Engine) Rebuilds() (incremental, full uint64) {
	return e.incremental.Load(), e.full.Load()
}

// Scheme returns the construction name the engine builds.
func (e *Engine) Scheme() string { return e.scheme }

// Tier reports the engine's snapshot tier (TierFull or TierTables).
func (e *Engine) Tier() string { return e.tier }

// Mutate applies fn to a private clone of the current topology, rebuilds
// scheme and distances off the hot path, and atomically publishes the result.
// Queries proceed uninterrupted on the old snapshot throughout; on any error
// (fn itself, or a scheme that cannot be built on the mutated topology —
// e.g. a disconnecting edge removal) nothing is published and the old
// snapshot stays current.
func (e *Engine) Mutate(fn func(g *graph.Graph) error) (*Snapshot, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	next := e.g.Clone()
	if fn != nil {
		if err := fn(next); err != nil {
			return nil, err
		}
	}
	old := e.g
	e.g = next
	snap, err := e.rebuildLocked()
	if err != nil {
		e.g = old
		return nil, err
	}
	return snap, nil
}

// Reload rebuilds and republishes the current topology unchanged — a pure
// hot swap (new tables, same answers), useful for exercising swap paths and
// for picking up builder changes in tests.
func (e *Engine) Reload() (*Snapshot, error) { return e.Mutate(nil) }

// SetPublishHook installs (or, with nil, removes) the publication observer.
// Install it before concurrent mutations start; snapshots already published
// are not replayed — the caller reads Current() for the base state.
func (e *Engine) SetPublishHook(h PublishHook) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.hook = h
}

// EnablePersist saves the current snapshot to path now and every later
// published snapshot as it is swapped in. The first save's error is returned
// (a broken path should fail loudly at setup); later save failures are
// recorded (PersistStats) without blocking publication.
func (e *Engine) EnablePersist(path string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.persistPath = path
	return e.saveLocked(e.cur.Load())
}

// DisablePersist stops saving published snapshots. It waits for any in-flight
// mutation (and its save) to finish, so after it returns the engine writes to
// the file no more — the handover point when another engine takes over the
// path after a restore.
func (e *Engine) DisablePersist() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.persistPath = ""
}

// FlushPersist saves the current snapshot now, regardless of when the last
// publication happened — the shutdown path's final flush, so a daemon that
// exits on SIGTERM leaves the freshest snapshot on disk even when the last
// publish-time save failed transiently. A no-op without persistence enabled.
func (e *Engine) FlushPersist() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.saveLocked(e.cur.Load())
}

// PersistStats reports persistence health: successful saves, failed saves,
// and the most recent failure (nil when none).
func (e *Engine) PersistStats() (saves, failures uint64, last error) {
	if p := e.persistErr.Load(); p != nil {
		last = *p
	}
	return e.persists.Load(), e.persistFailures.Load(), last
}

// saveLocked persists snap if persistence is enabled. Caller holds e.mu.
func (e *Engine) saveLocked(snap *Snapshot) error {
	if e.persistPath == "" || snap == nil {
		return nil
	}
	if err := SaveSnapshot(e.persistPath, snap); err != nil {
		e.persistFailures.Add(1)
		e.persistErr.Store(&err)
		return err
	}
	e.persists.Add(1)
	return nil
}

// rebuildLocked builds a snapshot from e.g and publishes it. Caller holds
// e.mu.
func (e *Engine) rebuildLocked() (*Snapshot, error) {
	g := e.g
	ports := graph.SortedPorts(g)
	var (
		dm          *shortestpath.Distances
		scheme      routing.Scheme
		tables      TableScheme
		incremental bool
	)
	if e.tier == TierTables {
		// The tables tier never computes all-pairs distances: the scheme
		// builds from topology alone. Nothing is encoded here: persistence
		// and state shipping assemble the deterministic blob when they read
		// it, and the snapshot_bytes gauge takes its length by arithmetic.
		ts, inc, err := e.tableSchemeLocked(g, ports)
		if err != nil {
			return nil, err
		}
		scheme, tables, incremental = ts, ts, inc
	} else {
		var err error
		dm, scheme, incremental, err = e.fullSchemeLocked(g, ports)
		if err != nil {
			return nil, err
		}
	}
	sim, err := routing.NewSim(g, ports, scheme)
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{
		Seq:      e.swaps.Load() + 1,
		Scheme:   e.scheme,
		Graph:    g,
		Ports:    ports,
		Dist:     dm,
		Tier:     e.tier,
		scheme:   scheme,
		sim:      sim,
		hopLimit: routing.DefaultHopLimit(g.N()),
		tables:   tables,
		owned:    e.owned,
	}
	prev := e.cur.Load()
	e.cur.Store(snap)
	e.swaps.Add(1)
	if incremental {
		e.incremental.Add(1)
	} else {
		e.full.Add(1)
	}
	// The hook (WAL journaling) runs before the snapshot save so the durable
	// WAL frontier never trails the persisted snapshot Seq — crash recovery
	// relies on replaying the WAL forward from the snapshot, never backward.
	if e.hook != nil {
		e.hook(prev, snap)
	}
	// Durability follows publication: a save failure is recorded, not fatal
	// (the previous good file stays in place thanks to the atomic rename).
	_ = e.saveLocked(snap)
	return snap, nil
}

// tableSchemeLocked makes the tables-tier scheme for g, restricted to the
// engine's owned set, and reports whether it was updated incrementally. It
// updates the current snapshot's scheme when g differs from that snapshot's
// graph by exactly one edge and the owned set is unchanged; first builds,
// multi-edge changes, ownership handovers and a failed update all build in
// full, which stays the reference the update must equal byte for byte.
// Caller holds e.mu.
func (e *Engine) tableSchemeLocked(g *graph.Graph, ports *graph.Ports) (TableScheme, bool, error) {
	if update := tableBuilders[e.scheme].update; update != nil {
		if cur, x, y, ok := e.oneFlipLocked(g); ok {
			if ts, err := update(cur, g, ports, x, y); err == nil {
				return ts, true, nil
			}
		}
	}
	ts, err := BuildTableScheme(e.scheme, g, ports)
	if err != nil {
		return nil, false, err
	}
	if e.owned != nil {
		// Restriction happens before encoding: the snapshot's table blob —
		// what persistence, state shipping, and resync all carry — holds
		// only the owned rows, so per-shard resync bytes shrink with the
		// shard instead of shipping the whole scheme.
		r, ok := ts.(Restricter)
		if !ok {
			return nil, false, fmt.Errorf("serve: scheme %q cannot restrict to a keyspace shard", e.scheme)
		}
		if err := r.Restrict(e.owned); err != nil {
			return nil, false, err
		}
	}
	return ts, false, nil
}

// fullSchemeLocked makes the full-tier matrix and scheme for g, and reports
// whether they were updated incrementally. When g differs from the current
// snapshot's graph by exactly one edge and the owned set is unchanged, it
// updates the current matrix (shortestpath.Update) and then the scheme,
// through its registered update or, lacking one, a build on the updated
// matrix; no scheme pays for AllPairs on a flip. First builds, multi-edge
// changes, ownership handovers and any error take the full path, AllPairs
// and BuildScheme, which stays the reference the update must equal byte for
// byte. Caller holds e.mu.
func (e *Engine) fullSchemeLocked(g *graph.Graph, ports *graph.Ports) (*shortestpath.Distances, routing.Scheme, bool, error) {
	if cur, x, y, ok := e.oneFlipLocked(g); ok && cur.Dist != nil {
		if dm, changed, err := shortestpath.Update(cur.Dist, g, x, y); err == nil {
			var scheme routing.Scheme
			if update := builders[e.scheme].update; update != nil {
				scheme, err = update(cur, dm, changed, g, ports, x, y)
			} else {
				scheme, err = BuildScheme(e.scheme, g, ports, dm)
			}
			if err == nil {
				return dm, scheme, true, nil
			}
		}
	}
	dm, err := shortestpath.AllPairs(g)
	if err != nil {
		return nil, nil, false, err
	}
	scheme, err := BuildScheme(e.scheme, g, ports, dm)
	if err != nil {
		return nil, nil, false, err
	}
	return dm, scheme, false, nil
}

// oneFlipLocked returns the current snapshot and the edge {x,y} when g
// differs from that snapshot's graph by exactly that edge and the owned set
// is unchanged: the case in which the next snapshot is derived from the
// current one. Caller holds e.mu.
func (e *Engine) oneFlipLocked(g *graph.Graph) (cur *Snapshot, x, y int, ok bool) {
	cur = e.cur.Load()
	if cur == nil || !cur.Owned().Equal(e.owned) {
		return nil, 0, 0, false
	}
	adds, removes := graph.Diff(cur.Graph, g)
	if len(adds)+len(removes) != 1 {
		return nil, 0, 0, false
	}
	flip := append(adds, removes...)[0]
	return cur, flip[0], flip[1], true
}

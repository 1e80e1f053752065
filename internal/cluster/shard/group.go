// The control plane of an in-process partitioned cluster: a shard.Cluster
// owns one replicated Group per shard (each an ordinary cluster.Primary plus
// replicas, restricted to the group's keyspace) and the scatter-gather
// Router in front of them. Topology churn fans to every group — the groups
// serve one shared topology, differing only in which sources they own — and
// a live Split carves a new group out of an existing one while lookups and
// churn continue: snapshot transfer, WAL catch-up, a dual-read handoff
// window, and an atomic map swap under the churn lock. The source group
// sheds the moved keys through one RecOwned WAL record, so its replicas
// follow the handover by log shipping, never by resync.
package shard

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"

	"routetab/internal/cluster"
	"routetab/internal/graph"
	"routetab/internal/serve"
)

// ClusterOptions configures NewCluster.
type ClusterOptions struct {
	// Scheme is the compact scheme groups build (default "landmark").
	Scheme string
	// Tier is serve.TierTables (default) or serve.TierFull.
	Tier string
	// Replicas is the replica count per group (default 1).
	Replicas int
	// Server configures every member's lookup server.
	Server serve.ServerOptions
	// Replica configures every replica (its Server field is overridden).
	Replica cluster.ReplicaOptions
	// GroupRouter configures each group's internal failover router.
	GroupRouter cluster.RouterOptions
	// Front configures the scatter-gather router.
	Front RouterOptions
	// WrapSource, if set, wraps the replication feed each replica consumes
	// (chaos gates, wire corruption). name identifies the member.
	WrapSource func(group int, name string, s cluster.Source) cluster.Source
	// WrapBackend, if set, wraps each member's lookup backend (chaos gates).
	WrapBackend func(group int, name string, b cluster.Backend) cluster.Backend
	// StartReplicas runs each replica's background sync loop. Leave false
	// for deterministic tests that drive Sync explicitly.
	StartReplicas bool
}

func (o *ClusterOptions) setDefaults() {
	if o.Scheme == "" {
		o.Scheme = "landmark"
	}
	if o.Tier == "" {
		o.Tier = serve.TierTables
	}
	if o.Replicas <= 0 {
		o.Replicas = 1
	}
}

// retargetableSource lets a replica's feed follow a promotion: the cluster
// repoints survivors at the new primary without rejoining them.
type retargetableSource struct {
	mu     sync.Mutex
	target cluster.Source
}

func (s *retargetableSource) get() cluster.Source {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.target
}

func (s *retargetableSource) set(t cluster.Source) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.target = t
}

func (s *retargetableSource) FetchState() (*cluster.State, error) { return s.get().FetchState() }
func (s *retargetableSource) FetchWAL(after uint64) (*cluster.WALBatch, error) {
	return s.get().FetchWAL(after)
}
func (s *retargetableSource) FetchDigest() (cluster.Digest, error) { return s.get().FetchDigest() }

// localBackend answers lookups straight off a member's in-process server.
type localBackend struct {
	name string
	srv  *serve.Server
}

func (b *localBackend) Name() string { return b.name }
func (b *localBackend) Lookup(src, dst int) (serve.Result, error) {
	return b.srv.NextHop(src, dst), nil
}

// LookupBatch implements cluster.BatchBackend: the whole sub-batch goes to
// the member's server in one call.
func (b *localBackend) LookupBatch(pairs [][2]int, out []serve.Result) error {
	return b.srv.LookupBatch(pairs, out)
}

// member is one serving seat in a group.
type member struct {
	name    string
	srv     *serve.Server
	backend cluster.Backend
	replica *cluster.Replica    // nil for the primary seat
	source  *retargetableSource // nil for the primary seat
}

// Group is one replicated shard: a primary, its replicas, and the failover
// router the front fans into.
type Group struct {
	ID      int
	Primary *cluster.Primary
	Router  *cluster.Router
	members []*member
}

// Replicas returns the group's live replicas.
func (g *Group) Replicas() []*cluster.Replica {
	var out []*cluster.Replica
	for _, m := range g.members {
		if m.replica != nil {
			out = append(out, m.replica)
		}
	}
	return out
}

func (g *Group) backends() []cluster.Backend {
	out := make([]cluster.Backend, len(g.members))
	for i, m := range g.members {
		out[i] = m.backend
	}
	return out
}

// Cluster is the in-process control plane of a partitioned cluster.
type Cluster struct {
	opts ClusterOptions

	// mu is the churn lock: mutations, splits, and promotions serialise
	// here so a split's cutover sees a quiescent WAL frontier.
	mu        sync.Mutex
	smap      *Map
	groups    map[int]*Group
	front     *Router
	splitting bool
	closed    bool
}

// NewCluster builds a partitioned cluster over topology g under placement m:
// every group gets its own copy of the topology, restricted to the keyspace
// the map assigns it, plus opts.Replicas replicas joined by state transfer.
func NewCluster(g *graph.Graph, m *Map, opts ClusterOptions) (*Cluster, error) {
	opts.setDefaults()
	if m == nil {
		return nil, fmt.Errorf("%w: nil map", ErrBadMap)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	if m.N != g.N() {
		return nil, fmt.Errorf("%w: map over %d nodes, graph has %d", ErrBadMap, m.N, g.N())
	}
	c := &Cluster{opts: opts, smap: m, groups: make(map[int]*Group, m.Groups)}
	groupRouters := make(map[int]*cluster.Router, m.Groups)
	for id := 0; id < m.Groups; id++ {
		owned, err := m.OwnedSet(id)
		if err != nil {
			c.Close()
			return nil, err
		}
		eng, err := serve.NewShardEngine(g.Clone(), opts.Scheme, opts.Tier, owned)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("shard: group %d: %w", id, err)
		}
		grp, err := c.newGroup(id, eng)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.groups[id] = grp
		groupRouters[id] = grp.Router
	}
	front, err := NewRouter(m, groupRouters, opts.Front)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.front = front
	return c, nil
}

// newGroup assembles one group over an already-restricted engine: server,
// primary, replicas, failover router.
func (c *Cluster) newGroup(id int, eng *serve.Engine) (*Group, error) {
	srv := serve.NewServer(eng, c.opts.Server)
	p, err := cluster.NewPrimary(eng, srv, nil, 1)
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("shard: group %d primary: %w", id, err)
	}
	grp := &Group{ID: id, Primary: p}
	pname := fmt.Sprintf("g%d-m0", id)
	grp.members = append(grp.members, &member{name: pname, srv: srv, backend: c.wrapBackend(id, pname, srv)})
	for i := 0; i < c.opts.Replicas; i++ {
		name := fmt.Sprintf("g%d-m%d", id, i+1)
		src := &retargetableSource{target: p}
		var feed cluster.Source = src
		if c.opts.WrapSource != nil {
			feed = c.opts.WrapSource(id, name, feed)
		}
		ropts := c.opts.Replica
		ropts.Server = c.opts.Server
		r, err := cluster.JoinReplica(feed, ropts)
		if err != nil {
			grp.close()
			return nil, fmt.Errorf("shard: group %d replica %d: %w", id, i, err)
		}
		if c.opts.StartReplicas {
			r.Start()
		}
		grp.members = append(grp.members, &member{
			name: name, srv: r.Server(), backend: c.wrapBackend(id, name, r.Server()),
			replica: r, source: src,
		})
	}
	grp.Router = cluster.NewRouter(grp.backends(), c.opts.GroupRouter)
	return grp, nil
}

func (c *Cluster) wrapBackend(id int, name string, srv *serve.Server) cluster.Backend {
	var b cluster.Backend = &localBackend{name: name, srv: srv}
	if c.opts.WrapBackend != nil {
		b = c.opts.WrapBackend(id, name, b)
	}
	return b
}

func (g *Group) close() {
	for _, m := range g.members {
		if m.replica != nil {
			m.replica.Close() // closes its server too
		}
	}
	if g.Primary != nil {
		g.Primary.Close()
	}
	for _, m := range g.members {
		if m.replica == nil && m.srv != nil {
			m.srv.Close()
		}
	}
}

// Front returns the scatter-gather router.
func (c *Cluster) Front() *Router { return c.front }

// Map returns the current placement.
func (c *Cluster) Map() *Map {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.smap
}

// Group returns group id (nil if unknown).
func (c *Cluster) Group(id int) *Group {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.groups[id]
}

// GroupIDs returns the live group ids in ascending order.
func (c *Cluster) GroupIDs() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.groupIDsLocked()
}

// Mutate applies one topology mutation to every group, in group order under
// the churn lock — the shared topology moves in lockstep; each group's
// publication carries its own WAL record and restricted rebuild.
func (c *Cluster) Mutate(fn func(g *graph.Graph) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return cluster.ErrClosed
	}
	for _, id := range c.groupIDsLocked() {
		if _, err := c.groups[id].Primary.Mutate(fn); err != nil {
			return fmt.Errorf("shard: mutate group %d: %w", id, err)
		}
	}
	return nil
}

func (c *Cluster) groupIDsLocked() []int {
	ids := make([]int, 0, len(c.groups))
	for id := range c.groups {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// SyncAll drives one Sync on every replica (deterministic-test hook).
func (c *Cluster) SyncAll() error {
	c.mu.Lock()
	var reps []*cluster.Replica
	for _, id := range c.groupIDsLocked() {
		reps = append(reps, c.groups[id].Replicas()...)
	}
	c.mu.Unlock()
	var firstErr error
	for _, r := range reps {
		if err := r.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Promote fails group id over to replica idx: the old primary seat is
// removed from the group's rotation, the replica takes over under a bumped
// epoch, and surviving replicas are repointed at it.
func (c *Cluster) Promote(id, idx int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.groups[id]
	if g == nil {
		return fmt.Errorf("shard: promote: unknown group %d", id)
	}
	var seat *member
	ri := -1
	for _, m := range g.members {
		if m.replica == nil {
			continue
		}
		ri++
		if ri == idx {
			seat = m
			break
		}
	}
	if seat == nil {
		return fmt.Errorf("shard: promote: group %d has no replica %d", id, idx)
	}
	old := g.Primary
	old.Close()
	p2, err := seat.replica.Promote()
	if err != nil {
		return fmt.Errorf("shard: promote group %d: %w", id, err)
	}
	g.Primary = p2
	// Drop the dead primary's seat, convert the promoted seat, repoint
	// survivors.
	kept := g.members[:0]
	for _, m := range g.members {
		switch {
		case m.replica == nil:
			m.srv.Close()
		case m == seat:
			m.replica, m.source = nil, nil
			kept = append(kept, m)
		default:
			m.source.set(p2)
			kept = append(kept, m)
		}
	}
	g.members = kept
	g.Router.SetBackends(g.backends())
	return nil
}

// maxCatchupRounds bounds the unlocked WAL chase during a split; whatever
// remains is drained under the churn lock.
const maxCatchupRounds = 64

// Split carves a new group out of group srcID while the cluster keeps
// serving: snapshot transfer and WAL catch-up run outside the churn lock,
// then the cutover — final drain, caught-up proof, router wiring, map swap,
// and the source's RecOwned handover — happens atomically under it. The new
// group's id is returned.
func (c *Cluster) Split(srcID int) (int, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, cluster.ErrClosed
	}
	if c.splitting {
		c.mu.Unlock()
		return 0, errors.New("shard: split already in flight")
	}
	src := c.groups[srcID]
	if src == nil {
		c.mu.Unlock()
		return 0, fmt.Errorf("shard: split: unknown group %d", srcID)
	}
	newMap, newID, err := c.smap.Split(srcID)
	if err != nil {
		c.mu.Unlock()
		return 0, err
	}
	moving, err := newMap.OwnedSet(newID)
	if err != nil {
		c.mu.Unlock()
		return 0, err
	}
	remaining, err := newMap.OwnedSet(srcID)
	if err != nil {
		c.mu.Unlock()
		return 0, err
	}
	if moving.Count() == 0 || remaining.Count() == 0 {
		c.mu.Unlock()
		return 0, fmt.Errorf("shard: split of group %d would leave an empty shard (%d moving, %d remaining)",
			srcID, moving.Count(), remaining.Count())
	}
	c.splitting = true
	srcPrimary := src.Primary
	c.mu.Unlock()

	fail := func(err error) (int, error) {
		c.mu.Lock()
		c.splitting = false
		c.mu.Unlock()
		return 0, err
	}

	// Phase 1, unlocked: snapshot transfer. The new group's engine is built
	// from the source's current state, restricted to the moving keys.
	state, err := srcPrimary.FetchState()
	if err != nil {
		return fail(fmt.Errorf("shard: split: state transfer: %w", err))
	}
	eng, err := serve.NewShardEngine(state.Snap.Graph.Clone(), c.opts.Scheme, c.opts.Tier, moving)
	if err != nil {
		return fail(fmt.Errorf("shard: split: build moving engine: %w", err))
	}

	// Phase 2, unlocked: WAL catch-up. Publications after the transferred
	// snapshot replay as graph diffs; churn keeps landing while we chase.
	walSeq, snapSeq := state.WalSeq, state.Snap.Seq
	for round := 0; round < maxCatchupRounds; round++ {
		n, err := c.catchUp(eng, srcPrimary, &walSeq, &snapSeq)
		if err != nil {
			return fail(err)
		}
		if n == 0 {
			break
		}
	}

	// Phase 3, locked: cutover. No churn can land now, so one final drain
	// reaches the frontier; the caught-up proof is byte equality of the
	// topologies, not faith in the replay.
	c.mu.Lock()
	defer func() {
		c.splitting = false
		c.mu.Unlock()
	}()
	if c.closed {
		return 0, cluster.ErrClosed
	}
	if _, err := c.catchUp(eng, srcPrimary, &walSeq, &snapSeq); err != nil {
		return 0, err
	}
	if !eng.Current().Graph.Equal(srcPrimary.Engine().Current().Graph) {
		return 0, errors.New("shard: split: transferred topology diverged from source at cutover")
	}
	grp, err := c.newGroup(newID, eng)
	if err != nil {
		return 0, err
	}
	// Wire order matters: the new group's router exists before any lookup
	// can be mapped to it, the dual-read window opens before the map swap,
	// and only then does the source shed the moved keys (one RecOwned record
	// its replicas replay by log shipping).
	c.front.SetGroup(newID, grp.Router)
	c.front.BeginHandoff(newID, srcID)
	if err := c.front.SetMap(newMap); err != nil {
		grp.close()
		return 0, err
	}
	if _, err := srcPrimary.Engine().SetOwned(remaining); err != nil {
		grp.close()
		return 0, fmt.Errorf("shard: split: source handover: %w", err)
	}
	c.groups[newID] = grp
	c.smap = newMap
	// Settle: give source replicas one shot at replaying the handover now;
	// stragglers (a partitioned replica mid-chaos) converge later via their
	// own sync loops, and their unrestricted answers for moved keys are
	// computed from the same topology, so dual-read stays correct meanwhile.
	for _, r := range src.Replicas() {
		_ = r.Sync()
	}
	c.front.EndHandoff()
	return newID, nil
}

// catchUp replays the source WAL above *walSeq onto eng, returning how many
// records it consumed. Publications at or below the already-transferred
// snapshot are skipped idempotently.
func (c *Cluster) catchUp(eng *serve.Engine, src *cluster.Primary, walSeq, snapSeq *uint64) (int, error) {
	batch, err := src.FetchWAL(*walSeq)
	if err != nil {
		return 0, fmt.Errorf("shard: split: WAL catch-up: %w", err)
	}
	n := 0
	for i := range batch.Records {
		rec := batch.Records[i]
		*walSeq = rec.Seq
		n++
		if !rec.Kind.IsPublish() || rec.SnapSeq <= *snapSeq {
			continue
		}
		if _, err := eng.Mutate(func(g *graph.Graph) error {
			for _, e := range rec.Removes {
				if err := g.RemoveEdge(e[0], e[1]); err != nil {
					return err
				}
			}
			for _, e := range rec.Adds {
				if err := g.AddEdge(e[0], e[1]); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return n, fmt.Errorf("shard: split: replay record %d: %w", rec.Seq, err)
		}
		*snapSeq = rec.SnapSeq
	}
	return n, nil
}

// StateBytes returns the encoded size of group id's full replication state —
// what one joining or resyncing replica of that shard actually receives.
func (c *Cluster) StateBytes(id int) (int, error) {
	c.mu.Lock()
	g := c.groups[id]
	c.mu.Unlock()
	if g == nil {
		return 0, fmt.Errorf("shard: unknown group %d", id)
	}
	st, err := g.Primary.FetchState()
	if err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	if err := cluster.EncodeState(&buf, st); err != nil {
		return 0, err
	}
	return buf.Len(), nil
}

// CheckEntropy verifies per-group convergence: within each group, the
// primary and every replica must agree on the digest fingerprint.
func (c *Cluster) CheckEntropy() (bool, error) {
	c.mu.Lock()
	type pair struct {
		p    *cluster.Primary
		reps []*cluster.Replica
	}
	var pairs []pair
	for _, id := range c.groupIDsLocked() {
		g := c.groups[id]
		pairs = append(pairs, pair{p: g.Primary, reps: g.Replicas()})
	}
	c.mu.Unlock()
	for _, pr := range pairs {
		ok, _, err := cluster.CheckEntropy(pr.p, pr.reps...)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// Close tears the whole cluster down.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	groups := make([]*Group, 0, len(c.groups))
	for _, g := range c.groups {
		groups = append(groups, g)
	}
	c.mu.Unlock()
	for _, g := range groups {
		g.close()
	}
}

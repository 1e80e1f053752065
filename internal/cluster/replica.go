// The replica half of replication: bootstrap from a full State fetch, then
// stream WAL records and replay them through a local serve.Engine. Publish
// records re-run the primary's topology mutation via Engine.Mutate — the
// determinism contract makes the rebuilt tables byte-identical, which every
// apply verifies against the record's DistCRC. Overlay records drive a
// passive repairer (degraded detours with no local rebuilds). Three failure
// modes collapse into one recovery path, a full resync through
// Engine.Adopt: a WAL gap (ErrGone after truncation), an epoch change
// (promotion elsewhere), and any decode or verification failure (corruption,
// divergence).
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"routetab/internal/graph"
	"routetab/internal/serve"
)

const (
	// feedSafetyWait caps one parked FetchWAL of the sync loop. Appends wake
	// the fetch; the cap only bounds how long a replica goes without hearing
	// its source's epoch when nothing is appended.
	feedSafetyWait = time.Second
	// syncBackoffBase and syncBackoffCap pace the sync loop's retries after
	// consecutive failures (transport errors during a partition, resync
	// failures against a dead source): delays double from the base up to the
	// cap, with ±25% jitter so healed replicas do not retry in lockstep.
	syncBackoffBase = 2 * time.Millisecond
	syncBackoffCap  = 32 * syncBackoffBase
)

// ReplicaOptions configures JoinReplica.
type ReplicaOptions struct {
	// Server configures the replica's local lookup server.
	Server serve.ServerOptions
}

// Replica is a follower: it serves lookups from its own engine and keeps
// that engine converged with a Source by WAL replay.
type Replica struct {
	src Source
	eng *serve.Engine
	srv *serve.Server
	rep *serve.Repairer

	// replay serialises whole replication rounds' apply and resync steps;
	// mu guards the fields below it and is never held across a fetch.
	replay  sync.Mutex
	mu      sync.Mutex
	epoch   uint64
	walSeq  uint64
	applied uint64 // records replayed
	resyncs uint64 // full state fetches after bootstrap
	lastLag uint64 // records behind the source at the start of the last Sync
	fetches uint64 // FetchWAL calls
	empty   uint64 // FetchWAL calls that returned no records and no error

	// life ends at Close or Promote, cancelling the sync loop's parked fetch.
	life context.Context
	end  context.CancelFunc
	wg   sync.WaitGroup
}

// JoinReplica bootstraps a replica from src: fetch full state, build an
// engine + server + passive repairer serving it, and apply the overlay. The
// caller should then call Start (or drive Sync directly) to keep it
// converged, and Close when done.
func JoinReplica(src Source, opts ReplicaOptions) (*Replica, error) {
	st, err := src.FetchState()
	if err != nil {
		return nil, fmt.Errorf("cluster: join: %w", err)
	}
	eng, err := serve.NewEngineFromSnapshot(st.Snap)
	if err != nil {
		return nil, fmt.Errorf("cluster: join: %w", err)
	}
	srv := serve.NewServer(eng, opts.Server)
	rep := serve.NewRepairer(srv, serve.RepairOptions{Passive: true})
	r := &Replica{
		src: src, eng: eng, srv: srv, rep: rep,
		epoch: st.Epoch, walSeq: st.WalSeq,
	}
	r.life, r.end = context.WithCancel(context.Background())
	if err := r.applyOverlay(st.DownLinks, st.DownNodes); err != nil {
		r.Close()
		return nil, fmt.Errorf("cluster: join: %w", err)
	}
	return r, nil
}

// Server returns the replica's local lookup server.
func (r *Replica) Server() *serve.Server { return r.srv }

// Engine returns the replica's engine.
func (r *Replica) Engine() *serve.Engine { return r.eng }

// Repairer returns the replica's (passive) repairer.
func (r *Replica) Repairer() *serve.Repairer { return r.rep }

// Epoch returns the epoch the replica last synced under.
func (r *Replica) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// WalSeq returns the replica's replay position.
func (r *Replica) WalSeq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.walSeq
}

// Stats returns replay counters: records applied, full resyncs since join,
// and the replay lag (records behind the source) observed at the start of
// the most recent Sync.
func (r *Replica) Stats() (applied, resyncs, lastLag uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applied, r.resyncs, r.lastLag
}

// Fetches returns how many FetchWAL calls the replica made and how many of
// them came back empty without an error — the long polls that ran out their
// wait, and the polls of a hand-driven Sync with nothing new.
func (r *Replica) Fetches() (calls, empty uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fetches, r.empty
}

// Digest returns the replica's convergence fingerprint.
func (r *Replica) Digest() Digest {
	r.mu.Lock()
	epoch, walSeq := r.epoch, r.walSeq
	r.mu.Unlock()
	return digestOf(r.eng, epoch, walSeq)
}

// applyOverlay reconciles the repairer's desired-down state to exactly
// (links, nodes): heal everything no longer down, fail everything newly
// down, then fold the serving topology back into the incorporated set.
func (r *Replica) applyOverlay(links [][2]int, nodes []int) error {
	wantLink := make(map[[2]int]bool, len(links))
	for _, e := range links {
		if e[0] > e[1] {
			e[0], e[1] = e[1], e[0]
		}
		wantLink[e] = true
	}
	wantNode := make(map[int]bool, len(nodes))
	for _, u := range nodes {
		wantNode[u] = true
	}
	curLinks, curNodes := r.rep.DownState()
	for _, e := range curLinks {
		if !wantLink[e] {
			if err := r.rep.SetLinkDown(e[0], e[1], false); err != nil {
				return err
			}
		}
	}
	for _, u := range curNodes {
		if !wantNode[u] {
			if err := r.rep.SetNodeDown(u, false); err != nil {
				return err
			}
		}
	}
	for e := range wantLink {
		if err := r.rep.SetLinkDown(e[0], e[1], true); err != nil {
			return err
		}
	}
	for u := range wantNode {
		if err := r.rep.SetNodeDown(u, true); err != nil {
			return err
		}
	}
	r.rep.Reconcile()
	return nil
}

// Sync performs one replication round without waiting: fetch records after
// the current position and replay them. Gap, epoch change, corruption, or
// divergence triggers a full Resync. Transport errors are returned to the
// caller (the source is unreachable — a partition — and the replica keeps
// serving its last applied state).
func (r *Replica) Sync() error {
	_, err := r.sync(NoWait)
	return err
}

// sync is Sync with its fetch parked on the source until a record arrives or
// ctx ends. It reports whether the source answered under the replica's epoch
// and every record applied, which proves the position current.
//
// Rounds may run concurrently (Start's loop and a caller's Sync), so the
// fetch runs unlocked but the batch applies under the replay lock, from the
// position and epoch read under it: records a concurrent round applied
// meanwhile are skipped.
func (r *Replica) sync(ctx context.Context) (bool, error) {
	r.mu.Lock()
	after := r.walSeq
	r.fetches++
	r.mu.Unlock()

	batch, err := r.src.FetchWAL(ctx, after)
	if err != nil {
		if errors.Is(err, ErrGone) || errors.Is(err, ErrBadRecord) {
			return false, r.Resync()
		}
		return false, err
	}
	if len(batch.Records) == 0 {
		r.mu.Lock()
		r.empty++
		r.mu.Unlock()
		if batch.Epoch == 0 {
			// The wait ended before the source answered.
			return false, nil
		}
	}
	r.replay.Lock()
	defer r.replay.Unlock()
	r.mu.Lock()
	pos, epoch := r.walSeq, r.epoch
	r.mu.Unlock()
	if batch.Epoch != epoch {
		return false, r.resync()
	}
	r.mu.Lock()
	r.lastLag = uint64(len(batch.Records))
	r.mu.Unlock()
	for _, rec := range batch.Records {
		if rec.Seq <= pos {
			continue
		}
		if rec.Seq != pos+1 {
			// Dense-sequence violation inside a batch: treat as corruption.
			return false, r.resync()
		}
		if err := r.apply(rec); err != nil {
			return false, r.resync()
		}
		pos = rec.Seq
		r.mu.Lock()
		r.walSeq = pos
		r.applied++
		r.mu.Unlock()
	}
	return true, nil
}

// apply replays one record. An error means divergence and must trigger a
// resync in the caller.
func (r *Replica) apply(rec Record) error {
	switch rec.Kind {
	case RecPublish, RecPublishTables, RecOwned:
		cur := r.eng.Current()
		if rec.SnapSeq <= cur.Seq {
			// Already reflected in the snapshot we bootstrapped from (the
			// WAL position was captured before the snapshot) — skip.
			return nil
		}
		if rec.SnapSeq != cur.Seq+1 {
			return fmt.Errorf("cluster: publish gap: have snap %d, record is %d", cur.Seq, rec.SnapSeq)
		}
		diff := func(g *graph.Graph) error {
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
		}
		var snap *serve.Snapshot
		var err error
		if rec.Kind == RecOwned {
			// Keyspace handover: replay the diff AND the ownership change in
			// one publication, exactly as the primary published them.
			owned, oerr := rec.OwnedSet()
			if oerr != nil {
				return oerr
			}
			snap, err = r.eng.MutateOwned(owned, diff)
		} else {
			snap, err = r.eng.Mutate(diff)
		}
		if err != nil {
			return err
		}
		if snap.Seq != rec.SnapSeq {
			return fmt.Errorf("cluster: replayed snap seq %d, record says %d", snap.Seq, rec.SnapSeq)
		}
		if err := verifyPublish(rec, snap); err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
		// The publication may have incorporated overlay links; recompute
		// the incorporated set from the new serving graph.
		r.rep.Reconcile()
		return nil
	case RecLink:
		return r.rep.SetLinkDown(rec.U, rec.V, rec.Down)
	case RecNode:
		return r.rep.SetNodeDown(rec.U, rec.Down)
	}
	return fmt.Errorf("%w: kind %d", ErrBadRecord, int(rec.Kind))
}

// Resync abandons WAL replay and adopts a full state fetch: the recovery
// path for truncation gaps, epoch changes (promotion), and corruption. The
// replica keeps serving throughout — Adopt swaps the snapshot atomically.
func (r *Replica) Resync() error {
	r.replay.Lock()
	defer r.replay.Unlock()
	return r.resync()
}

// resync is Resync with the replay lock held.
func (r *Replica) resync() error {
	st, err := r.src.FetchState()
	if err != nil {
		return fmt.Errorf("cluster: resync: %w", err)
	}
	if st.Snap.Seq >= r.eng.Current().Seq || st.Epoch != r.Epoch() {
		if err := r.eng.Adopt(st.Snap); err != nil {
			return fmt.Errorf("cluster: resync: %w", err)
		}
	}
	if err := r.applyOverlay(st.DownLinks, st.DownNodes); err != nil {
		return fmt.Errorf("cluster: resync: %w", err)
	}
	r.mu.Lock()
	r.epoch = st.Epoch
	r.walSeq = st.WalSeq
	r.resyncs++
	r.mu.Unlock()
	return nil
}

// Start launches the background sync loop: each round parks a fetch on the
// source until a record is appended (or feedSafetyWait passes) and applies
// what it returns, so a record is applied as soon as it is appended instead
// of on the next tick. A round that ends without proving the position
// current — a failure, a resync, or an answer without an epoch (the fetch's
// source was retargeted under it) — is followed by one fetch that does not
// wait, so an epoch change is seen at once instead of after the safety wait.
// Failures are retried with jittered exponential backoff (syncBackoffBase
// doubling up to syncBackoffCap) instead of hammering a partitioned source;
// the replica serves stale-but-correct answers meanwhile and the first
// success resets the pace.
func (r *Replica) Start() {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		failures := 0
		poll := false
		for r.life.Err() == nil {
			ctx, cancel := context.WithTimeout(r.life, feedSafetyWait)
			if poll {
				ctx = NoWait
			}
			current, err := r.sync(ctx)
			poll = !current
			cancel()
			if err == nil {
				failures = 0
				continue
			}
			failures++
			t := time.NewTimer(backoffDelay(syncBackoffBase, syncBackoffCap, failures, rand.Float64()))
			select {
			case <-r.life.Done():
				t.Stop()
				return
			case <-t.C:
			}
		}
	}()
}

// backoffDelay returns the pause before the next sync attempt: base with no
// jitter when failures == 0, else base·2^failures capped at max, scaled by
// ±25% jitter with unit ∈ [0,1). Pure so the bound is unit-testable.
func backoffDelay(base, max time.Duration, failures int, unit float64) time.Duration {
	if failures <= 0 {
		return base
	}
	d := base
	for i := 0; i < failures && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return time.Duration(float64(d) * (0.75 + 0.5*unit))
}

// Close stops the sync loop, cancelling its parked fetch, and the replica's
// serving stack.
func (r *Replica) Close() {
	r.end()
	r.wg.Wait()
	r.rep.Close()
	r.srv.Close()
}

// Promote turns a caught-up replica into a primary under a new epoch: the
// passive repairer starts rebuilding locally, the engine's publish hook is
// claimed, and a fresh WAL (sequences restarting at 1) is opened. Other
// replicas pointed at the new primary observe the epoch change and resync.
// The caller must have stopped the replica's sync loop (its old source is
// dead or demoted); the replica's server and engine live on inside the
// returned Primary.
func (r *Replica) Promote() (*Primary, error) {
	r.end()
	r.wg.Wait()
	r.rep.Activate()
	p, err := NewPrimary(r.eng, r.srv, r.rep, r.Epoch()+1)
	if err != nil {
		return nil, fmt.Errorf("cluster: promote: %w", err)
	}
	// Fold any overlay-only failures into a rebuilt snapshot now that this
	// member owns rebuilds; a refused rebuild (would disconnect) is not
	// fatal — the repairer keeps retrying as churn continues.
	_ = p.rep.Flush()
	return p, nil
}

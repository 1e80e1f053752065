// The primary half of replication: wraps a serving stack (engine + server +
// active repairer) and turns every state change into WAL records. Snapshot
// publications are captured by the engine's publish hook — which runs under
// the engine mutex, so records land in exact publication order — as the edge
// diff between consecutive snapshots plus the CRC of the resulting state —
// the distance matrix on the full tier, the encoded scheme tables on the
// tables tier. Overlay events (link/node failures and repairs) are appended after
// they are applied locally; a publication that races ahead of its causing
// link record is harmless because replicas apply both in log order and the
// final state is identical.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"routetab/internal/graph"
	"routetab/internal/serve"
)

// ErrClosed reports an operation on a closed cluster member.
var ErrClosed = errors.New("cluster: member closed")

// Source is the replication feed a replica consumes. *Primary implements it
// in-process; HTTPSource implements it over a routetabd peer's /cluster
// endpoints. Transport failures (a partitioned peer) surface as ordinary
// errors; a Source that returns ErrGone from FetchWAL is telling the caller
// to FetchState instead.
type Source interface {
	// FetchState captures a full bootstrap: epoch, WAL position, failure
	// overlay, and snapshot.
	FetchState() (*State, error)
	// FetchWAL returns every record with Seq > after under the current
	// epoch, or ErrGone if those records have been truncated. It is a long
	// poll: it returns as soon as at least one such record exists, and an
	// empty batch (not an error) if ctx ends first. A ctx that is already
	// done asks for one answer without waiting. Wrappers forward ctx.
	FetchWAL(ctx context.Context, after uint64) (*WALBatch, error)
	// FetchDigest returns the convergence fingerprint of the peer's
	// currently served state.
	FetchDigest() (Digest, error)
}

// NoWait is an already-done context: FetchWAL under it answers at once.
var NoWait = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// Primary owns mutation for a replicated serving group. Construct it over an
// engine/server/repairer stack with NewPrimary; every snapshot the engine
// publishes and every overlay event routed through SetLinkDown/SetNodeDown
// is appended to the WAL for replicas to stream.
type Primary struct {
	eng   *serve.Engine
	srv   *serve.Server
	rep   *serve.Repairer
	log   *Log
	epoch uint64

	closed atomic.Bool
	// life ends at Close, waking every parked FetchWAL.
	life context.Context
	end  context.CancelFunc
}

var _ Source = (*Primary)(nil)

// NewPrimary wires a primary over an existing stack. epoch must be strictly
// greater than any epoch this group has seen (1 for a fresh cluster; a
// promotion bumps it). The engine's publish hook is claimed by the primary;
// rep may be nil for a mutate-only primary that never sees churn events.
func NewPrimary(eng *serve.Engine, srv *serve.Server, rep *serve.Repairer, epoch uint64) (*Primary, error) {
	return NewPrimaryAt(eng, srv, rep, epoch, NewLog())
}

// NewPrimaryAt wires a primary over an existing stack and an existing WAL —
// the crash-recovery path: RecoverPrimaryLog rebuilds the log (and replays
// it into the engine) before the publish hook is claimed, so recovery replay
// is never re-journaled and new publications resume at the recovered
// frontier.
func NewPrimaryAt(eng *serve.Engine, srv *serve.Server, rep *serve.Repairer, epoch uint64, log *Log) (*Primary, error) {
	if epoch == 0 {
		return nil, fmt.Errorf("cluster: epoch must be ≥ 1")
	}
	if log == nil {
		log = NewLog()
	}
	p := &Primary{eng: eng, srv: srv, rep: rep, log: log, epoch: epoch}
	p.life, p.end = context.WithCancel(context.Background())
	eng.SetPublishHook(p.onPublish)
	return p, nil
}

// Epoch returns the primary's epoch.
func (p *Primary) Epoch() uint64 { return p.epoch }

// Engine returns the underlying serving engine.
func (p *Primary) Engine() *serve.Engine { return p.eng }

// Server returns the underlying lookup server.
func (p *Primary) Server() *serve.Server { return p.srv }

// Repairer returns the underlying repairer (nil for a mutate-only primary).
func (p *Primary) Repairer() *serve.Repairer { return p.rep }

// Log exposes the primary's WAL (for truncation policy and tests).
func (p *Primary) Log() *Log { return p.log }

// Close detaches the publish hook and wakes every parked FetchWAL with
// ErrClosed. It does not close the underlying stack, which the caller owns.
func (p *Primary) Close() {
	if p.closed.CompareAndSwap(false, true) {
		p.eng.SetPublishHook(nil)
		p.end()
	}
}

// onPublish runs under the engine mutex on every snapshot swap: append the
// edge diff prev→cur so replicas can replay the mutation. The record kind
// and CRC follow the snapshot's tier — a tables-tier publication fingerprints
// the encoded scheme tables, which is all the compact tier materialises. A
// publication that changed the engine's owned keyspace (a shard handover)
// becomes a RecOwned record carrying the new bitmap alongside the diff, so
// replicas replay the handover through ordinary log shipping — no resync.
func (p *Primary) onPublish(prev, cur *serve.Snapshot) {
	if p.closed.Load() {
		return
	}
	var adds, removes [][2]int
	if prev != nil {
		adds, removes = graph.Diff(prev.Graph, cur.Graph)
	}
	rec := Record{
		Kind:    PublishKindFor(cur),
		SnapSeq: cur.Seq,
		DistCRC: SnapshotCRC(cur),
		Adds:    adds,
		Removes: removes,
	}
	if prev != nil && !prev.Owned().Equal(cur.Owned()) {
		rec.Kind = RecOwned
		if owned := cur.Owned(); owned != nil {
			rec.OwnedN = owned.N()
			rec.Owned = owned.Words()
		}
	}
	p.log.Append(rec)
}

// Mutate applies a topology mutation through the engine; the publish hook
// appends the resulting record.
func (p *Primary) Mutate(fn func(g *graph.Graph) error) (*serve.Snapshot, error) {
	if p.closed.Load() {
		return nil, ErrClosed
	}
	return p.eng.Mutate(fn)
}

// SetLinkDown implements faultinject.Target: route the event through the
// repairer (overlay first, rebuild scheduled) and then replicate it.
func (p *Primary) SetLinkDown(u, v int, isDown bool) error {
	if p.closed.Load() {
		return ErrClosed
	}
	if p.rep == nil {
		return fmt.Errorf("cluster: primary has no repairer for link event")
	}
	if err := p.rep.SetLinkDown(u, v, isDown); err != nil {
		return err
	}
	p.log.Append(Record{Kind: RecLink, U: u, V: v, Down: isDown})
	return nil
}

// SetNodeDown implements faultinject.Target for node crash/recover events.
func (p *Primary) SetNodeDown(u int, isDown bool) error {
	if p.closed.Load() {
		return ErrClosed
	}
	if p.rep == nil {
		return fmt.Errorf("cluster: primary has no repairer for node event")
	}
	if err := p.rep.SetNodeDown(u, isDown); err != nil {
		return err
	}
	p.log.Append(Record{Kind: RecNode, U: u, Down: isDown})
	return nil
}

// FetchState implements Source. Capture order matters: the WAL position is
// read before overlay and snapshot, so anything published concurrently with
// the capture is also present in the WAL after WalSeq — replicas replay
// those records idempotently (publish records at or below the adopted
// snapshot's Seq are skipped; overlay records are last-writer-wins).
func (p *Primary) FetchState() (*State, error) {
	if p.closed.Load() {
		return nil, ErrClosed
	}
	walSeq := p.log.LastSeq()
	var links [][2]int
	var nodes []int
	if p.rep != nil {
		links, nodes = p.rep.DownState()
	}
	cur := p.eng.Current()
	return &State{
		Epoch:     p.epoch,
		WalSeq:    walSeq,
		DownLinks: links,
		DownNodes: nodes,
		Snap: &serve.SnapshotData{
			Seq: cur.Seq, Scheme: cur.Scheme, Graph: cur.Graph, Dist: cur.Dist, Tables: cur.TablesBytes(),
		},
	}, nil
}

// FetchWAL implements Source: it parks on the log's change signal until a
// record past after is appended, ctx ends, or Close wakes it.
func (p *Primary) FetchWAL(ctx context.Context, after uint64) (*WALBatch, error) {
	if p.closed.Load() {
		return nil, ErrClosed
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(p.life, cancel)()
	recs, err := p.log.Wait(ctx, after)
	if p.closed.Load() {
		return nil, ErrClosed
	}
	if err != nil {
		return nil, err
	}
	return &WALBatch{Epoch: p.epoch, Records: recs}, nil
}

// FetchDigest implements Source.
func (p *Primary) FetchDigest() (Digest, error) {
	if p.closed.Load() {
		return Digest{}, ErrClosed
	}
	return digestOf(p.eng, p.epoch, p.log.LastSeq()), nil
}

// The single-node shape: one engine behind one sharded server, one closed
// loop, every answer graded against the snapshot that served it. A scenario
// whose faults are all hot swaps stands the server up behind a real
// JSON-HTTP listener and a real RTBIN1 TCP listener and alternates the
// loop's batches between the two, so the run proves that protocol plumbing
// (framing, pooling, error mapping) cannot corrupt an answer. Any other
// fault reaches inside the server — stalls and drops through its ChaosHook,
// churn bursts through its repairer, kills that replace it — and the loop
// then calls the server in process.
package chaos

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"routetab/internal/faultinject"
	"routetab/internal/serve"
	"routetab/internal/serve/httpapi"
	"routetab/internal/serve/spotgrade"
	"routetab/internal/serve/wire"
)

// The fixed parts of the single-node load and fault schedule.
const (
	// singleBatch is pairs per client batch.
	singleBatch = 16
	// stallDur is how long an injected stall holds its worker.
	stallDur = 20 * time.Millisecond
	// dropBatches is how many worker batches each drop window discards.
	dropBatches = 40
	// burstLinks and burstNodes are the expected link failures and node
	// crashes per churn burst.
	burstLinks, burstNodes = 8, 1
)

// controller is the injection state the server's ChaosHook reads.
type controller struct {
	stallShard atomic.Int32
	stallUntil atomic.Int64
	dropShard  atomic.Int32
	dropsLeft  atomic.Int64
}

// hook implements serve.ServerOptions.ChaosHook: an armed stall sleeps the
// worker (the queue backs up, the breaker trips, siblings absorb the load);
// an armed drop window discards whole batches (definite per-pair sheds).
func (c *controller) hook(shard int) bool {
	if int32(shard) == c.stallShard.Load() {
		if until := c.stallUntil.Load(); time.Now().UnixNano() < until {
			time.Sleep(time.Duration(until - time.Now().UnixNano()))
		}
	}
	if int32(shard) == c.dropShard.Load() && c.dropsLeft.Load() > 0 {
		if c.dropsLeft.Add(-1) >= 0 {
			return true
		}
	}
	return false
}

// single is one single-node run's mutable state. Phases write the report's
// fault counters directly: they run one at a time, and the report is read
// only once the load has stopped.
type single struct {
	sc   Scenario
	rep  *Report
	opts serve.ServerOptions
	grader
	ctl      controller
	persist  string
	baseline []byte
	swapEdge [2]int

	srv      atomic.Pointer[serve.Server]
	repairer *serve.Repairer
	inj      *faultinject.Injector
}

// runSingle builds the scheme's engine on its tier's topology and drives the
// scenario's load and faults against it.
func runSingle(sc Scenario, plan tierPlan) (*Report, error) {
	g, err := plan.topology(sc.N, rand.New(rand.NewSource(sc.Seed)))
	if err != nil {
		return nil, err
	}
	swapEdge := absentEdges(g, 1)
	if sc.has(Swap) && len(swapEdge) == 0 {
		return nil, fmt.Errorf("chaos: no absent edge to swap (topology is complete)")
	}
	t0 := time.Now()
	eng, err := plan.newEngine(g, sc.Scheme)
	if err != nil {
		return nil, err
	}
	h := &single{sc: sc, grader: grader{strict: plan.strict}, baseline: bytes.Clone(tableBytes(eng.Current())),
		rep: &Report{Scheme: sc.Scheme, Tier: plan.name, N: sc.N, Seed: sc.Seed, BuildNs: time.Since(t0).Nanoseconds()}}
	if len(swapEdge) > 0 {
		h.swapEdge = swapEdge[0]
	}
	if !plan.strict {
		if err := checkSubQuadratic(eng.Current()); err != nil {
			return nil, err
		}
		h.spot = spotgrade.New(eng, spotgrade.Config{Seed: sc.Seed, SampleEvery: 1})
	}
	if sc.has(KillRestore) {
		dir, err := os.MkdirTemp("", "routetab-chaos-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		h.persist = filepath.Join(dir, "snapshot.rtsnap")
		if err := eng.EnablePersist(h.persist); err != nil {
			return nil, err
		}
	}

	h.ctl.stallShard.Store(-1)
	h.ctl.dropShard.Store(-1)
	h.opts = serve.ServerOptions{
		// The queue holds the whole closed loop (no steady-state sheds), but
		// not the stall surge: its extra clients overflow a stalled shard in
		// microseconds, trip its breaker, and shunt to siblings.
		// The short cooldown re-probes quickly once the stall clears.
		Shards:           4,
		QueueCap:         sc.Workers + 2,
		BreakerThreshold: 4,
		BreakerCooldown:  time.Millisecond,
		ChaosHook:        h.ctl.hook,
	}
	h.srv.Store(serve.NewServer(eng, h.opts))
	h.repairer = serve.NewRepairer(h.srv.Load(), serve.RepairOptions{})
	defer func() {
		h.repairer.Close()
		h.srv.Load().Close()
	}()

	// The churn plan: one wave of link/node failures per Burst, each
	// repaired one tick later, drawn δ-random style over the whole topology.
	// The repairer is the injection target, so the exact event sequence is
	// the plan's — deterministic in (graph, scenario, seed).
	bursts := 0
	for _, f := range sc.Faults {
		if f == Burst {
			bursts++
		}
	}
	fp, err := faultinject.RandomPlan(g, faultinject.PlanConfig{
		LinkFailProb:  min(float64(bursts*burstLinks)/float64(max(g.M(), 1)), 0.9),
		NodeCrashProb: min(float64(bursts*burstNodes)/float64(sc.N), 0.9),
		Horizon:       bursts,
		RepairAfter:   1,
	}, sc.Seed)
	if err != nil {
		return nil, err
	}
	if h.inj, err = faultinject.New(faultinject.Config{Seed: sc.Seed}, fp); err != nil {
		return nil, err
	}
	h.inj.Bind(h)
	h.rep.BurstEvents = len(fp.Events)
	return h.drive()
}

// SetLinkDown and SetNodeDown forward injector events to whichever repairer
// is current (kills replace the repairer, the plan outlives it).
func (h *single) SetLinkDown(u, v int, isDown bool) error {
	return h.repairer.SetLinkDown(u, v, isDown)
}
func (h *single) SetNodeDown(u int, isDown bool) error { return h.repairer.SetNodeDown(u, isDown) }

// harvest folds a retiring (or final) server's breaker counters into the run
// totals — kills replace the server and would otherwise discard them.
func (h *single) harvest(srv *serve.Server) {
	reg := srv.Metrics()
	h.rep.Trips += reg.Counter("serve_breaker_trips_total").Value()
	h.rep.Shunts += reg.Counter("serve_breaker_shunts_total").Value()
}

// phases lays out the schedule: one phase per fault, in list order, and a
// full repair of the burst plan before the first kill (or last), which also
// freezes the latency figures before a kill replaces the server and its
// histogram.
func (h *single) phases() []phase {
	var ps []phase
	repair := phase{name: "repair all", run: func() error {
		if err := h.inj.Finish(); err != nil {
			return err
		}
		if err := h.repairer.Flush(); err != nil {
			return err
		}
		lat := h.srv.Load().Metrics().Histogram("serve_latency_ns", nil)
		h.rep.P50ns, h.rep.P99ns = lat.Quantile(0.50), lat.Quantile(0.99)
		return nil
	}}
	var stalls, drops, bursts, kills, swaps int
	repaired := false
	for _, f := range h.sc.Faults {
		if f == KillRestore && !repaired {
			ps, repaired = append(ps, repair), true
		}
		switch f {
		case Stall:
			shard := stalls % h.opts.Shards
			seed := h.sc.Seed + int64(stalls)*104729
			stalls++
			ps = append(ps, phase{name: fmt.Sprintf("stall shard %d", shard), run: func() error {
				h.ctl.stallUntil.Store(time.Now().Add(stallDur).UnixNano())
				h.ctl.stallShard.Store(int32(shard))
				h.surge(shard, seed)
				h.ctl.stallShard.Store(-1)
				h.rep.Stalls++
				return nil
			}})
		case Drop:
			drops++
			shard := drops % h.opts.Shards
			ps = append(ps, phase{name: fmt.Sprintf("drop window shard %d", shard), run: func() error {
				h.ctl.dropShard.Store(int32(shard))
				h.ctl.dropsLeft.Store(dropBatches)
				h.rep.Drops++
				return nil
			}})
		case Burst:
			tick := bursts
			bursts++
			ps = append(ps, phase{name: fmt.Sprintf("churn burst %d", tick), run: func() error {
				if err := h.inj.AdvanceTo(tick); err != nil {
					return err
				}
				h.rep.Bursts++
				return nil
			}})
		case KillRestore:
			ps = append(ps, phase{name: fmt.Sprintf("kill %d", kills), run: h.killRestore})
			kills++
		case Swap:
			ps = append(ps, phase{name: fmt.Sprintf("swap %d", swaps), run: func() error {
				if _, err := h.srv.Load().Engine().Mutate(toggle(h.swapEdge)); err != nil {
					return err
				}
				h.rep.Swaps++
				return nil
			}})
			swaps++
		}
	}
	if !repaired {
		ps = append(ps, repair)
	}
	return ps
}

// surge runs extra single-pair clients for the stall window — twice the
// closed loop plus slack, always above the server's queue capacity
// (Workers+2), so the stalled shard saturates, trips its breaker, and sheds
// to siblings; a closed loop alone would just park politely behind the
// stall. All are sourced from nodes owned by the stalled shard, and every
// surge lookup is graded like any other.
func (h *single) surge(shard int, seed int64) {
	deadline := time.Now().Add(stallDur)
	// Source nodes that hash to the stalled shard (shardOf = src mod Shards).
	var srcs []int
	for src := 1; src <= h.sc.N; src++ {
		if src%h.opts.Shards == shard {
			srcs = append(srcs, src)
		}
	}
	if len(srcs) == 0 {
		time.Sleep(stallDur)
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < h.sc.Workers*2+4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*31 + int64(i)))
			for time.Now().Before(deadline) {
				src := srcs[rng.Intn(len(srcs))]
				dst := rng.Intn(h.sc.N-1) + 1
				if dst >= src {
					dst++
				}
				res := h.srv.Load().NextHop(src, dst)
				if b := h.judge([2]int{src, dst}, &res, nil); b > 0 {
					time.Sleep(min(b, time.Millisecond))
				}
			}
		}()
	}
	wg.Wait()
}

// killRestore is one crash cycle: fire a hot swap concurrently with the kill
// (the "mid-swap" case — the persisted file is atomically either snapshot),
// close the server, restore the engine from disk, verify byte-identical
// recovery, and resume serving on a fresh server + repairer.
func (h *single) killRestore() error {
	old := h.srv.Load()
	eng := old.Engine()
	preSeq := eng.Current().Seq
	pre := bytes.Clone(tableBytes(eng.Current()))

	swapDone := make(chan struct{})
	go func() {
		defer close(swapDone)
		_, _ = eng.Reload() // racing hot swap; a pure republish, so content is unchanged
	}()
	start := time.Now()
	h.repairer.Close()
	old.Close()
	h.harvest(old)

	restored, err := serve.RestoreEngine(h.persist)
	<-swapDone
	eng.DisablePersist()
	if err != nil {
		return fmt.Errorf("chaos: restore after kill: %w", err)
	}
	snap := restored.Current()
	// The racing swap means the file held Seq preSeq or preSeq+1 — but the
	// tables must match the pre-kill snapshot byte for byte.
	if !bytes.Equal(tableBytes(snap), pre) || snap.Seq < preSeq || snap.Seq > preSeq+1 {
		h.rep.RestoredIdentical = false
		return fmt.Errorf("%w: seq %d (pre-kill %d)", ErrRestore, snap.Seq, preSeq)
	}
	if err := restored.EnablePersist(h.persist); err != nil {
		return err
	}
	srv := serve.NewServer(restored, h.opts)
	h.repairer = serve.NewRepairer(srv, serve.RepairOptions{})
	h.srv.Store(srv)
	// Recovery = kill start → first served lookup on the restored engine.
	for {
		if res := srv.NextHop(1, 2); res.Err == nil {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	h.rep.RecoveryNs = max(h.rep.RecoveryNs, time.Since(start).Nanoseconds())
	h.rep.RestoredIdentical = true
	h.rep.Kills++
	return nil
}

// listenBoth serves srv on a real loopback HTTP listener (the pooled httpapi
// batch handler) and a real RTBIN1 TCP listener — true sockets, framing and
// connection reuse, not httptest shortcuts — and returns a client of each and
// a func that closes clients and listeners.
func listenBoth(srv *serve.Server) (*httpapi.BatchClient, *wire.Client, func(), error) {
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	hs := &http.Server{Handler: httpapi.NewBatchHandler(srv)}
	go hs.Serve(httpLn)
	binLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		hs.Close()
		return nil, nil, nil, err
	}
	ws := wire.NewServer(srv)
	go ws.Serve(binLn)
	binClient, err := wire.Dial("chaos", binLn.Addr().String())
	if err != nil {
		ws.Close()
		hs.Close()
		return nil, nil, nil, err
	}
	closeAll := func() {
		binClient.Close()
		ws.Close()
		hs.Close()
	}
	return httpapi.NewBatchClient("http://"+httpLn.Addr().String(), nil), binClient, closeAll, nil
}

// drive runs the batched closed loop through the phases, then checks the
// self-heal and assembles and grades the final report.
func (h *single) drive() (*Report, error) {
	send := func(pairs [][2]int, out []serve.Result) error { return h.srv.Load().LookupBatch(pairs, out) }
	var jsonLookups, binLookups atomic.Uint64
	if h.sc.wired() {
		jsonClient, binClient, closeAll, err := listenBoth(h.srv.Load())
		if err != nil {
			return nil, err
		}
		defer closeAll()
		var calls atomic.Uint64
		send = func(pairs [][2]int, out []serve.Result) error {
			lookupBatch, n := binClient.LookupBatch, &binLookups
			if calls.Add(1)%2 == 0 {
				lookupBatch, n = jsonClient.LookupBatch, &jsonLookups
			}
			if err := lookupBatch(pairs, out); err != nil {
				return err
			}
			n.Add(uint64(len(pairs)))
			return nil
		}
	}
	// The distinct snapshot seqs answers carried — the proof that clients
	// really raced a swap rather than finishing before it.
	var seqs sync.Map
	elapsed, runErr := loop{
		n: h.sc.N, workers: h.sc.Workers, batch: singleBatch, seed: h.sc.Seed, lookups: h.sc.Lookups,
		answered: &h.answered, maxBackoff: 2 * time.Millisecond,
		lookup: func(pairs [][2]int, out []serve.Result) (time.Duration, error) {
			if err := send(pairs, out); err != nil {
				return 0, err
			}
			var backoff time.Duration
			for i := range out {
				backoff = max(backoff, h.judge(pairs[i], &out[i], nil))
				if _, seen := seqs.Load(out[i].Seq); !seen && out[i].Err == nil {
					seqs.Store(out[i].Seq, true)
				}
			}
			return backoff, nil
		},
	}.run(h.phases())

	// Self-heal check: every fault repaired and incorporated, the serving
	// tables must be byte-identically back to the pre-chaos ones.
	if err := h.repairer.Flush(); err != nil && runErr == nil {
		runErr = err
	}
	final := h.srv.Load().Engine().Current()
	h.harvest(h.srv.Load())
	r := h.rep
	var spots []*spotgrade.Grader
	if h.spot != nil {
		spots = append(spots, h.spot)
		r.SpotMeanStretchMilli = h.spot.MeanStretchMilli()
	}
	h.fill(r, elapsed, spots)
	r.JSONLookups, r.BinLookups = jsonLookups.Load(), binLookups.Load()
	r.SelfHealed = bytes.Equal(tableBytes(final), h.baseline)
	r.FinalSeq, r.SnapshotBytes, r.Landmarks = final.Seq, final.ArenaSize(), landmarks(final)
	seqs.Range(func(any, any) bool { r.SeqsSeen++; return true })
	if runErr != nil {
		return r, runErr
	}
	return r, verdict(h.sc, r)
}

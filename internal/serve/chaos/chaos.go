// Package chaos is the serve-layer chaos harness: it drives a closed-loop,
// self-validating load (seeded per-worker query streams) against a live
// server while injecting the failure modes a production routing service
// actually meets — stalled shard workers, dropped batches, topology churn
// bursts from a seeded faultinject plan, and process kills mid-swap recovered
// through crash-safe snapshot persistence — and grades every single answer.
//
// The harness's contract mirrors the repo-wide soundness rule: failures may
// cost availability (sheds, honest ErrUnavailable) and latency, but never
// correctness. A run fails if any lookup is answered incorrectly, if a
// degraded detour exceeds the +2-hop budget over the serving snapshot's
// distance, if unavailability exceeds the configured fraction, if a restore
// is not byte-identical, or if the topology does not self-heal to its
// pre-chaos state (byte-identical distance matrix) once every fault is
// repaired.
//
// Injection order is deterministic (seeded plan, progress-paced phases):
// stalls, then drop windows, then churn bursts, then full repair, then
// kill+restore cycles — so wall-clock jitter changes timings, never which
// faults a run faces.
package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"math/rand"

	"routetab/internal/faultinject"
	"routetab/internal/gengraph"
	"routetab/internal/serve"
)

// Config parameterises one chaos run.
type Config struct {
	// N is the G(n, 1/2) topology size (default 64).
	N int
	// Seed keys the topology, the query streams, and the fault plan.
	Seed int64
	// Scheme must be a shortest-path scheme (strict grading; default
	// "fulltable").
	Scheme string
	// Lookups is the total lookup target across workers (default 200_000).
	Lookups uint64
	// Workers is the closed-loop client count (default 6).
	Workers int
	// BatchSize is pairs per client batch (default 16).
	BatchSize int

	// Stalls is how many shard-stall injections to run (default 2).
	Stalls int
	// StallDur is how long an injected stall holds its worker (default 20ms).
	StallDur time.Duration
	// SurgeWorkers is how many extra single-pair clients hammer the stalled
	// shard during each stall (default 12 — above the queue capacity, so the
	// stalled shard saturates, trips its breaker, and sheds to siblings; a
	// closed loop alone would just park politely behind the stall).
	SurgeWorkers int
	// Drops is how many batch-drop windows to run (default 2).
	Drops int
	// DropBatches is how many worker batches each drop window discards
	// (default 40).
	DropBatches int
	// Bursts is how many churn bursts the fault plan schedules (default 5).
	Bursts int
	// BurstLinks is the expected link failures per burst (default 8).
	BurstLinks int
	// BurstNodes is the expected node crashes per burst (default 1).
	BurstNodes int
	// Kills is how many kill+restore cycles to run (default 2; each one
	// fires a hot swap concurrently with the kill, closes the server, and
	// restores the engine from the persisted snapshot file).
	Kills int
	// PersistPath is the snapshot file for kill recovery (default: a file
	// in the OS temp dir, removed afterwards).
	PersistPath string
	// MaxUnavailableFrac bounds the tolerated unavailable fraction —
	// sheds, kill-window rejections, and honest ErrUnavailable answers,
	// over all graded lookups (default 0.10).
	MaxUnavailableFrac float64
}

func (c *Config) setDefaults() {
	if c.N < 8 {
		c.N = 64
	}
	if c.Scheme == "" {
		c.Scheme = "fulltable"
	}
	if c.Lookups == 0 {
		c.Lookups = 200_000
	}
	if c.Workers < 1 {
		c.Workers = 6
	}
	if c.BatchSize < 1 {
		c.BatchSize = 16
	}
	if c.Stalls < 0 {
		c.Stalls = 0
	} else if c.Stalls == 0 {
		c.Stalls = 2
	}
	if c.StallDur <= 0 {
		c.StallDur = 20 * time.Millisecond
	}
	if c.SurgeWorkers < 1 {
		// Twice the closed loop plus slack: always above the server's queue
		// capacity (Workers+2), so a stall overflows rather than just queues.
		c.SurgeWorkers = c.Workers*2 + 4
	}
	if c.Drops < 0 {
		c.Drops = 0
	} else if c.Drops == 0 {
		c.Drops = 2
	}
	if c.DropBatches < 1 {
		c.DropBatches = 40
	}
	if c.Bursts < 0 {
		c.Bursts = 0
	} else if c.Bursts == 0 {
		c.Bursts = 5
	}
	if c.BurstLinks < 1 {
		c.BurstLinks = 8
	}
	if c.BurstNodes < 0 {
		c.BurstNodes = 0
	} else if c.BurstNodes == 0 {
		c.BurstNodes = 1
	}
	if c.Kills < 0 {
		c.Kills = 0
	} else if c.Kills == 0 {
		c.Kills = 2
	}
	if c.MaxUnavailableFrac <= 0 {
		c.MaxUnavailableFrac = 0.10
	}
}

// Report is one chaos run's graded outcome.
type Report struct {
	Scheme string `json:"scheme"`
	N      int    `json:"n"`
	Seed   int64  `json:"seed"`

	Lookups     uint64 `json:"lookups"`
	Correct     uint64 `json:"correct"`
	Degraded    uint64 `json:"degraded"`
	Incorrect   uint64 `json:"incorrect"`
	Rejected    uint64 `json:"rejected"`
	Unavailable uint64 `json:"unavailable"`
	Errored     uint64 `json:"errored"`

	Stalls      int    `json:"stalls"`
	Drops       int    `json:"drops"`
	Bursts      int    `json:"bursts"`
	BurstEvents int    `json:"burst_events"`
	Kills       int    `json:"kills"`
	Trips       uint64 `json:"breaker_trips"`
	Shunts      uint64 `json:"breaker_shunts"`

	AvailabilityPct    float64       `json:"availability_pct"`
	P99UnderChaosNs    int64         `json:"p99_under_chaos_ns"`
	MaxDetourExtraHops int64         `json:"max_detour_extra_hops"`
	RecoveryNs         int64         `json:"recovery_ns"`
	RestoredIdentical  bool          `json:"restored_identical"`
	SelfHealed         bool          `json:"self_healed"`
	FinalSeq           uint64        `json:"final_seq"`
	Elapsed            time.Duration `json:"elapsed_ns"`
	QPS                float64       `json:"qps"`
}

// String renders the headline figures.
func (r *Report) String() string {
	return fmt.Sprintf("chaos %s n=%d: %d lookups (%.0f qps), %.3f%% available (correct=%d degraded=%d rejected=%d unavailable=%d errored=%d incorrect=%d), %d bursts/%d events, %d trips/%d shunts, %d kills (recovery %v, identical=%v), p99 %v, max detour +%d, self-healed=%v",
		r.Scheme, r.N, r.Lookups, r.QPS, r.AvailabilityPct,
		r.Correct, r.Degraded, r.Rejected, r.Unavailable, r.Errored, r.Incorrect,
		r.Bursts, r.BurstEvents, r.Trips, r.Shunts, r.Kills, time.Duration(r.RecoveryNs), r.RestoredIdentical,
		time.Duration(r.P99UnderChaosNs), r.MaxDetourExtraHops, r.SelfHealed)
}

// Errors a run can fail with (the report is always returned alongside).
var (
	ErrIncorrect    = errors.New("chaos: incorrect answers served")
	ErrBudget       = errors.New("chaos: unavailability budget exceeded")
	ErrDetourBudget = errors.New("chaos: degraded detour exceeded +2 hop budget")
	ErrRestore      = errors.New("chaos: restored snapshot not byte-identical")
	ErrNotHealed    = errors.New("chaos: topology did not self-heal after repairs")
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

// Run executes one chaos run and grades every answer. The returned report is
// complete even when the run fails; the error says which invariant broke.
func Run(cfg Config) (*Report, error) {
	cfg.setDefaults()
	if !serve.KnownScheme(cfg.Scheme) {
		return nil, fmt.Errorf("chaos: unknown scheme %q", cfg.Scheme)
	}
	if !serve.IsShortestPath(cfg.Scheme) {
		return nil, fmt.Errorf("chaos: scheme %q is not shortest-path; strict grading needs stretch 1", cfg.Scheme)
	}
	g, err := gengraph.GnHalf(cfg.N, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, err
	}

	persist := cfg.PersistPath
	if persist == "" && cfg.Kills > 0 {
		dir, err := os.MkdirTemp("", "routetab-chaos-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		persist = filepath.Join(dir, "snapshot.rtsnap")
	}

	eng, err := serve.NewEngine(g, cfg.Scheme)
	if err != nil {
		return nil, err
	}
	if persist != "" {
		if err := eng.EnablePersist(persist); err != nil {
			return nil, err
		}
	}
	baseline := append([]byte(nil), eng.Current().Dist.Packed()...)

	ctl := &controller{}
	ctl.stallShard.Store(-1)
	ctl.dropShard.Store(-1)
	opts := serve.ServerOptions{
		// The queue holds the whole closed loop (no steady-state sheds), but
		// not the stall surge: SurgeWorkers extra clients overflow a stalled
		// shard in microseconds, trip its breaker, and shunt to siblings.
		// The short cooldown re-probes quickly once the stall clears.
		Shards:           4,
		QueueCap:         cfg.Workers + 2,
		BreakerThreshold: 4,
		BreakerCooldown:  time.Millisecond,
		ChaosHook:        ctl.hook,
	}
	h := &harness{cfg: cfg, ctl: ctl, opts: opts, persist: persist, baseline: baseline}
	h.srv.Store(serve.NewServer(eng, opts))
	h.rep = serve.NewRepairer(h.srv.Load(), serve.RepairOptions{})
	defer func() {
		h.rep.Close()
		h.srv.Load().Close()
	}()

	// The churn plan: cfg.Bursts waves of link/node failures, each repaired
	// one tick later, drawn δ-random style over the whole topology. The
	// repairer is the injection target, so the exact event sequence is the
	// plan's — deterministic in (graph, config, seed).
	m := g.M()
	pc := faultinject.PlanConfig{
		LinkFailProb:  clampProb(float64(cfg.Bursts*cfg.BurstLinks) / float64(max(m, 1))),
		NodeCrashProb: clampProb(float64(cfg.Bursts*cfg.BurstNodes) / float64(cfg.N)),
		Horizon:       cfg.Bursts,
		RepairAfter:   1,
	}
	plan, err := faultinject.RandomPlan(g, pc, cfg.Seed)
	if err != nil {
		return nil, err
	}
	h.inj, err = faultinject.New(faultinject.Config{Seed: cfg.Seed}, plan)
	if err != nil {
		return nil, err
	}
	h.inj.Bind(targetFn{h})
	h.burstEvents = len(plan.Events)

	phases := h.buildPhases()
	rep, runErr := h.drive(phases)
	return rep, runErr
}

// targetFn forwards injector events to whichever repairer is current (kills
// replace the repairer, the plan outlives it).
type targetFn struct{ h *harness }

func (t targetFn) SetLinkDown(u, v int, isDown bool) error { return t.h.rep.SetLinkDown(u, v, isDown) }
func (t targetFn) SetNodeDown(u int, isDown bool) error    { return t.h.rep.SetNodeDown(u, isDown) }

// harness is one run's mutable state.
type harness struct {
	cfg      Config
	ctl      *controller
	opts     serve.ServerOptions
	persist  string
	baseline []byte

	srv atomic.Pointer[serve.Server]
	rep *serve.Repairer
	inj *faultinject.Injector

	grader

	burstEvents     int
	stallsDone      int
	dropsDone       int
	burstsDone      int
	killsDone       int
	recoveryNs      int64
	p99UnderChaos   int64
	restoredOK      bool
	restoreMismatch error
	trips           uint64 // breaker trips, summed across server generations
	shunts          uint64 // breaker shunts, summed across server generations
}

// harvest folds a retiring (or final) server's breaker counters into the run
// totals — kills replace the server and would otherwise discard them.
func (h *harness) harvest(srv *serve.Server) {
	reg := srv.Metrics()
	h.trips += reg.Counter("serve_breaker_trips_total").Value()
	h.shunts += reg.Counter("serve_breaker_shunts_total").Value()
}

// buildPhases lays out the deterministic injection schedule.
func (h *harness) buildPhases() []phase {
	var ps []phase
	for i := 0; i < h.cfg.Stalls; i++ {
		shard := i % h.opts.Shards
		seed := h.cfg.Seed + int64(i)*104729
		ps = append(ps, phase{name: fmt.Sprintf("stall shard %d", shard), run: func() error {
			h.ctl.stallUntil.Store(time.Now().Add(h.cfg.StallDur).UnixNano())
			h.ctl.stallShard.Store(int32(shard))
			h.surge(shard, seed)
			h.ctl.stallShard.Store(-1)
			h.stallsDone++
			return nil
		}})
	}
	for i := 0; i < h.cfg.Drops; i++ {
		shard := (i + 1) % h.opts.Shards
		ps = append(ps, phase{name: fmt.Sprintf("drop window shard %d", shard), run: func() error {
			h.ctl.dropShard.Store(int32(shard))
			h.ctl.dropsLeft.Store(int64(h.cfg.DropBatches))
			h.dropsDone++
			return nil
		}})
	}
	for b := 0; b < h.cfg.Bursts; b++ {
		tick := b
		ps = append(ps, phase{name: fmt.Sprintf("churn burst %d", tick), run: func() error {
			if err := h.inj.AdvanceTo(tick); err != nil {
				return err
			}
			h.burstsDone++
			return nil
		}})
	}
	ps = append(ps, phase{name: "repair all", run: func() error {
		if err := h.inj.Finish(); err != nil {
			return err
		}
		if err := h.rep.Flush(); err != nil {
			return err
		}
		// Freeze the "p99 under chaos" figure before kills replace the
		// server (and its histogram): this covers stalls, drops and bursts.
		h.p99UnderChaos = h.srv.Load().Metrics().Histogram("serve_latency_ns", nil).Quantile(0.99)
		return nil
	}})
	for i := 0; i < h.cfg.Kills; i++ {
		ps = append(ps, phase{name: fmt.Sprintf("kill %d", i), run: h.killRestore})
	}
	return ps
}

// surge runs SurgeWorkers extra single-pair clients for the stall window, all
// sourced from nodes owned by the stalled shard. The shard's queue overflows,
// its breaker trips, and the overflow is answered — correctly, same snapshot —
// by sibling shards. Every surge lookup is graded like any other.
func (h *harness) surge(shard int, seed int64) {
	deadline := time.Now().Add(h.cfg.StallDur)
	// Source nodes that hash to the stalled shard (shardOf = src mod Shards).
	var srcs []int
	for src := 1; src <= h.cfg.N; src++ {
		if src%h.opts.Shards == shard {
			srcs = append(srcs, src)
		}
	}
	if len(srcs) == 0 {
		time.Sleep(h.cfg.StallDur)
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < h.cfg.SurgeWorkers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*31 + int64(i)))
			for time.Now().Before(deadline) {
				src := srcs[rng.Intn(len(srcs))]
				dst := rng.Intn(h.cfg.N-1) + 1
				if dst >= src {
					dst++
				}
				res := h.srv.Load().NextHop(src, dst)
				if b := h.grade(&res, nil); b > 0 {
					if b > time.Millisecond {
						b = time.Millisecond
					}
					time.Sleep(b)
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
func (h *harness) killRestore() error {
	old := h.srv.Load()
	eng := old.Engine()
	preSeq := eng.Current().Seq
	preDist := append([]byte(nil), eng.Current().Dist.Packed()...)

	swapDone := make(chan struct{})
	go func() {
		defer close(swapDone)
		_, _ = eng.Reload() // racing hot swap; a pure republish, so content is unchanged
	}()
	start := time.Now()
	h.rep.Close()
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
	// packed distances must match the pre-kill snapshot byte for byte.
	if !bytes.Equal(snap.Dist.Packed(), preDist) || snap.Seq < preSeq || snap.Seq > preSeq+1 {
		h.restoreMismatch = fmt.Errorf("%w: seq %d (pre-kill %d)", ErrRestore, snap.Seq, preSeq)
		return h.restoreMismatch
	}
	if err := restored.EnablePersist(h.persist); err != nil {
		return err
	}
	srv := serve.NewServer(restored, h.opts)
	h.rep = serve.NewRepairer(srv, serve.RepairOptions{})
	h.srv.Store(srv)
	// Recovery = kill start → first served lookup on the restored engine.
	for {
		if res := srv.NextHop(1, 2); res.Err == nil {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	if ns := time.Since(start).Nanoseconds(); ns > h.recoveryNs {
		h.recoveryNs = ns
	}
	h.restoredOK = true
	h.killsDone++
	return nil
}

// drive runs the batched closed loop through phases, then assembles and
// grades the final report.
func (h *harness) drive(phases []phase) (*Report, error) {
	cfg := h.cfg
	elapsed, phaseErr := loop{
		n: cfg.N, workers: cfg.Workers, batch: cfg.BatchSize, seed: cfg.Seed, lookups: cfg.Lookups,
		answered: &h.answered, maxBackoff: 2 * time.Millisecond,
		lookup: func(pairs [][2]int, out []serve.Result) (time.Duration, error) {
			if err := h.srv.Load().LookupBatch(pairs, out); err != nil {
				return 0, err
			}
			var backoff time.Duration
			for i := range out {
				backoff = max(backoff, h.grade(&out[i], nil))
			}
			return backoff, nil
		},
	}.run(phases)

	// Self-heal check: every fault repaired and incorporated, the serving
	// topology must be byte-identically back to the pre-chaos matrix.
	if err := h.rep.Flush(); err != nil && phaseErr == nil {
		phaseErr = err
	}
	finalSnap := h.srv.Load().Engine().Current()
	selfHealed := bytes.Equal(finalSnap.Dist.Packed(), h.baseline)
	h.harvest(h.srv.Load())

	rep := &Report{
		Scheme:             cfg.Scheme,
		N:                  cfg.N,
		Seed:               cfg.Seed,
		Lookups:            h.answered.Load(),
		Correct:            h.correct.Load(),
		Degraded:           h.degraded.Load(),
		Incorrect:          h.incorrect.Load(),
		Rejected:           h.rejected.Load(),
		Unavailable:        h.unavailable.Load(),
		Errored:            h.errored.Load(),
		Stalls:             h.stallsDone,
		Drops:              h.dropsDone,
		Bursts:             h.burstsDone,
		BurstEvents:        h.burstEvents,
		Kills:              h.killsDone,
		Trips:              h.trips,
		Shunts:             h.shunts,
		MaxDetourExtraHops: h.maxExtra.Load(),
		RecoveryNs:         h.recoveryNs,
		P99UnderChaosNs:    h.p99UnderChaos,
		RestoredIdentical:  h.restoredOK && h.restoreMismatch == nil,
		SelfHealed:         selfHealed,
		FinalSeq:           finalSnap.Seq,
		Elapsed:            elapsed,
	}
	if elapsed > 0 {
		rep.QPS = float64(rep.Lookups) / elapsed.Seconds()
	}
	served := rep.Correct + rep.Degraded
	if rep.Lookups > 0 {
		rep.AvailabilityPct = 100 * float64(served) / float64(rep.Lookups)
	}

	switch {
	case phaseErr != nil:
		return rep, phaseErr
	case rep.Incorrect > 0:
		return rep, fmt.Errorf("%w: %d of %d", ErrIncorrect, rep.Incorrect, rep.Lookups)
	case rep.MaxDetourExtraHops > 2:
		return rep, fmt.Errorf("%w: +%d hops", ErrDetourBudget, rep.MaxDetourExtraHops)
	case rep.Lookups > 0 && float64(rep.Lookups-served) > cfg.MaxUnavailableFrac*float64(rep.Lookups):
		return rep, fmt.Errorf("%w: %d of %d unserved (budget %.0f%%)",
			ErrBudget, rep.Lookups-served, rep.Lookups, 100*cfg.MaxUnavailableFrac)
	case cfg.Kills > 0 && !rep.RestoredIdentical:
		return rep, ErrRestore
	case !selfHealed:
		return rep, ErrNotHealed
	}
	return rep, nil
}

func clampProb(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 0.9 {
		return 0.9
	}
	return p
}

// CSVHeader is the docs/chaos artefact header row.
const CSVHeader = "scheme,n,seed,lookups,correct,degraded,rejected,unavailable,errored,incorrect,availability_pct,p99_under_chaos_ns,max_detour_extra_hops,bursts,burst_events,kills,breaker_trips,breaker_shunts,recovery_ns,restored_identical,self_healed,qps"

// WriteCSV renders reports in the artefact layout (EXPERIMENTS.md E15).
func WriteCSV(w io.Writer, reports []*Report) error {
	if _, err := fmt.Fprintln(w, CSVHeader); err != nil {
		return err
	}
	for _, r := range reports {
		_, err := fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.4f,%d,%d,%d,%d,%d,%d,%d,%d,%v,%v,%.0f\n",
			r.Scheme, r.N, r.Seed, r.Lookups, r.Correct, r.Degraded, r.Rejected, r.Unavailable,
			r.Errored, r.Incorrect, r.AvailabilityPct, r.P99UnderChaosNs, r.MaxDetourExtraHops,
			r.Bursts, r.BurstEvents, r.Kills, r.Trips, r.Shunts, r.RecoveryNs,
			r.RestoredIdentical, r.SelfHealed, r.QPS)
		if err != nil {
			return err
		}
	}
	return nil
}

package serve

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"routetab/internal/breaker"
	"routetab/internal/par"
	"routetab/internal/serve/metrics"
	"routetab/internal/shortestpath"
)

// ServerOptions configures the lookup front end.
type ServerOptions struct {
	// Shards is the number of worker shards (default GOMAXPROCS). Lookups
	// for one source node always land on the same shard, so its rows of the
	// routing table stay hot in that worker's cache.
	Shards int
	// QueueCap bounds each shard's pending-job queue (default 1024). A full
	// queue rejects with ErrOverloaded — explicit backpressure.
	QueueCap int
	// MaxBatch bounds how many queued jobs one worker wake-up coalesces
	// (default 64): under load, snapshot acquisition and metric updates
	// amortise across the whole run.
	MaxBatch int
	// StretchSampleEvery full-routes every k-th lookup and records its
	// hops/distance ratio in the serve_stretch_x1000 histogram (default
	// 128; negative disables sampling). Sampling keeps the p99 budget: a
	// full route costs stretch× the table reads of a next-hop answer.
	StretchSampleEvery int
	// BreakerThreshold is how many consecutive failed submissions trip a
	// shard's circuit breaker open (default 16). While open, that shard's
	// lookups shed to sibling shards — a stalled worker degrades
	// throughput instead of cliffing it.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker stays open before the
	// next submission probes the shard again (default 5ms).
	BreakerCooldown time.Duration
	// ChaosHook, when set, runs at the start of every worker batch — the
	// chaos harness's injection point. The hook may sleep (emulating a
	// stalled shard) and may return true to drop the whole batch: its jobs
	// fail with *OverloadedError (a definite per-pair answer, graded as a
	// shed, never a silent drop). Production servers leave it nil.
	ChaosHook func(shard int) (drop bool)
}

func (o *ServerOptions) setDefaults() {
	if o.Shards < 1 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.QueueCap < 1 {
		o.QueueCap = 1024
	}
	if o.MaxBatch < 1 {
		o.MaxBatch = 64
	}
	if o.StretchSampleEvery == 0 {
		o.StretchSampleEvery = 128
	}
	if o.StretchSampleEvery < 0 {
		o.StretchSampleEvery = 0
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 16
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 5 * time.Millisecond
	}
}

// Result is one lookup's answer, self-contained enough to validate: Next is
// the scheme's forwarding decision, Dist and NextDist are the serving
// snapshot's ground-truth distances src→dst and next→dst, and Seq names the
// snapshot that answered. For a shortest-path scheme NextDist == Dist−1 on
// every correct answer, whichever snapshot served it — unless Degraded is
// set, in which case the scheme's hop was poisoned by a failure overlay and
// Next is a live detour bounded by 1+NextDist ≤ Dist+2 (valid on the paper's
// diameter-2 graphs, where any live neighbour is ≤ 2 hops from anywhere).
type Result struct {
	Next     int
	Dist     int
	NextDist int
	Seq      uint64
	Degraded bool
	Err      error
}

// Server is the sharded, batching query front end over an Engine. Submit
// with NextHop or LookupBatch; Close drains accepted work before returning.
type Server struct {
	eng  *Engine
	opts ServerOptions
	pool *par.Pool
	reg  *metrics.Registry

	// overlay is the failure view published by the Repairer: links and nodes
	// currently known down but possibly still present in the serving
	// snapshot's tables. nil (the steady state) costs the hot path one
	// atomic load.
	overlay atomic.Pointer[overlay]

	breakers  []breaker.Breaker
	avgJobNs  atomic.Int64  // EWMA of per-job handler service time
	jitterCtr atomic.Uint64 // sequences retry-after jitter draws
	// scratch pools per-call lookup state (jobs, shard counters, index
	// buffer, WaitGroup) so the steady-state batch path allocates nothing;
	// see hot.go.
	scratch sync.Pool

	lookups     *metrics.Counter   // answered lookups (errors included)
	rejects     *metrics.Counter   // lookups shed by backpressure
	errored     *metrics.Counter   // lookups answered with a routing error
	degraded    *metrics.Counter   // lookups answered via a failure-overlay detour
	unavailable *metrics.Counter   // lookups with no live route even degraded
	batches     *metrics.Counter   // worker wake-ups (coalesced runs)
	trips       *metrics.Counter   // breaker trips (closed→open transitions)
	shunts      *metrics.Counter   // jobs redirected off an open-breaker shard
	panics      *metrics.Counter   // recovered worker panics
	wrongShard  *metrics.Counter   // lookups refused: source outside owned keyspace
	shardSheds  []*metrics.Counter // sheds attributed to each primary shard
	latency     *metrics.Histogram
	lookupNs    *metrics.Histogram // per-lookup service time (queue wait excluded)
	batchSz     *metrics.Histogram
	stretchH    *metrics.Histogram
	sampleCt    atomic.Uint64
	closed      atomic.Bool
}

// NewServer starts the shard workers over eng's snapshots.
func NewServer(eng *Engine, opts ServerOptions) *Server {
	opts.setDefaults()
	reg := metrics.NewRegistry()
	s := &Server{
		eng:         eng,
		opts:        opts,
		reg:         reg,
		breakers:    make([]breaker.Breaker, opts.Shards),
		lookups:     reg.Counter("serve_lookups_total"),
		rejects:     reg.Counter("serve_rejects_total"),
		errored:     reg.Counter("serve_errors_total"),
		degraded:    reg.Counter("serve_degraded_total"),
		unavailable: reg.Counter("serve_unavailable_total"),
		batches:     reg.Counter("serve_batches_total"),
		trips:       reg.Counter("serve_breaker_trips_total"),
		shunts:      reg.Counter("serve_breaker_shunts_total"),
		panics:      reg.Counter("serve_worker_panics_total"),
		wrongShard:  reg.Counter("serve_wrong_shard_total"),
		latency:     reg.Histogram("serve_latency_ns", metrics.ExponentialBounds(1024, 24)), // ~1µs … ~8.6s
		lookupNs:    reg.Histogram("lookup_ns", metrics.ExponentialBounds(16, 24)),          // 16ns … ~134ms
		batchSz:     reg.Histogram("serve_batch_pairs", metrics.ExponentialBounds(1, 14)),   // 1 … 8192
		stretchH:    reg.Histogram("serve_stretch_x1000", []int64{1000, 1100, 1250, 1500, 2000, 3000, 5000, 10000}),
	}
	s.shardSheds = make([]*metrics.Counter, opts.Shards)
	for i := range s.shardSheds {
		s.shardSheds[i] = reg.Counter(fmt.Sprintf("serve_sheds_shard_%d", i))
	}
	for i := range s.breakers {
		s.breakers[i].Threshold, s.breakers[i].Cooldown = opts.BreakerThreshold, opts.BreakerCooldown
	}
	reg.GaugeFunc("serve_snapshot_seq", func() int64 { return int64(eng.Current().Seq) })
	reg.GaugeFunc("serve_swaps", func() int64 { return int64(eng.Swaps()) })
	reg.GaugeFunc("serve_breakers_open", func() int64 {
		now := time.Now().UnixNano()
		open := int64(0)
		for i := range s.breakers {
			if s.breakers[i].Open(now) {
				open++
			}
		}
		return open
	})
	s.scratch.New = func() any { return newLookupScratch(opts.Shards) }
	s.pool = par.NewPool(opts.Shards, opts.QueueCap, opts.MaxBatch, s.runBatch)
	return s
}

// Engine returns the engine behind the server (for hot swaps).
func (s *Server) Engine() *Engine { return s.eng }

// Metrics returns the server's registry.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Close stops accepting lookups and drains every accepted job.
func (s *Server) Close() {
	s.closed.Store(true)
	s.pool.Close()
}

// shardOf keys shard placement on the source node, so one node's table rows
// are only ever scanned by one worker.
func (s *Server) shardOf(src int) int {
	if src < 0 {
		src = -src
	}
	return src % s.opts.Shards
}

// LookupBatch answers len(pairs) lookups into out (len(out) must equal
// len(pairs)). Pairs are split by source shard; each sub-run is queued,
// answered under one snapshot acquisition, and the call returns when every
// pair has an answer. Shed pairs get Err = ErrOverloaded; the call itself
// only errors on misuse.
func (s *Server) LookupBatch(pairs [][2]int, out []Result) error {
	if len(pairs) != len(out) {
		return fmt.Errorf("serve: LookupBatch pairs (%d) and out (%d) length mismatch", len(pairs), len(out))
	}
	if len(pairs) == 0 {
		return nil
	}
	s.lookupInto(pairs, out)
	return nil
}

// submit queues j on its primary shard, falls back to sibling shards while
// the primary's breaker is open (or its queue full), and on total
// backpressure fails the job's pairs in place with a structured overload
// error carrying a retry-after hint.
func (s *Server) submit(shard int, j *job) {
	j.wg.Add(1)
	if !s.closed.Load() {
		now := time.Now().UnixNano()
		if b := &s.breakers[shard]; b.Allow(now) {
			if s.pool.TrySubmit(shard, j) {
				b.Success()
				return
			}
			if b.Failure(now) {
				s.trips.Inc()
			}
		}
		// Primary unavailable (open breaker or full queue): shed sideways.
		// Sibling shards run independent workers, so a single stalled shard
		// degrades locality, not availability.
		for off := 1; off < s.opts.Shards; off++ {
			sib := (shard + off) % s.opts.Shards
			b := &s.breakers[sib]
			if !b.Allow(now) {
				continue
			}
			if s.pool.TrySubmit(sib, j) {
				b.Success()
				s.shunts.Inc()
				return
			}
			if b.Failure(now) {
				s.trips.Inc()
			}
		}
	}
	// Shed: answer every pair right here — the caller always gets a
	// definite answer per pair, never a silent drop.
	var failure error
	if s.closed.Load() {
		failure = ErrClosed
	} else {
		failure = &OverloadedError{Shard: shard, RetryAfter: s.retryAfterHint()}
	}
	s.failJob(j, shard, failure)
}

// failJob answers every pair of j with failure and releases its waiter.
func (s *Server) failJob(j *job, shard int, failure error) {
	n := j.len()
	for k := 0; k < n; k++ {
		j.out[j.pos(k)] = Result{Err: failure}
	}
	s.rejects.Add(uint64(n))
	s.shardSheds[shard].Add(uint64(n))
	j.wg.Done()
}

// Jitter band for retry-after hints: each shed's hint is scaled by a factor
// drawn uniformly from [retryJitterLoNum/retryJitterDen, retryJitterHiNum/
// retryJitterDen) — i.e. ×0.75 … ×1.25 — before clamping. Without it, every
// client shed by one circuit-breaker trip receives the same hint and the
// whole cohort retries in lockstep, re-overloading the shard at exactly the
// moment it reopens.
const (
	retryJitterLoNum = 768  // ×0.75
	retryJitterHiNum = 1280 // ×1.25 (exclusive)
	retryJitterDen   = 1024
)

// retryAfterHint estimates how long a full shard queue takes to drain:
// queue capacity × the EWMA per-job service time, de-synchronised by a
// per-call jitter draw, clamped to a sane band. A hint, not a promise — the
// point is that callers back off proportionally to observed service rate
// (and not all at once) instead of hammering a saturated shard.
func (s *Server) retryAfterHint() time.Duration {
	per := s.avgJobNs.Load()
	if per <= 0 {
		per = int64(10 * time.Microsecond)
	}
	d := time.Duration(per * int64(s.opts.QueueCap))
	// SplitMix64-style hash of a counter: cheap, lock-free, and distinct
	// across the synchronized clients of one trip (a shared rand.Rand would
	// serialise the shed path on its mutex).
	x := s.jitterCtr.Add(1) + 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	frac := retryJitterLoNum + int64(x%(retryJitterHiNum-retryJitterLoNum))
	d = d * time.Duration(frac) / retryJitterDen
	const lo, hi = 100 * time.Microsecond, 50 * time.Millisecond
	if d < lo {
		d = lo
	}
	if d > hi {
		d = hi
	}
	return d
}

// sampleStretch full-routes one lookup and records hops/dist ×1000 — the
// same latency definition netsim's hop histogram uses: edge traversals of
// the delivered message, detours and walker revisits included.
func (s *Server) sampleStretch(snap *Snapshot, src, dst, dist int) {
	if dist <= 0 || dist == shortestpath.Unreachable {
		return
	}
	tr, err := snap.Route(src, dst)
	if err != nil {
		return
	}
	s.stretchH.Observe(int64(tr.Hops) * 1000 / int64(dist))
}

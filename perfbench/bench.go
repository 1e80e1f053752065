package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"routetab/internal/cluster"
	"routetab/internal/gengraph"
	"routetab/internal/graph"
	"routetab/internal/serve"
)

const (
	// batchSize is the number of keys in one lookup batch.
	batchSize = 64
	// setups is how many times a run builds the workload's stack; setup_s
	// is their median. The first build serves the measured phase.
	setups = 21
	// traceEvery: a traced run replays every traceEvery-th lookup batch
	// through the layers below the client path.
	traceEvery = 16
	// spanCap bounds the spans one tracer keeps in memory.
	spanCap = 1 << 19
	// spinWindow: the flip driver sleeps until this long before a flip is
	// due and spins the rest, so timer slack does not delay flips.
	spinWindow = 2 * time.Millisecond
	// settleTimeout bounds the wait for the last flips to reach every
	// member and for replica digests to converge.
	settleTimeout = 30 * time.Second
)

// spec describes one workload.
type spec struct {
	graph func(rng *rand.Rand) (*graph.Graph, error)
	setup func(g *graph.Graph, cfg config) (system, error)
	// spacing is the interval between flip due times.
	spacing time.Duration
	// procs caps GOMAXPROCS (and so the serve shards and the rebuild
	// workers). It is also capped at the host's core count.
	procs int
	// tailFlips > 0 marks a read-only workload: lookups run alone, and
	// this many flips follow them, off the lookup clock, so the run still
	// measures freshness on a bare engine.
	tailFlips int
}

var workloads = map[string]spec{
	"read-full-n256": {
		graph:     func(rng *rand.Rand) (*graph.Graph, error) { return gengraph.GnHalf(256, rng) },
		setup:     func(g *graph.Graph, cfg config) (system, error) { return setupFull(g, false) },
		spacing:   100 * time.Millisecond,
		tailFlips: 120,
		// One client waits on one server: with a single P the lookup path
		// runs without cross-core wake-ups, which on a virtual machine
		// cost more, and vary more, than the code they wake.
		procs: 1,
	},
	"churn-full-n256": {
		graph:   func(rng *rand.Rand) (*graph.Graph, error) { return gengraph.GnHalf(256, rng) },
		setup:   func(g *graph.Graph, cfg config) (system, error) { return setupFull(g, true) },
		spacing: 250 * time.Millisecond,
		procs:   2,
	},
	"churn-shard-n4096": {
		graph:   func(rng *rand.Rand) (*graph.Graph, error) { return gengraph.SparseConnected(4096, 8, rng) },
		setup:   setupShard,
		spacing: 1000 * time.Millisecond,
		procs:   2,
	},
}

// system is one workload's serving stack as the benchmark drives it.
type system interface {
	// clients is how many lookup paths batches alternate between.
	clients() int
	// lookup answers one batch through client path c: the timed call.
	lookup(c int, pairs [][2]int, out []serve.Result) error
	// rootSpan names the span around lookup in traced runs.
	rootSpan() string
	// replay re-answers a batch through the layers under client path c
	// and records their spans as children of root.
	replay(tr *tracer, root int32, id int64, c int, pairs [][2]int)
	// prepare precomputes ground truth for the initial graph and every
	// post-flip graph of the schedule.
	prepare(g *graph.Graph, sched []flip) error
	// grade checks every answer without an error and returns how many are
	// incorrect, with a description of the first.
	grade(pairs [][2]int, out []serve.Result) (int, string)
	// mutate applies f on every primary in turn and returns when each
	// primary started its rebuild and the Seq all primaries now serve.
	mutate(f flip) (starts []time.Time, seq uint64, err error)
	// stages replays the rebuild stages on the post-flip graph g.
	stages(tr *tracer, root int32, id int64, g *graph.Graph) error
	primaries() []*serve.Engine
	replicas() []*cluster.Replica
	servers() []*serve.Server
	// converged reports replica digest convergence (true without replicas).
	converged() (bool, error)
	// counters returns workload-specific per-layer counts for traced runs.
	counters() map[string]float64
	close()
}

// flip toggles one edge. Schedules are built so that every flip keeps the
// graph connected, so every Mutate must succeed.
type flip struct {
	u, v int
	add  bool
}

func (f flip) apply(g *graph.Graph) error {
	if f.add {
		return g.AddEdge(f.u, f.v)
	}
	return g.RemoveEdge(f.u, f.v)
}

// makeSchedule draws count flips from rng on a mirror of g: each is an
// addition of an absent pair or, with equal odds, the removal of a present
// edge whose loss keeps the mirror connected.
func makeSchedule(g *graph.Graph, count int, rng *rand.Rand) ([]flip, error) {
	mirror := g.Clone()
	n := mirror.N()
	sched := make([]flip, 0, count)
	for len(sched) < count {
		u, v := rng.Intn(n)+1, rng.Intn(n)+1
		if u == v {
			continue
		}
		wantAdd := rng.Intn(2) == 0
		if !wantAdd {
			// Removal: move to an existing edge at u.
			nb := mirror.Neighbors(u)
			if len(nb) < 2 {
				continue
			}
			v = nb[rng.Intn(len(nb))]
			if mirror.Degree(v) < 2 {
				continue
			}
			if err := mirror.RemoveEdge(u, v); err != nil {
				return nil, err
			}
			if !mirror.IsConnected() {
				if err := mirror.AddEdge(u, v); err != nil {
					return nil, err
				}
				continue
			}
		} else {
			if mirror.HasEdge(u, v) {
				continue
			}
			if err := mirror.AddEdge(u, v); err != nil {
				return nil, err
			}
		}
		sched = append(sched, flip{u: u, v: v, add: wantAdd})
	}
	return sched, nil
}

// freshness collects, per flip, when the last replica published it. It is
// installed as each replica engine's publish hook.
type freshness struct {
	mu      sync.Mutex
	base    uint64
	pending []int
	last    []time.Time
}

func newFreshness(base uint64, flips, replicas int) *freshness {
	f := &freshness{base: base, pending: make([]int, flips), last: make([]time.Time, flips)}
	for i := range f.pending {
		f.pending[i] = replicas
	}
	return f
}

func (f *freshness) hook(_, cur *serve.Snapshot) {
	now := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	k := int(cur.Seq) - int(f.base) - 1
	if k < 0 || k >= len(f.pending) {
		return
	}
	f.pending[k]--
	if now.After(f.last[k]) {
		f.last[k] = now
	}
}

// replicasDone reports whether every replica has published flip k, and
// when the last one did.
func (f *freshness) replicasDone(k int) (time.Time, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.last[k], f.pending[k] <= 0
}

// flipRec is the driver's record of one flip.
type flipRec struct {
	due, start, end time.Time
	starts          []time.Time // per primary
	root            int32       // the flip's span in the driver's tracer
	late            bool        // the previous flip was still running at due
	err             error
}

// waitUntil sleeps until spinWindow before t and spins the rest.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// driver applies a flip schedule open loop: flip k is due at
// origin+(k+1)·spacing whether or not the system kept up.
type driver struct {
	sys     system
	base    uint64
	spacing time.Duration
	fresh   *freshness
	tr      *tracer
	mirror  *graph.Graph
	// probe, if set, runs after each flip: read-only workloads grade one
	// lookup batch there, since their lookups have stopped by then.
	probe func(k int)

	maxLag         uint64
	skippedReplays int
	replayCost     time.Duration
}

func (d *driver) run(origin time.Time, sched []flip) []flipRec {
	recs := make([]flipRec, 0, len(sched))
	var prevEnd time.Time
	for k, f := range sched {
		due := origin.Add(time.Duration(k+1) * d.spacing)
		waitUntil(due)
		rec := flipRec{due: due, start: time.Now(), late: prevEnd.After(due)}
		starts, seq, err := d.sys.mutate(f)
		rec.end, rec.starts = time.Now(), starts
		if err == nil && seq != d.base+uint64(k)+1 {
			err = fmt.Errorf("flip %d published seq %d, want %d", k, seq, d.base+uint64(k)+1)
		}
		rec.err = err
		prevEnd = rec.end
		rec.root = d.tr.add("flip", int64(k), -1, 1, rec.start, rec.end)
		recs = append(recs, rec)
		if err != nil {
			break
		}
		if err := f.apply(d.mirror); err != nil {
			recs[k].err = fmt.Errorf("mirror: %w", err)
			break
		}
		if d.probe != nil {
			d.probe(k)
		}
		for _, r := range d.sys.replicas() {
			if _, _, lag := r.Stats(); lag > d.maxLag {
				d.maxLag = lag
			}
		}
		if d.tr != nil {
			d.replayStages(k, rec.root, origin.Add(time.Duration(k+2)*d.spacing))
		}
	}
	return recs
}

// replayStages times the rebuild stages on the post-flip graph once flip k
// has reached every member, if that leaves room before the next flip.
func (d *driver) replayStages(k int, root int32, nextDue time.Time) {
	for {
		if _, ok := d.fresh.replicasDone(k); ok {
			break
		}
		if time.Until(nextDue) < d.replayCost+2*spinWindow {
			d.skippedReplays++
			return
		}
		time.Sleep(time.Millisecond)
	}
	if time.Until(nextDue) < d.replayCost+2*spinWindow {
		d.skippedReplays++
		return
	}
	t := time.Now()
	if err := d.sys.stages(d.tr, root, int64(k), d.mirror); err != nil {
		d.skippedReplays++
		return
	}
	d.replayCost = time.Since(t)
}

// lookupLog is what the closed-loop client measured.
type lookupLog struct {
	rtt       []float64 // ns per batch, send to answer received
	correct   []int32   // correctly answered keys per batch
	attempted int64
	errored   int64 // keys answered with an error, or lost with their batch
	incorrect int64
	firstBad  string
	replayed  int64
}

// record books one batch's time and correct answers.
func (l *lookupLog) record(d time.Duration, correct int64) {
	l.rtt = append(l.rtt, float64(d))
	l.correct = append(l.correct, int32(correct))
}

// qps returns correct answers per second spent waiting on them, over the
// batches no slower than the run's p99. The slowest 1% are left out: they
// are the stalls the lookup_p99_us diagnostic reports, and on a shared host
// a handful of them moved the untrimmed figure by a quarter between runs.
func (l *lookupLog) qps() float64 {
	return trimmedRate(l.rtt, l.correct, 0.99)
}

// trimmedRate returns Σ items ÷ Σ ns, in items per second, over the samples
// whose ns is at most the q-quantile of ns. It leaves ns unsorted.
func trimmedRate(ns []float64, items []int32, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	cut := quantile(append([]float64(nil), ns...), q)
	var sum float64
	var n int64
	for i, d := range ns {
		if d <= cut {
			sum += d
			n += int64(items[i])
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(n) / (sum / float64(time.Second))
}

// runLookups is the single closed-loop client: it sends the next batch only
// after the previous one is answered and graded, until stop reports true.
// Grading and key generation happen off the clock.
func runLookups(sys system, rng *rand.Rand, n int, stop func() bool, tr *tracer, log *lookupLog) {
	pairs := make([][2]int, batchSize)
	out := make([]serve.Result, batchSize)
	root := sys.rootSpan()
	for b := int64(0); !stop(); b++ {
		for i := range pairs {
			src := rng.Intn(n) + 1
			dst := rng.Intn(n-1) + 1
			if dst >= src {
				dst++
			}
			pairs[i] = [2]int{src, dst}
		}
		c := int(b % int64(sys.clients()))
		t0 := time.Now()
		err := sys.lookup(c, pairs, out)
		t1 := time.Now()
		log.attempted += batchSize
		if err != nil {
			log.errored += batchSize
			log.record(t1.Sub(t0), 0)
			if log.firstBad == "" {
				log.firstBad = fmt.Sprintf("batch %d: %v", b, err)
			}
			continue
		}
		failedBefore := log.errored + log.incorrect
		log.tally(sys, pairs, out)
		log.record(t1.Sub(t0), batchSize-(log.errored+log.incorrect-failedBefore))
		if tr != nil && b%traceEvery == 0 && !tr.full(2*sys.clients()+3) {
			r := tr.add(root, b, -1, batchSize, t0, t1)
			sys.replay(tr, r, b, c, pairs)
			log.replayed++
		}
	}
}

// tally counts errors and grades the answers of one batch.
func (l *lookupLog) tally(sys system, pairs [][2]int, out []serve.Result) {
	for i := range out {
		if out[i].Err != nil {
			l.errored++
			if l.firstBad == "" {
				l.firstBad = fmt.Sprintf("lookup %d→%d: %v", pairs[i][0], pairs[i][1], out[i].Err)
			}
		}
	}
	bad, msg := sys.grade(pairs, out)
	l.incorrect += int64(bad)
	if bad > 0 && l.firstBad == "" {
		l.firstBad = msg
	}
}

// outcome is a finished run: the result line plus what main writes besides.
type outcome struct {
	res      result
	diag     map[string]any
	tracers  []*tracer
	firstBad string
}

// timedSetup builds the workload's stack and times it. A forced GC first
// gives every set-up the same collector state, so a cycle left over from
// earlier work does not land in one set-up and not the next.
func timedSetup(sp spec, g *graph.Graph, cfg config) (system, float64, error) {
	runtime.GC()
	t := time.Now()
	sys, err := sp.setup(g, cfg)
	return sys, time.Since(t).Seconds(), err
}

func heapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func runWorkload(cfg config, sp spec) (*outcome, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	g, err := sp.graph(rng)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	n := g.N()
	sys, setup0, err := timedSetup(sp, g, cfg)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	heap := heapMiB()
	var bits, arenaBytes, tablesBytes float64
	for _, e := range sys.primaries() {
		snap := e.Current()
		bits += float64(snap.SpaceBits())
		arenaBytes += float64(snap.ArenaSize())
		tablesBytes += float64(len(snap.TablesBytes()))
	}

	nflips := sp.tailFlips
	if nflips == 0 {
		nflips = int(time.Duration(cfg.seconds)*time.Second/sp.spacing) - 1
	}
	sched, err := makeSchedule(g, nflips, rng)
	if err != nil {
		sys.close()
		return nil, fmt.Errorf("schedule: %w", err)
	}
	if err := sys.prepare(g, sched); err != nil {
		sys.close()
		return nil, fmt.Errorf("ground truth: %w", err)
	}
	base := sys.primaries()[0].Current().Seq
	fresh := newFreshness(base, len(sched), len(sys.replicas()))
	for _, r := range sys.replicas() {
		r.Engine().SetPublishHook(fresh.hook)
	}

	var lookTr, flipTr *tracer
	origin := time.Now()
	if cfg.trace {
		lookTr, flipTr = newTracer(origin, spanCap), newTracer(origin, 4096)
	}
	var ms0, ms1, ms2 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	log := &lookupLog{rtt: make([]float64, 0, cfg.seconds*50000), correct: make([]int32, 0, cfg.seconds*50000)}
	keyRng := rand.New(rand.NewSource(cfg.seed*0x9E3779B9 + 7))
	d := &driver{sys: sys, base: base, spacing: sp.spacing, fresh: fresh, tr: flipTr, mirror: g.Clone()}
	var recs []flipRec
	var lookupKeys int64
	start := time.Now()
	if sp.tailFlips > 0 {
		lookupFor := time.Duration(cfg.seconds)*time.Second - time.Duration(sp.tailFlips)*sp.spacing
		if lookupFor < time.Second {
			lookupFor = time.Second
		}
		deadline := start.Add(lookupFor)
		runLookups(sys, keyRng, n, func() bool { return !time.Now().Before(deadline) }, lookTr, log)
		runtime.ReadMemStats(&ms1)
		lookupKeys = log.attempted
		// Collect the lookup phase's garbage so the first flip does not
		// pay for it.
		runtime.GC()
		probePairs := make([][2]int, batchSize)
		probeOut := make([]serve.Result, batchSize)
		d.probe = func(k int) {
			for i := range probePairs {
				src := keyRng.Intn(n) + 1
				dst := keyRng.Intn(n-1) + 1
				if dst >= src {
					dst++
				}
				probePairs[i] = [2]int{src, dst}
			}
			log.attempted += batchSize
			if err := sys.lookup(0, probePairs, probeOut); err != nil {
				log.errored += batchSize
				return
			}
			log.tally(sys, probePairs, probeOut)
			for i := range probeOut {
				if probeOut[i].Err == nil && probeOut[i].Seq != base+uint64(k)+1 {
					log.incorrect++
					if log.firstBad == "" {
						log.firstBad = fmt.Sprintf("probe after flip %d answered from seq %d", k, probeOut[i].Seq)
					}
				}
			}
			// Start the next flip from a collected heap. A collection
			// lands in about one flip of ten otherwise, right where the
			// p90 is read, and which flips it hits varies run to run.
			runtime.GC()
		}
		recs = d.run(time.Now(), sched)
	} else {
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			runLookups(sys, keyRng, n, stop.Load, lookTr, log)
		}()
		recs = d.run(start, sched)
		waitUntil(start.Add(time.Duration(cfg.seconds) * time.Second))
		stop.Store(true)
		wg.Wait()
		runtime.ReadMemStats(&ms1)
		lookupKeys = log.attempted
	}
	runtime.ReadMemStats(&ms2)

	settle := time.Now().Add(settleTimeout)
	fs := accountFlips(recs, fresh, len(sys.replicas()) > 0, flipTr, settle)
	fs.failed += len(sched) - len(recs)
	firstBad := fs.firstBad
	converged, err := waitConverged(sys, settle)
	if err != nil && firstBad == "" {
		firstBad = err.Error()
	}
	var resyncs uint64
	for _, r := range sys.replicas() {
		_, rs, _ := r.Stats()
		resyncs += rs
	}
	srvCount := map[string]float64{}
	for _, s := range sys.servers() {
		reg := s.Metrics()
		for _, name := range []string{"serve_lookups_total", "serve_batches_total",
			"serve_rejects_total", "serve_breaker_shunts_total"} {
			srvCount[name] += float64(reg.Counter(name).Value())
		}
	}
	layerCounts := sys.counters()
	multiPrimary := len(sys.primaries()) > 1
	sys.close()

	setupS := []float64{setup0}
	for i := 1; i < setups; i++ {
		s, secs, err := timedSetup(sp, g, cfg)
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", i, err)
		}
		s.close()
		setupS = append(setupS, secs)
	}

	if log.firstBad != "" && firstBad == "" {
		firstBad = log.firstBad
	}
	if !converged && firstBad == "" {
		firstBad = "replica digests did not converge"
	}
	if resyncs > 0 && firstBad == "" {
		firstBad = fmt.Sprintf("%d replica resyncs", resyncs)
	}
	correct := log.incorrect == 0 && fs.failed == 0 && converged && resyncs == 0
	attempted := log.attempted + int64(len(sched))
	failed := log.errored + log.incorrect + int64(fs.failed)

	rtt := log.rtt // sorted in place by the first quantile
	e2e := map[string]metric{
		"lookup_qps":          {log.qps(), "1/s"},
		"lookup_p50_us":       {nsQuantile(rtt, 0.50, time.Microsecond), "us"},
		"lookup_p75_us":       {nsQuantile(rtt, 0.75, time.Microsecond), "us"},
		"fresh_p50_ms":        {nsQuantile(fs.freshNs, 0.50, time.Millisecond), "ms"},
		"setup_s":             {quantile(append([]float64(nil), setupS...), 0.5), "s"},
		"heap_mb":             {heap, "MiB"},
		"table_bits_per_node": {bits / float64(n), "bits"},
	}
	diag := map[string]any{
		"flips":               len(sched),
		"flips_failed":        fs.failed,
		"late_flips":          fs.late,
		"max_late_ms":         fs.maxLateMs,
		"batches":             len(rtt),
		"fresh_p90_ms":        nsQuantile(fs.freshNs, 0.90, time.Millisecond),
		"lookup_p90_us":       nsQuantile(rtt, 0.90, time.Microsecond),
		"lookup_p99_us":       nsQuantile(rtt, 0.99, time.Microsecond),
		"lookup_p999_us":      nsQuantile(rtt, 0.999, time.Microsecond),
		"lookups_incorrect":   log.incorrect,
		"lookups_errored":     log.errored,
		"setup_s_all":         setupS,
		"replica_resyncs":     resyncs,
		"replica_max_lag_rec": d.maxLag,
	}
	for k, v := range layerCounts {
		diag[k] = v
	}
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: e2e}
	if cfg.trace {
		perLayer := traceMetrics(lookTr, flipTr, multiPrimary)
		add := func(name string, v float64, unit string) { perLayer[name] = metric{v, unit} }
		add("serve.keys_per_wakeup", ratio(srvCount["serve_lookups_total"], srvCount["serve_batches_total"]), "keys")
		add("serve.sheds", srvCount["serve_rejects_total"], "count")
		add("serve.breaker_shunts", srvCount["serve_breaker_shunts_total"], "count")
		add("shard.retries", layerCounts["shard.retries"], "count")
		add("shard.failed_keys", layerCounts["shard.failed_keys"], "count")
		add("cluster.resyncs", float64(resyncs), "count")
		add("cluster.max_lag_records", float64(d.maxLag), "records")
		add("serve.arena_bytes", arenaBytes, "bytes")
		add("landmark.tables_bytes", tablesBytes, "bytes")
		add("runtime.gc_cycles", float64(ms2.NumGC-ms0.NumGC), "count")
		add("runtime.gc_pause_ms", float64(ms2.PauseTotalNs-ms0.PauseTotalNs)/1e6, "ms")
		add("runtime.alloc_bytes_per_lookup", ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), float64(lookupKeys)), "bytes")
		add("fresh_p90_ms", nsQuantile(fs.freshNs, 0.90, time.Millisecond), "ms")
		add("lookup_p90_us", nsQuantile(rtt, 0.90, time.Microsecond), "us")
		add("lookup_p99_us", nsQuantile(rtt, 0.99, time.Microsecond), "us")
		add("lookup_p999_us", nsQuantile(rtt, 0.999, time.Microsecond), "us")
		add("gen.late_flips", float64(fs.late), "count")
		add("gen.max_late_ms", fs.maxLateMs, "ms")
		add("ops_failed_frac", ratio(float64(failed), float64(attempted)), "ratio")
		add("cluster.primary_mutate_ms.p50", nsQuantile(fs.mutateNs, 0.5, time.Millisecond), "ms")
		add("cluster.primary_mutate_ms.p90", nsQuantile(fs.mutateNs, 0.9, time.Millisecond), "ms")
		add("cluster.replica_lag_ms.p50", nsQuantile(fs.lagNs, 0.5, time.Millisecond), "ms")
		add("cluster.replica_lag_ms.p90", nsQuantile(fs.lagNs, 0.9, time.Millisecond), "ms")
		for _, name := range []string{"lookup_qps", "lookup_p50_us", "fresh_p50_ms"} {
			add("traced."+name, e2e[name].Value, e2e[name].Unit)
		}
		diag["spans_dropped"] = lookTr.dropped + flipTr.dropped
		diag["batches_replayed"] = log.replayed
		diag["stage_replays_skipped"] = d.skippedReplays
		res.Metrics = perLayer
	}
	return &outcome{res: res, diag: diag, tracers: []*tracer{lookTr, flipTr}, firstBad: firstBad}, nil
}

// flipStats summarises a run's flips.
type flipStats struct {
	freshNs  []float64 // due time until every member serves the flip
	lagNs    []float64 // Mutate returning until the last replica publishes
	mutateNs []float64 // one sample per primary rebuild
	failed   int
	late     int
	// maxLateMs is the largest delay from a due time to the flip's start.
	maxLateMs float64
	firstBad  string
}

// accountFlips waits, until settle at the latest, for every applied flip to
// reach every replica, and derives the flip timings. A flip is fresh once
// its Mutate has returned, so every primary serves it, and every replica
// has published it. It also records each flip's per-primary and replica
// spans under the flip's root span.
func accountFlips(recs []flipRec, fresh *freshness, replicated bool, tr *tracer, settle time.Time) flipStats {
	var fs flipStats
	for k := range recs {
		rec := &recs[k]
		if rec.late {
			fs.late++
		}
		if l := rec.start.Sub(rec.due).Seconds() * 1000; l > fs.maxLateMs {
			fs.maxLateMs = l
		}
		if rec.err != nil {
			fs.failed++
			fs.firstBad = fmt.Sprintf("flip %d: %v", k, rec.err)
			continue
		}
		last, ok := fresh.replicasDone(k)
		for !ok && time.Now().Before(settle) {
			time.Sleep(time.Millisecond)
			last, ok = fresh.replicasDone(k)
		}
		if !ok {
			fs.failed++
			fs.firstBad = fmt.Sprintf("flip %d never reached every replica", k)
			continue
		}
		for i, s := range rec.starts {
			e := rec.end
			if i+1 < len(rec.starts) {
				e = rec.starts[i+1]
			}
			fs.mutateNs = append(fs.mutateNs, float64(e.Sub(s)))
			tr.add("cluster.primary_mutate", int64(k), rec.root, 1, s, e)
		}
		done := rec.end
		if replicated {
			fs.lagNs = append(fs.lagNs, float64(last.Sub(rec.end)))
			tr.add("cluster.replica_lag", int64(k), rec.root, 1, rec.end, last)
			if last.After(done) {
				done = last
			}
		}
		fs.freshNs = append(fs.freshNs, float64(done.Sub(rec.due)))
	}
	return fs
}

// waitConverged polls the replica digests until they agree or the deadline
// passes.
func waitConverged(sys system, deadline time.Time) (bool, error) {
	for {
		ok, err := sys.converged()
		if ok && err == nil {
			return true, nil
		}
		if !time.Now().Before(deadline) {
			if err == nil {
				err = errors.New("replica digests did not converge")
			}
			return false, err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// traceMetrics derives the span-based per-layer metrics. A layer that is not
// on the workload's path has no spans and reads 0.
func traceMetrics(look, flips *tracer, multiPrimary bool) map[string]metric {
	ls, fs := look.spans, flips.spans
	us, ms := time.Microsecond, time.Millisecond
	out := map[string]metric{
		"wire.rtt_us.p50":          {nsQuantile(durations(ls, "wire.rtt"), 0.5, us), "us"},
		"wire.self_us.p50":         {nsQuantile(selfTimes(ls, "wire.rtt"), 0.5, us), "us"},
		"serve.batch_us.p50":       {nsQuantile(durations(ls, "serve.batch"), 0.5, us), "us"},
		"serve.batch_us.p99":       {nsQuantile(durations(ls, "serve.batch"), 0.99, us), "us"},
		"serve.queue_self_us.p50":  {nsQuantile(selfTimes(ls, "serve.batch"), 0.5, us), "us"},
		"fulltable.nexthop_ns.p50": {nsQuantile(perItem(ls, "fulltable.nexthop"), 0.5, time.Nanosecond), "ns"},
		"landmark.nexthop_ns.p50":  {nsQuantile(perItem(ls, "landmark.nexthop"), 0.5, time.Nanosecond), "ns"},
		"shard.front_batch_us.p50": {nsQuantile(durations(ls, "shard.front"), 0.5, us), "us"},
		"shard.front_batch_us.p99": {nsQuantile(durations(ls, "shard.front"), 0.99, us), "us"},
		"shard.front_self_us.p50":  {nsQuantile(selfTimes(ls, "shard.front"), 0.5, us), "us"},
	}
	// A flip's root span is one Mutate across every primary; with more
	// than one primary that is the shard cluster's Mutate.
	out["shard.cluster_mutate_ms.p50"] = metric{0, "ms"}
	if multiPrimary {
		out["shard.cluster_mutate_ms.p50"] = metric{nsQuantile(durations(fs, "flip"), 0.5, ms), "ms"}
	}
	for _, st := range stageNames {
		out[st+"_ms"] = metric{nsQuantile(durations(fs, st), 0.5, ms), "ms"}
	}
	return out
}

// stageNames are the rebuild stages a traced run replays after each flip.
var stageNames = []string{
	"graph.clone", "graph.ports", "shortestpath.allpairs", "fulltable.build",
	"landmark.build", "landmark.restrict", "landmark.encode", "routing.newsim",
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// stage times one rebuild stage and records it under root.
func stage(tr *tracer, name string, id int64, root int32, fn func() error) error {
	t := time.Now()
	err := fn()
	tr.add(name, id, root, 1, t, time.Now())
	return err
}

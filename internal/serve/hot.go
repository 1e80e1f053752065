// The serving hot loop: everything between a LookupBatch call and the per-pair
// Result writes lives here, structured so the steady state allocates nothing.
// The rules this file plays by:
//
//   - no maps: the legacy per-call map[int][]int shard grouping is replaced by
//     a counting sort over a pooled int32 index buffer;
//   - no per-call heap state: jobs, shard counters, the index buffer, and the
//     completion WaitGroup all live in one pooled lookupScratch, recycled via
//     sync.Pool once the call's last job has signalled;
//   - no interface{} boxing per lookup: jobs enter the worker pool as *job
//     pointers (pointer-shaped, box-free), and Snapshot.NextHop reaches the
//     scheme through routing.Sim's pre-boxed per-node Env values.
//
// alloc_test.go pins the contract with testing.AllocsPerRun: 0 allocs/op for
// Snapshot.NextHop and for the whole server batch path.
//
//rt:hotpath — make lint bans fmt.Sprintf and map iteration in this file.
package serve

import (
	"fmt"
	"sync"
	"time"

	"routetab/internal/shortestpath"
)

// job is the unit queued on a shard: a run of lookups sharing one reply
// array and one completion signal. idx selects this job's positions in the
// shared pairs/out arrays (nil = all of them). Jobs live inside a pooled
// lookupScratch, never on the heap per call.
type job struct {
	pairs [][2]int
	out   []Result
	idx   []int32
	start time.Time
	wg    *sync.WaitGroup
}

func (j *job) len() int {
	if j.idx != nil {
		return len(j.idx)
	}
	return len(j.pairs)
}

func (j *job) pos(k int) int {
	if j.idx != nil {
		return int(j.idx[k])
	}
	return k
}

// lookupScratch is one call's preallocated state. jobs is indexed by shard
// (a call submits at most one job per shard); counts doubles as the
// counting-sort cursor; idx grows to the largest batch seen and sticks.
type lookupScratch struct {
	wg      sync.WaitGroup
	jobs    []job
	counts  []int32
	starts  []int32
	idx     []int32
	onePair [1][2]int
	oneOut  [1]Result
}

func newLookupScratch(shards int) *lookupScratch {
	return &lookupScratch{
		jobs:   make([]job, shards),
		counts: make([]int32, shards),
		starts: make([]int32, shards),
	}
}

// release clears job slots (so pooled scratch does not pin caller buffers)
// and returns the scratch to the pool.
func (s *Server) release(sc *lookupScratch) {
	for i := range sc.jobs {
		sc.jobs[i] = job{}
	}
	s.scratch.Put(sc)
}

// NextHop answers a single lookup, blocking until served or rejected.
func (s *Server) NextHop(src, dst int) Result {
	sc := s.scratch.Get().(*lookupScratch)
	sc.onePair[0] = [2]int{src, dst}
	j := &sc.jobs[0]
	*j = job{pairs: sc.onePair[:], out: sc.oneOut[:], start: time.Now(), wg: &sc.wg}
	s.submit(s.shardOf(src), j)
	sc.wg.Wait()
	res := sc.oneOut[0]
	s.release(sc)
	return res
}

// lookupInto groups pairs by shard with a counting sort over pooled scratch,
// submits one job per non-empty shard, and waits for the last to finish.
func (s *Server) lookupInto(pairs [][2]int, out []Result) {
	start := time.Now()
	sc := s.scratch.Get().(*lookupScratch)
	if s.opts.Shards == 1 || len(pairs) == 1 {
		j := &sc.jobs[0]
		*j = job{pairs: pairs, out: out, start: start, wg: &sc.wg}
		s.submit(s.shardOf(pairs[0][0]), j)
		sc.wg.Wait()
		s.release(sc)
		return
	}
	shards := s.opts.Shards
	counts := sc.counts[:shards]
	for i := range counts {
		counts[i] = 0
	}
	for _, p := range pairs {
		counts[s.shardOf(p[0])]++
	}
	if cap(sc.idx) < len(pairs) {
		sc.idx = make([]int32, len(pairs))
	}
	idx := sc.idx[:len(pairs)]
	starts := sc.starts[:shards]
	sum := int32(0)
	for sh := range starts {
		starts[sh] = sum
		sum += counts[sh]
	}
	for i, p := range pairs {
		sh := s.shardOf(p[0])
		idx[starts[sh]] = int32(i)
		starts[sh]++
	}
	// starts[sh] is now the end of shard sh's run (and starts[sh-1] its
	// beginning): submit one job per non-empty shard, preserving the caller's
	// pair order within each run.
	lo := int32(0)
	for sh := 0; sh < shards; sh++ {
		hi := starts[sh]
		if hi == lo {
			continue
		}
		j := &sc.jobs[sh]
		*j = job{pairs: pairs, out: out, idx: idx[lo:hi], start: start, wg: &sc.wg}
		s.submit(sh, j)
		lo = hi
	}
	sc.wg.Wait()
	s.release(sc)
}

// runBatch is the shard worker handler: one snapshot acquisition answers the
// whole coalesced run. A panic anywhere in the batch (scheme code, chaos
// hook) fails the remaining jobs with ErrPanicked instead of deadlocking
// their waiters; the pool's own recovery then keeps the worker alive.
func (s *Server) runBatch(shard int, batch []any) {
	done := 0
	defer func() {
		if r := recover(); r != nil {
			s.panics.Inc()
			err := fmt.Errorf("%w: %v", ErrPanicked, r)
			for _, it := range batch[done:] {
				j := it.(*job)
				n := j.len()
				for k := 0; k < n; k++ {
					j.out[j.pos(k)] = Result{Err: err}
				}
				s.errored.Add(uint64(n))
				j.wg.Done()
			}
		}
	}()
	if h := s.opts.ChaosHook; h != nil && h(shard) {
		// Injected batch drop: every job still gets a definite shed answer.
		done = len(batch)
		for _, it := range batch {
			s.failJob(it.(*job), shard, &OverloadedError{Shard: shard, RetryAfter: s.retryAfterHint()})
		}
		return
	}
	svcStart := time.Now()
	snap := s.eng.Current()
	total := 0
	for _, it := range batch {
		j := it.(*job)
		done++
		total += s.runJob(snap, j)
	}
	if len(batch) > 0 {
		svc := time.Since(svcStart).Nanoseconds()
		// EWMA (⅞ old, ⅛ new) of per-job service time feeds retry-after
		// hints; racy read-modify-write is fine for a heuristic.
		cur := svc / int64(len(batch))
		old := s.avgJobNs.Load()
		if old == 0 {
			s.avgJobNs.Store(cur)
		} else {
			s.avgJobNs.Store(old - old/8 + cur/8)
		}
		if total > 0 {
			// Mean per-lookup service time, one observation per wake-up:
			// queue wait excluded, so regressions in the answer path itself
			// surface even under light load.
			s.lookupNs.Observe(svc / int64(total))
		}
	}
	s.batches.Inc()
	s.batchSz.Observe(int64(total))
}

// runJob answers one job's pairs under snap and releases its waiter, counting
// the pairs answered before the release so a caller that got its answers
// also sees them counted. A panic inside one lookup fails that job's
// remaining pairs but not the rest of the batch.
func (s *Server) runJob(snap *Snapshot, j *job) int {
	n := j.len()
	k := 0
	defer func() {
		if r := recover(); r != nil {
			s.panics.Inc()
			err := fmt.Errorf("%w: %v", ErrPanicked, r)
			for ; k < n; k++ {
				j.out[j.pos(k)] = Result{Seq: snap.Seq, Err: err}
				s.errored.Inc()
			}
		}
		s.latency.Observe(time.Since(j.start).Nanoseconds())
		j.wg.Done()
	}()
	for ; k < n; k++ {
		p := j.pairs[j.pos(k)]
		j.out[j.pos(k)] = s.answer(snap, p[0], p[1])
	}
	s.lookups.Add(uint64(n))
	return n
}

// DistEstimate returns d(src, dst) on TierFull snapshots and a
// stretch-bounded upper bound on TierTables snapshots (exact at distances 0
// and 1 via the adjacency bitset, ≤ 3·d beyond that — the landmark detour
// bound). It is the one distance read the answer path performs, and it
// allocates nothing on either tier.
func (s *Snapshot) DistEstimate(src, dst int) int {
	if s.Dist != nil {
		return s.Dist.Dist(src, dst)
	}
	if src == dst {
		return 0
	}
	if s.Graph.HasEdge(src, dst) {
		return 1
	}
	return s.tables.EstimateDist(src, dst)
}

// answer resolves one lookup against one snapshot, consulting the failure
// overlay: a next hop across a down link or into a down node is replaced by
// a live detour (degraded mode) until the repairer's rebuild lands.
func (s *Server) answer(snap *Snapshot, src, dst int) Result {
	if o := snap.owned; o != nil && !o.Has(src) {
		// Keyspace-restricted snapshot: this group does not own src. The
		// sentinel is definite (no wrapping, no allocation) — the shard router
		// re-asks the owning group.
		s.wrongShard.Inc()
		return Result{Seq: snap.Seq, Err: ErrWrongShard}
	}
	ov := s.overlay.Load()
	if ov != nil && (ov.nodeDown(dst) || ov.nodeDown(src)) {
		s.unavailable.Inc()
		return Result{Seq: snap.Seq, Err: fmt.Errorf("%w: node down", ErrUnavailable)}
	}
	next, err := snap.NextHop(src, dst)
	if err != nil {
		s.errored.Inc()
		return Result{Seq: snap.Seq, Err: err}
	}
	if ov != nil && (ov.nodeDown(next) || ov.linkDown(src, next)) {
		return s.detour(snap, ov, src, dst)
	}
	res := Result{
		Next:     next,
		Dist:     snap.DistEstimate(src, dst),
		NextDist: snap.DistEstimate(next, dst),
		Seq:      snap.Seq,
	}
	// Stretch sampling needs exact ground truth; on TierTables snapshots the
	// spot grader (internal/serve/spotgrade) owns verification instead.
	if k := s.opts.StretchSampleEvery; k > 0 && snap.Dist != nil && s.sampleCt.Add(1)%uint64(k) == 0 {
		s.sampleStretch(snap, src, dst, res.Dist)
	}
	return res
}

// detour serves a degraded answer around a poisoned next hop: the live
// neighbour of src closest to dst under the snapshot's ground truth, accepted
// only within the degraded stretch budget 1+d(w,dst) ≤ d(src,dst)+2. On the
// paper's diameter-2 graphs (Lemma 2) a live common neighbour always
// satisfies the budget, so detours exist whenever src retains any live link
// on a shortest-or-near path — otherwise the lookup is honestly unavailable
// rather than silently wrong.
func (s *Server) detour(snap *Snapshot, ov *overlay, src, dst int) Result {
	bestW, bestD := 0, -1
	for _, w := range snap.Graph.Neighbors(src) {
		if ov.linkDown(src, w) || ov.nodeDown(w) {
			continue
		}
		if w == dst {
			bestW, bestD = w, 0
			break
		}
		d := snap.DistEstimate(w, dst)
		if d == shortestpath.Unreachable {
			continue
		}
		if bestD < 0 || d < bestD {
			bestW, bestD = w, d
		}
	}
	dist := snap.DistEstimate(src, dst)
	if bestD < 0 || (dist >= 0 && 1+bestD > dist+2) {
		s.unavailable.Inc()
		return Result{Seq: snap.Seq, Err: fmt.Errorf("%w: no detour within budget at %d→%d", ErrUnavailable, src, dst)}
	}
	s.degraded.Inc()
	return Result{
		Next:     bestW,
		Dist:     dist,
		NextDist: bestD,
		Seq:      snap.Seq,
		Degraded: true,
	}
}

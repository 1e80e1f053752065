package shard

import (
	"context"
	"errors"
	"maps"
	"math/rand"
	"sync"
	"testing"
	"time"

	"routetab/internal/cluster"
	"routetab/internal/serve"
)

// faults scripts member misbehaviour by member name; a member with no entry
// passes every call through to its server.
type faults struct {
	mu   sync.Mutex
	down map[string]bool               // every call fails at the transport
	shed map[string]func(dst int) bool // keys answered ErrOverloaded
	slow map[string]time.Duration      // answers late, every answer marked Next -7
	hook map[string]func()             // runs before each call
}

func (f *faults) reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.down = map[string]bool{}
	f.shed = map[string]func(int) bool{}
	f.slow = map[string]time.Duration{}
	f.hook = map[string]func(){}
}

func (f *faults) set(fn func(f *faults)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fn(f)
}

var errMemberDown = errors.New("shard_test: member unreachable")

// faultyMember is a group member behind the fault script. It keeps the
// batch method, so group routers take the batch path through it.
type faultyMember struct {
	name  string
	inner cluster.Backend
	f     *faults
}

func (m *faultyMember) Name() string { return m.name }

func (m *faultyMember) Lookup(src, dst int) (serve.Result, error) {
	var out [1]serve.Result
	err := m.LookupBatch([][2]int{{src, dst}}, out[:])
	return out[0], err
}

func (m *faultyMember) LookupBatch(pairs [][2]int, out []serve.Result) error {
	m.f.mu.Lock()
	down, shed, slow, hook := m.f.down[m.name], m.f.shed[m.name], m.f.slow[m.name], m.f.hook[m.name]
	m.f.mu.Unlock()
	if hook != nil {
		hook()
	}
	if down {
		return errMemberDown
	}
	if slow > 0 {
		time.Sleep(slow)
	}
	if err := m.inner.(cluster.BatchBackend).LookupBatch(pairs, out); err != nil {
		return err
	}
	for i, p := range pairs {
		if slow > 0 && out[i].Err == nil {
			out[i].Next = -7
		}
		if shed != nil && shed(p[1]) {
			out[i] = serve.Result{Err: &serve.OverloadedError{}}
		}
	}
	return nil
}

// splitGate parks the source group's replica feed when armed: a Split's
// settle step syncs the source replicas inside the dual-read window, so the
// split stops there with the window open until release is closed.
type splitGate struct {
	cluster.Source
	armed   *bool
	mu      *sync.Mutex
	entered chan struct{}
	release chan struct{}
}

func (s splitGate) FetchWAL(ctx context.Context, after uint64) (*cluster.WALBatch, error) {
	s.mu.Lock()
	armed := *s.armed
	*s.armed = false
	s.mu.Unlock()
	if armed {
		close(s.entered)
		<-s.release
	}
	return s.Source.FetchWAL(ctx, after)
}

// frontLike builds a fresh front over c's group routers with map m (the
// cluster front's map when nil), copying the cluster front's dual-read
// window. It reads the front's fields directly, so it works while a Split
// holds the cluster lock.
func frontLike(t *testing.T, c *Cluster, m *Map, opts RouterOptions) *Router {
	t.Helper()
	c.front.mu.Lock()
	groups := maps.Clone(c.front.groups)
	if m == nil {
		m = c.front.smap
	}
	handoff, to, from := c.front.handoffActive, c.front.handoffTo, c.front.handoffFrom
	c.front.mu.Unlock()
	r, err := NewRouter(m, groups, opts)
	if err != nil {
		t.Fatal(err)
	}
	if handoff {
		r.BeginHandoff(to, from)
	}
	return r
}

func randomBatches(n, count, size int, seed int64) [][][2]int {
	rng := rand.New(rand.NewSource(seed))
	out := make([][][2]int, count)
	for b := range out {
		out[b] = make([][2]int, size)
		for i := range out[b] {
			src := 1 + rng.Intn(n)
			dst := 1 + rng.Intn(n-1)
			if dst >= src {
				dst++
			}
			out[b][i] = [2]int{src, dst}
		}
	}
	return out
}

// sameResult compares two answers field by field, errors by text.
func sameResult(a, b serve.Result) bool {
	if (a.Err == nil) != (b.Err == nil) || (a.Err != nil && a.Err.Error() != b.Err.Error()) {
		return false
	}
	a.Err, b.Err = nil, nil
	return a == b
}

// matchPaths answers batches through a fresh front's LookupBatch and through
// another fresh front's per-key Lookup, and requires identical answers per
// key. It returns how many keys came back ErrShardUnavailable.
func matchPaths(t *testing.T, name string, mk func() *Router, batches [][][2]int) int {
	t.Helper()
	batchFront := mk()
	got := make([][]serve.Result, len(batches))
	for b, pairs := range batches {
		got[b] = make([]serve.Result, len(pairs))
		if err := batchFront.LookupBatch(pairs, got[b]); err != nil {
			t.Fatalf("%s: batch %d: %v", name, b, err)
		}
	}
	keyFront := mk()
	unavailable := 0
	for b, pairs := range batches {
		for i, p := range pairs {
			want, err := keyFront.Lookup(p[0], p[1])
			if err != nil {
				t.Fatalf("%s: per-key (%d,%d): %v", name, p[0], p[1], err)
			}
			if !sameResult(got[b][i], want) {
				t.Fatalf("%s: batch %d key %d (%d,%d): batch path %+v, per-key path %+v",
					name, b, i, p[0], p[1], got[b][i], want)
			}
			if errors.Is(want.Err, ErrShardUnavailable) {
				unavailable++
			}
		}
	}
	return unavailable
}

// TestLookupBatchMatchesPerKey is the differential test of the batch front:
// on the same snapshots, the batch path and the per-key path give identical
// answers per key and degrade the same keys to ErrShardUnavailable, in
// steady state, with members shedding, hedged or unreachable, behind an
// open breaker, inside a split's dual-read window, and behind a stale map.
func TestLookupBatchMatchesPerKey(t *testing.T) {
	const n = 256
	f := &faults{}
	f.reset()
	var gateMu sync.Mutex
	armed := false
	entered, release := make(chan struct{}), make(chan struct{})
	c := testCluster(t, n, 2, 31, ClusterOptions{
		GroupRouter: cluster.RouterOptions{HedgeAfter: 2 * time.Millisecond, ProbeAfter: time.Nanosecond},
		WrapSource: func(group int, _ string, s cluster.Source) cluster.Source {
			if group != 0 {
				return s
			}
			return splitGate{Source: s, armed: &armed, mu: &gateMu, entered: entered, release: release}
		},
		WrapBackend: func(_ int, name string, b cluster.Backend) cluster.Backend {
			return &faultyMember{name: name, inner: b, f: f}
		},
	})
	if err := c.SyncAll(); err != nil {
		t.Fatal(err)
	}
	// Breakers that never open keep the paths comparable where they count
	// failures differently (per key against per batch attempt).
	lenient := RouterOptions{RetryBase: 20 * time.Microsecond, BreakerThreshold: 1 << 20}
	fresh := func(opts RouterOptions) func() *Router {
		return func() *Router { return frontLike(t, c, nil, opts) }
	}
	batches := randomBatches(n, 4, 64, 1)
	oddDst := func(dst int) bool { return dst%2 == 1 }

	if u := matchPaths(t, "steady", fresh(lenient), batches); u != 0 {
		t.Fatalf("steady state: %d keys unavailable", u)
	}

	// One member sheds odd destinations (re-routed to its peer); both
	// members of group 0 shed every fifth destination (degraded after the
	// retry budget).
	f.set(func(f *faults) {
		f.shed["g1-m0"] = oddDst
		f.shed["g0-m0"] = func(dst int) bool { return dst%5 == 0 }
		f.shed["g0-m1"] = f.shed["g0-m0"]
	})
	if u := matchPaths(t, "overloaded", fresh(lenient), batches); u == 0 {
		t.Fatal("overloaded: no key degraded with its whole group shedding it")
	}
	f.reset()

	// A slow member is hedged; its peer sheds odd destinations, so the
	// slow member's late answers still decide those keys — and must not
	// overwrite the keys its peer already answered.
	f.set(func(f *faults) {
		f.slow["g1-m0"] = 50 * time.Millisecond
		f.shed["g1-m1"] = oddDst
	})
	matchPaths(t, "hedged", fresh(lenient), batches[:2])
	f.reset()

	// Every member of group 1 unreachable.
	f.set(func(f *faults) { f.down["g1-m0"], f.down["g1-m1"] = true, true })
	if u := matchPaths(t, "group down", fresh(RouterOptions{RetryBase: 20 * time.Microsecond}), batches); u == 0 {
		t.Fatal("group down: no key degraded")
	}
	f.reset()

	// Group 1's breaker open: tripped by one failed lookup on each front,
	// then the group recovers inside the hour-long cooldown.
	g1src := 0
	for u := 1; g1src == 0; u++ {
		if c.Map().GroupFor(u) == 1 {
			g1src = u
		}
	}
	tripped := func() *Router {
		r := frontLike(t, c, nil, RouterOptions{Retries: -1, BreakerThreshold: 1, BreakerCooldown: time.Hour})
		f.set(func(f *faults) { f.down["g1-m0"], f.down["g1-m1"] = true, true })
		if res, _ := r.Lookup(g1src, 1+g1src%n); !errors.Is(res.Err, ErrShardUnavailable) {
			t.Fatalf("breaker trip: %+v", res)
		}
		f.reset()
		return r
	}
	if u := matchPaths(t, "breaker open", tripped, batches); u == 0 {
		t.Fatal("breaker open: no key degraded")
	}

	// A live split of group 0, parked inside its dual-read window: the
	// front maps the moving keys to the new group, the source primary has
	// shed them, and the source replica has not yet replayed the handover.
	preSplit := c.Map()
	gateMu.Lock()
	armed = true
	gateMu.Unlock()
	splitErr := make(chan error, 1)
	var newID int
	go func() {
		var err error
		newID, err = c.Split(0)
		splitErr <- err
	}()
	select {
	case <-entered:
	case err := <-splitErr:
		t.Fatalf("split finished without opening its window: %v", err)
	}
	if !c.Front().RebalanceInflight() {
		t.Fatal("split parked outside its dual-read window")
	}
	// The source replica is stale inside the window: answer group 0 from
	// its primary so every group answers from one snapshot.
	f.set(func(f *faults) { f.down["g0-m1"] = true })
	matchPaths(t, "handoff window", fresh(lenient), batches)
	// The new group unreachable: its keys fall back to the source group,
	// where only the replica still holds them.
	f.set(func(f *faults) {
		f.down["g0-m1"] = false
		f.down["g0-m0"] = true
		f.down["g2-m0"], f.down["g2-m1"] = true, true
	})
	if u := matchPaths(t, "handoff fallback", fresh(lenient), batches); u != 0 {
		t.Fatalf("handoff fallback: %d keys unavailable", u)
	}
	f.reset()
	close(release)
	if err := <-splitErr; err != nil {
		t.Fatal(err)
	}
	if err := c.SyncAll(); err != nil {
		t.Fatal(err)
	}
	postSplit := c.Map()
	stale := make(map[int]bool)
	for u := 1; u <= n; u++ {
		if preSplit.GroupFor(u) != postSplit.GroupFor(u) {
			stale[u] = true
		}
	}
	if len(stale) == 0 || newID != 2 {
		t.Fatalf("split moved %d keys to group %d", len(stale), newID)
	}

	// A front that never saw the split: the moved keys come back
	// ErrWrongShard from group 0 and degrade, on both paths, without
	// charging group 0's breaker. The first two batches hold moved keys
	// only, so no answer from group 0 resets the breaker: had they been
	// charged, it would be open for the rest and take group 0's own keys
	// down with it.
	staleOpts := RouterOptions{RetryBase: 20 * time.Microsecond, BreakerThreshold: 2, BreakerCooldown: time.Hour}
	staleBatches := randomBatches(n, 6, 64, 2)
	for b := 0; b < 2; b++ {
		staleBatches[b] = staleBatches[b][:0]
		for u := range stale {
			staleBatches[b] = append(staleBatches[b], [2]int{u, 1 + (u+b)%n})
		}
	}
	if u := matchPaths(t, "stale map", func() *Router { return frontLike(t, c, preSplit, staleOpts) }, staleBatches); u == 0 {
		t.Fatal("stale map: no key answered ErrWrongShard")
	}

	// The map goes stale mid-batch: the front adopts the split map when
	// group 0 first answers. The batch path planned every key on the old
	// map, so the moved keys come back ErrWrongShard and must be re-planned
	// per key; the per-key path plans each key after the swap. The first
	// key stays in group 0, so both paths swap before any moved key.
	first := 0
	for u := 1; first == 0; u++ {
		if preSplit.GroupFor(u) == 0 && !stale[u] {
			first = u
		}
	}
	refreshing := func() *Router {
		r := frontLike(t, c, preSplit, staleOpts)
		var once sync.Once
		swap := func() { once.Do(func() { _ = r.SetMap(postSplit) }) }
		f.set(func(f *faults) { f.hook["g0-m0"], f.hook["g0-m1"] = swap, swap })
		return r
	}
	midBatches := randomBatches(n, 2, 64, 3)
	midBatches[0][0] = [2]int{first, 1 + first%n}
	moved := 0
	for _, p := range midBatches[0] {
		if stale[p[0]] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("mid-batch swap: the batch holds no moved key")
	}
	if u := matchPaths(t, "map swapped mid-batch", refreshing, midBatches); u != 0 {
		t.Fatalf("map swapped mid-batch: %d keys unavailable", u)
	}
}

// TestLookupBatchConcurrent drives one front from several goroutines at
// once with a hedge timer short enough that most group batches race both
// members: pooled front scratch, pooled attempts and abandoned hedges are
// all shared across callers. Every answer must equal the per-key answer.
func TestLookupBatchConcurrent(t *testing.T) {
	const n, workers = 192, 4
	c := testCluster(t, n, 3, 37, ClusterOptions{
		GroupRouter: cluster.RouterOptions{HedgeAfter: time.Microsecond},
	})
	if err := c.SyncAll(); err != nil {
		t.Fatal(err)
	}
	batches := randomBatches(n, 24, 48, 5)
	want := make([][]serve.Result, len(batches))
	for b, pairs := range batches {
		want[b] = make([]serve.Result, len(pairs))
		for i, p := range pairs {
			res, err := c.Front().Lookup(p[0], p[1])
			if err != nil || res.Err != nil {
				t.Fatalf("per-key (%d,%d): %+v %v", p[0], p[1], res, err)
			}
			want[b][i] = res
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]serve.Result, len(batches[0]))
			for r := 0; r < 3*len(batches); r++ {
				b := (r + w*7) % len(batches)
				if err := c.Front().LookupBatch(batches[b], out); err != nil {
					t.Error(err)
					return
				}
				for i := range out {
					if !sameResult(out[i], want[b][i]) {
						t.Errorf("worker %d batch %d key %d: %+v, want %+v", w, b, i, out[i], want[b][i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestWrongShardReleasesProbe: a half-open breaker admits one probe, and a
// probe answered ErrWrongShard neither closes nor re-arms the breaker. It
// must free the probe slot, or the breaker rejects the group for good.
func TestWrongShardReleasesProbe(t *testing.T) {
	const n = 128
	f := &faults{}
	f.reset()
	c := testCluster(t, n, 2, 41, ClusterOptions{
		GroupRouter: cluster.RouterOptions{HedgeAfter: -1, ProbeAfter: time.Nanosecond},
		WrapBackend: func(_ int, name string, b cluster.Backend) cluster.Backend {
			return &faultyMember{name: name, inner: b, f: f}
		},
	})
	preSplit := c.Map()
	if _, err := c.Split(0); err != nil {
		t.Fatal(err)
	}
	if err := c.SyncAll(); err != nil {
		t.Fatal(err)
	}
	moved, kept := 0, 0
	for u := 1; u <= n && (moved == 0 || kept == 0); u++ {
		switch {
		case preSplit.GroupFor(u) != 0:
		case c.Map().GroupFor(u) == 0:
			kept = u
		default:
			moved = u
		}
	}
	paths := map[string]func(r *Router, src int) serve.Result{
		"per-key": func(r *Router, src int) serve.Result {
			res, _ := r.Lookup(src, 1+src%n)
			return res
		},
		"batch": func(r *Router, src int) serve.Result {
			out := make([]serve.Result, 1)
			_ = r.LookupBatch([][2]int{{src, 1 + src%n}}, out)
			return out[0]
		},
	}
	for name, lookup := range paths {
		now := time.Unix(7000, 0)
		front := frontLike(t, c, preSplit, RouterOptions{
			Retries: -1, BreakerThreshold: 1, BreakerCooldown: 10 * time.Millisecond,
			Clock: func() time.Time { return now },
		})
		f.set(func(f *faults) { f.down["g0-m0"], f.down["g0-m1"] = true, true })
		if res := lookup(front, kept); !errors.Is(res.Err, ErrShardUnavailable) {
			t.Fatalf("%s: breaker trip: %+v", name, res)
		}
		f.reset()
		now = now.Add(20 * time.Millisecond)
		// The stale map sends the moved key to group 0 as the probe.
		if res := lookup(front, moved); !errors.Is(res.Err, ErrShardUnavailable) {
			t.Fatalf("%s: moved key on the stale map: %+v", name, res)
		}
		if res := lookup(front, kept); res.Err != nil {
			t.Fatalf("%s: group 0 still rejected after a wrong-shard probe: %+v", name, res)
		}
	}
}

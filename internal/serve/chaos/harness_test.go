package chaos

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"routetab/internal/serve"
)

// testLoop returns a loop whose requests answer instantly; count decides
// whether answers advance the milestones.
func testLoop(answered *atomic.Uint64, served *atomic.Uint64, count bool) loop {
	return loop{
		n: 16, workers: 3, batch: 4, seed: 1, lookups: 4_000,
		answered: answered, maxBackoff: time.Millisecond,
		lookup: func(pairs [][2]int, out []serve.Result) (time.Duration, error) {
			served.Add(uint64(len(pairs)))
			if count {
				answered.Add(uint64(len(pairs)))
			}
			return 0, nil
		},
	}
}

// recorder builds phases that log their firing order and the answered count
// at each firing.
type recorder struct {
	mu    sync.Mutex
	fired []int
	at    []uint64
}

func (r *recorder) phases(k int, answered *atomic.Uint64) []phase {
	ps := make([]phase, k)
	for i := range ps {
		ps[i] = phase{name: "p" + string(rune('0'+i)), run: func() error {
			r.mu.Lock()
			r.fired = append(r.fired, i)
			r.at = append(r.at, answered.Load())
			r.mu.Unlock()
			return nil
		}}
	}
	return ps
}

func (r *recorder) checkInOrder(t *testing.T, k int) {
	t.Helper()
	if len(r.fired) != k {
		t.Fatalf("fired %d phases %v, want %d", len(r.fired), r.fired, k)
	}
	for i, p := range r.fired {
		if p != i {
			t.Fatalf("phases fired in order %v", r.fired)
		}
	}
}

// TestLoopFiresPhasesOnceInOrder: every phase fires exactly once, in order,
// each at or past its milestone, and the full lookup target is issued.
func TestLoopFiresPhasesOnceInOrder(t *testing.T) {
	var answered, served atomic.Uint64
	l := testLoop(&answered, &served, true)
	var r recorder
	const k = 5
	if _, err := l.run(r.phases(k, &answered)); err != nil {
		t.Fatal(err)
	}
	r.checkInOrder(t, k)
	for i, at := range r.at {
		if want := l.lookups * uint64(i+1) / (k + 1); at < want {
			t.Errorf("phase %d fired at %d answered, before its milestone %d", i, at, want)
		}
	}
	if got := served.Load(); got != l.lookups {
		t.Errorf("served %d lookups, want %d", got, l.lookups)
	}
}

// TestLoopRunsRemainingPhasesAfterTarget: when the workers reach the lookup
// target before the milestones are passed (here answers never count), the
// remaining phases still each fire once, in order.
func TestLoopRunsRemainingPhasesAfterTarget(t *testing.T) {
	var answered, served atomic.Uint64
	var r recorder
	if _, err := testLoop(&answered, &served, false).run(r.phases(4, &answered)); err != nil {
		t.Fatal(err)
	}
	r.checkInOrder(t, 4)
}

// TestLoopFailingPhaseStopsLoad: a failing phase halts the workers short of
// the target (they are parked at the next milestone, 3/4 of it), skips the
// phases after it, and returns an error that names it.
func TestLoopFailingPhaseStopsLoad(t *testing.T) {
	var answered, served atomic.Uint64
	l := testLoop(&answered, &served, true)
	boom := errors.New("boom")
	var after atomic.Bool
	_, err := l.run([]phase{
		{name: "warmup", run: func() error { return nil }},
		{name: "breaker", run: func() error { return boom }},
		{name: "never", run: func() error { after.Store(true); return nil }},
	})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), `"breaker"`) {
		t.Fatalf("err = %v, want the breaker phase's error", err)
	}
	if after.Load() {
		t.Error("a phase after the failing one fired")
	}
	if served.Load() >= l.lookups {
		t.Errorf("workers ran to the target (%d) despite the failure", served.Load())
	}
}

// TestLoopDeterministicMix: the query mix is a pure function of (seed,
// worker). With one worker, the same seed offers the same pairs in the same
// order — exactly lookups of them, none a self-lookup or out of 1..n — and
// another seed offers a different stream.
func TestLoopDeterministicMix(t *testing.T) {
	const n, lookups = 16, 1_000
	stream := func(seed int64) [][2]int {
		var answered atomic.Uint64
		var got [][2]int
		l := loop{
			n: n, workers: 1, batch: 7, seed: seed, lookups: lookups, answered: &answered,
			lookup: func(pairs [][2]int, out []serve.Result) (time.Duration, error) {
				got = append(got, pairs...)
				answered.Add(uint64(len(pairs)))
				return 0, nil
			},
		}
		if _, err := l.run(nil); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := stream(7), stream(7)
	if len(a) != lookups || !slices.Equal(a, b) {
		t.Fatalf("seed 7 offered %d then %d pairs, equal=%v", len(a), len(b), slices.Equal(a, b))
	}
	for _, p := range a {
		if p[0] == p[1] || min(p[0], p[1]) < 1 || max(p[0], p[1]) > n {
			t.Fatalf("pair %v outside the mix", p)
		}
	}
	if slices.Equal(a, stream(8)) {
		t.Fatal("seeds 7 and 8 offered the same stream")
	}
}

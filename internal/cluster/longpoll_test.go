package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// The wake-path tests: how a parked FetchWAL ends. None of them sleeps and
// then asserts; each waits on a condition (bounded by waitFor's deadline) or
// on a channel, so slowness can only make them take longer.

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// parked reports whether a FetchWAL is parked on l's change signal.
func parked(l *Log) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.changed != nil
}

// countingSource counts FetchWAL calls and those that asked not to wait
// (their ctx was done on entry), and keeps the context error each call saw
// when its inner fetch returned.
type countingSource struct {
	Source
	mu      sync.Mutex
	calls   int
	noWait  int
	ctxErrs []error
}

func (c *countingSource) FetchWAL(ctx context.Context, after uint64) (*WALBatch, error) {
	c.mu.Lock()
	c.calls++
	if ctx.Err() != nil {
		c.noWait++
	}
	c.mu.Unlock()
	b, err := c.Source.FetchWAL(ctx, after)
	c.mu.Lock()
	c.ctxErrs = append(c.ctxErrs, ctx.Err())
	c.mu.Unlock()
	return b, err
}

func (c *countingSource) snapshot() (calls int, ctxErrs []error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls, append([]error(nil), c.ctxErrs...)
}

// TestIdleReplicaParks: with nothing appended, a started replica's fetch
// stays parked for the whole safety wait, so one idle second costs at most
// two FetchWAL calls (a 2 ms poll made about 500), in process and over HTTP,
// where the peer answers at 7/8 of the wait. An empty answer under the
// replica's epoch proves the position current, so every fetch parks: none
// asks not to wait. Fetches agrees with the source's count, and every call
// came back empty.
func TestIdleReplicaParks(t *testing.T) {
	for _, transport := range []string{"primary", "http"} {
		t.Run(transport, func(t *testing.T) {
			p := testPrimary(t, 16, 5)
			var feed Source = p
			if transport == "http" {
				feed = feedServer(t, func() Source { return p })
			}
			src := &countingSource{Source: feed}
			r, err := JoinReplica(src, ReplicaOptions{})
			if err != nil {
				t.Fatal(err)
			}
			r.Start()
			waitFor(t, "a fetch to park", func() bool { return parked(p.Log()) })
			before, _ := src.snapshot()
			start := time.Now()
			time.Sleep(feedSafetyWait)
			r.Close()
			elapsed := time.Since(start)

			calls, _ := src.snapshot()
			// The parked fetch and each one after it but the last ran out
			// its feedSafetyWait (7/8 of it over HTTP).
			if limit := int(elapsed/(feedSafetyWait*7/8)) + 1; calls-before > limit {
				t.Fatalf("%d FetchWAL calls in %v idle, want ≤ %d", calls-before, elapsed, limit)
			}
			src.mu.Lock()
			noWait := src.noWait
			src.mu.Unlock()
			if noWait != 0 {
				t.Fatalf("%d of %d idle fetches did not wait", noWait, calls)
			}
			gotCalls, gotEmpty := r.Fetches()
			if gotCalls != uint64(calls) || gotEmpty != uint64(calls) {
				t.Fatalf("Fetches() = (%d, %d), want (%d, %d)", gotCalls, gotEmpty, calls, calls)
			}
			if applied, resyncs, _ := r.Stats(); applied != 0 || resyncs != 0 {
				t.Fatalf("idle replica applied %d, resynced %d", applied, resyncs)
			}
		})
	}
}

// TestStartedReplicaAppliesOnAppend: the append itself wakes the parked
// fetch, and the replica converges without a Sync by hand.
func TestStartedReplicaAppliesOnAppend(t *testing.T) {
	p := testPrimary(t, 16, 5)
	r, err := JoinReplica(p, ReplicaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Start()
	e := absentEdge(t, p)
	for i := 0; i < 3; i++ {
		waitFor(t, "the fetch to park", func() bool { return parked(p.Log()) })
		toggleEdge(t, p, e)
		want := p.Log().LastSeq()
		waitFor(t, "the replica to apply", func() bool { return r.WalSeq() == want })
	}
	requireConverged(t, p, r)
}

// TestReplicaCloseCancelsParkedFetch: Close returns while the sync loop's
// fetch is parked, and the source sees the cancellation.
func TestReplicaCloseCancelsParkedFetch(t *testing.T) {
	p := testPrimary(t, 16, 5)
	src := &countingSource{Source: p}
	r, err := JoinReplica(src, ReplicaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	waitFor(t, "the fetch to park", func() bool { return parked(p.Log()) })
	closed := make(chan struct{})
	go func() {
		r.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on the parked fetch")
	}
	// A fetch that ran out its safety wait would see DeadlineExceeded.
	if _, ctxErrs := src.snapshot(); !errors.Is(ctxErrs[len(ctxErrs)-1], context.Canceled) {
		t.Fatalf("fetch ctx errors %v, want the last ended by context.Canceled", ctxErrs)
	}
}

// TestPrimaryCloseWakesParkedFetch: a fetch parked on a primary returns
// ErrClosed when the primary closes.
func TestPrimaryCloseWakesParkedFetch(t *testing.T) {
	p := testPrimary(t, 16, 5)
	done := make(chan error, 1)
	go func() {
		_, err := p.FetchWAL(context.Background(), p.Log().LastSeq())
		done <- err
	}()
	waitFor(t, "the fetch to park", func() bool { return parked(p.Log()) })
	p.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("woken fetch err = %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not wake the parked fetch")
	}
}

// TestLogWaitNoLostWakeup: an append racing a waiter into its park is never
// missed — the waiter returns the record after its position. Both sides are
// released together so the append lands anywhere in the waiter's read-park
// window.
func TestLogWaitNoLostWakeup(t *testing.T) {
	l := NewLog()
	const rounds = 2000
	for i := 0; i < rounds; i++ {
		after := l.LastSeq()
		start := make(chan struct{})
		got := make(chan uint64, 1)
		go func() {
			<-start
			recs, err := l.Wait(context.Background(), after)
			if err != nil || len(recs) == 0 {
				got <- 0
				return
			}
			got <- recs[0].Seq
		}()
		go func() {
			<-start
			l.Append(Record{Kind: RecLink, U: 1, V: 2})
		}()
		close(start)
		select {
		case seq := <-got:
			if seq != after+1 {
				t.Fatalf("round %d: waiter got seq %d, want %d", i, seq, after+1)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: waiter missed the append", i)
		}
	}
}

// TestLogWaitReturnsEarly: a done context, a position past the frontier and
// a truncated position all answer without parking.
func TestLogWaitReturnsEarly(t *testing.T) {
	l := NewLog()
	l.Append(Record{Kind: RecLink, U: 1, V: 2})
	l.Append(Record{Kind: RecLink, U: 1, V: 2})
	if recs, err := l.Wait(NoWait, 2); err != nil || len(recs) != 0 {
		t.Fatalf("done ctx: %d records, err %v", len(recs), err)
	}
	if recs, err := l.Wait(NoWait, 1); err != nil || len(recs) != 1 {
		t.Fatalf("done ctx with a record: %d records, err %v", len(recs), err)
	}
	if recs, err := l.Wait(context.Background(), 7); err != nil || len(recs) != 0 {
		t.Fatalf("past the frontier: %d records, err %v", len(recs), err)
	}
	l.TruncateTo(2)
	if _, err := l.Wait(context.Background(), 0); !errors.Is(err, ErrGone) {
		t.Fatalf("truncated position: err %v, want ErrGone", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if recs, err := l.Wait(ctx, 2); err != nil || len(recs) != 0 {
		t.Fatalf("expired wait: %d records, err %v", len(recs), err)
	}
}

// TestConcurrentSyncsApplyOnce: hand-driven Sync calls racing a started
// replica's loop — what a shard split's post-cutover Sync, SyncAll and a
// gate's quiesce do — apply each record once. Three Syncs race the loop
// after every toggle; the replica must never resync and must end converged.
func TestConcurrentSyncsApplyOnce(t *testing.T) {
	p := testTablesPrimary(t, 64, 3)
	r, err := JoinReplica(p, ReplicaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Start()
	e := absentEdge(t, p)
	for i := 0; i < 200; i++ {
		toggleEdge(t, p, e)
		var wg sync.WaitGroup
		for k := 0; k < 3; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = r.Sync()
			}()
		}
		wg.Wait()
	}
	want := p.Log().LastSeq()
	waitFor(t, "the replica to apply every record", func() bool { return r.WalSeq() == want })
	if _, resyncs, _ := r.Stats(); resyncs != 0 {
		t.Fatalf("%d resyncs, want 0", resyncs)
	}
	requireConverged(t, p, r)
}

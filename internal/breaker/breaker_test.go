package breaker

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// race runs rivals concurrent Allow calls at now and returns how many were
// admitted.
func race(b *Breaker, now int64) int32 {
	const rivals = 64
	var admitted atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < rivals; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b.Allow(now) {
				admitted.Add(1)
			}
		}()
	}
	wg.Wait()
	return admitted.Load()
}

// TestHalfOpenSingleProbe pins the half-open contract under concurrent
// callers: once the cooldown expires, exactly one caller is admitted as the
// probe while every concurrent rival keeps seeing the breaker open; the
// probe's outcome then either closes the breaker for everyone or re-arms the
// cooldown with the probe slot released. Run with -race.
func TestHalfOpenSingleProbe(t *testing.T) {
	b := &Breaker{Threshold: 2, Cooldown: time.Millisecond}
	now := time.Now().UnixNano()

	b.Failure(now)
	b.Failure(now)
	if b.Allow(now) {
		t.Fatal("breaker not open after threshold failures")
	}

	// Past the cooldown deadline: concurrent callers race for the probe.
	after := now + b.Cooldown.Nanoseconds() + 1
	if got := race(b, after); got != 1 {
		t.Fatalf("half-open admitted %d probes, want exactly 1", got)
	}

	// Probe fails: cooldown re-arms, and after it expires again exactly one
	// new probe is admitted (the slot was released, not leaked).
	if !b.Failure(after) {
		t.Fatal("failed probe not reported as a trip")
	}
	if b.Allow(after) {
		t.Fatal("breaker not re-armed after failed probe")
	}
	later := after + b.Cooldown.Nanoseconds() + 1
	if got := race(b, later); got != 1 {
		t.Fatalf("second half-open admitted %d probes, want exactly 1", got)
	}

	// Probe succeeds: the breaker closes for everyone.
	b.Success()
	if got := race(b, later); got != 64 {
		t.Fatalf("closed breaker admitted %d of 64 callers", got)
	}
}

// TestTripAtThreshold: the Threshold-th consecutive failure trips the
// breaker and reports it; a success in between restarts the count.
func TestTripAtThreshold(t *testing.T) {
	b := &Breaker{Threshold: 3, Cooldown: time.Second}
	const now = int64(1000)
	for i := 1; i < 3; i++ {
		if b.Failure(now) {
			t.Fatalf("failure %d of 3 tripped", i)
		}
	}
	b.Success()
	for i := 1; i < 3; i++ {
		if b.Failure(now) {
			t.Fatalf("failure %d of 3 after a success tripped", i)
		}
	}
	if !b.Allow(now) || b.Open(now) {
		t.Fatal("breaker open below threshold")
	}
	if !b.Failure(now) {
		t.Fatal("third consecutive failure did not trip")
	}
	if b.Allow(now) || !b.Open(now) {
		t.Fatal("breaker closed after tripping")
	}
	if end := now + b.Cooldown.Nanoseconds(); b.Open(end) || !b.Open(end-1) {
		t.Fatal("cooldown does not end exactly Cooldown after the trip")
	}
}

// TestReleaseFreesProbe: a probe released without a verdict neither closes
// nor re-arms the breaker, and the next caller becomes the probe.
func TestReleaseFreesProbe(t *testing.T) {
	b := &Breaker{Threshold: 1, Cooldown: time.Millisecond}
	b.Failure(0)
	after := b.Cooldown.Nanoseconds()
	if !b.Allow(after) {
		t.Fatal("no probe admitted after the cooldown")
	}
	if b.Allow(after) {
		t.Fatal("second probe admitted while the first holds the slot")
	}
	b.Release()
	if got := race(b, after); got != 1 {
		t.Fatalf("after Release %d probes admitted, want exactly 1", got)
	}
	b.Release()
	if b.Allow(after - 1) {
		t.Fatal("Release closed the breaker or moved its deadline")
	}
}

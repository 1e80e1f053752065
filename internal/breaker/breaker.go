// Package breaker is the circuit breaker both serving fronts share:
// serve.Server keeps one per worker shard, shard.Router one per shard group.
package breaker

import (
	"sync/atomic"
	"time"
)

// Breaker is one lock-free circuit breaker. Threshold consecutive failures
// trip it open for Cooldown; after that, the first Allow takes the probe slot
// and is admitted as the half-open probe while every rival is still refused.
// Success closes the breaker, Failure re-arms the cooldown, and Release frees
// the slot with neither verdict. Times are int64 nanoseconds on the caller's
// clock. The zero value is closed; set Threshold and Cooldown before use.
//
// Single probe: a verdict re-arms or closes the breaker before it frees the
// slot, and the slot's winner re-checks the deadline it saw expire, so no
// second probe is admitted before a fresh cooldown has passed. Verdicts
// carry no token, so a failure from a call admitted before the trip that
// lands while a probe is in flight counts as the probe's verdict: it re-arms,
// counts as a trip and frees the slot (serve's old breaker did the same; the
// shard front's also freed and re-armed, but counted no trip). A failure
// while open with no probe in flight counts toward the next trip, where the
// shard front's breaker re-armed the cooldown on every such failure.
type Breaker struct {
	Threshold int
	Cooldown  time.Duration

	fails     atomic.Int32
	openUntil atomic.Int64 // end of the cooldown; 0 = closed
	probing   atomic.Bool  // the half-open probe slot is taken
}

// Allow reports whether a call may go ahead at now: always while closed,
// never during the cooldown, and after it only for the one caller that takes
// the probe slot. That caller must report Success, Failure or Release.
func (b *Breaker) Allow(now int64) bool {
	u := b.openUntil.Load()
	if u == 0 {
		return true
	}
	if now < u || !b.probing.CompareAndSwap(false, true) {
		return false
	}
	if b.openUntil.Load() != u {
		// A verdict landed between the load and the CAS and freed the slot
		// this caller just took: the breaker it saw is gone, so hand the
		// slot back and refuse this one call.
		b.probing.Store(false)
		return false
	}
	return true
}

// Success records a call that went through: the failure run resets and an
// open breaker closes.
func (b *Breaker) Success() {
	b.fails.Store(0)
	if b.openUntil.Load() != 0 {
		b.openUntil.Store(0)
	}
	b.probing.Store(false)
}

// Failure records a failed call at now and reports whether it tripped the
// breaker: the Threshold-th consecutive failure, or any failure while the
// probe slot is taken, opens it for a fresh cooldown.
func (b *Breaker) Failure(now int64) (tripped bool) {
	if b.probing.Load() {
		b.trip(now)
		b.probing.Store(false) // last, so no rival probes before the re-arm
		return true
	}
	if int(b.fails.Add(1)) < b.Threshold {
		return false
	}
	b.trip(now)
	return true
}

func (b *Breaker) trip(now int64) {
	b.fails.Store(0)
	b.openUntil.Store(now + b.Cooldown.Nanoseconds())
}

// Release frees the probe slot without a verdict, for a probe whose answer
// says nothing about the guarded service's health. The breaker stays open
// with its cooldown spent, so the next Allow becomes the probe.
func (b *Breaker) Release() { b.probing.Store(false) }

// Open reports whether the breaker is inside its cooldown at now.
func (b *Breaker) Open(now int64) bool {
	u := b.openUntil.Load()
	return u != 0 && now < u
}

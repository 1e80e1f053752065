package cluster

import (
	"testing"
	"time"
)

// TestBackoffDelayBounds pins the resync backoff contract: with no failures
// the delay is exactly the base (no jitter), each failure doubles the delay
// up to the cap, and jitter never leaves the ±25% band around the capped
// nominal delay.
func TestBackoffDelayBounds(t *testing.T) {
	base := 100 * time.Millisecond
	max := 800 * time.Millisecond

	for _, unit := range []float64{0, 0.25, 0.5, 1} {
		if d := backoffDelay(base, max, 0, unit); d != base {
			t.Fatalf("steady state with unit=%v: %v, want exactly %v", unit, d, base)
		}
	}

	for failures := 1; failures <= 12; failures++ {
		nominal := base
		for i := 0; i < failures && nominal < max; i++ {
			nominal *= 2
		}
		if nominal > max {
			nominal = max
		}
		lo := time.Duration(float64(nominal) * 0.75)
		hi := time.Duration(float64(nominal) * 1.25)
		for _, unit := range []float64{0, 0.25, 0.5, 0.999, 1} {
			d := backoffDelay(base, max, failures, unit)
			if d < lo || d > hi {
				t.Fatalf("failures=%d unit=%v: delay %v outside [%v, %v]", failures, unit, d, lo, hi)
			}
		}
		// Jitter is monotone in the random unit at fixed failure count.
		if a, b := backoffDelay(base, max, failures, 0), backoffDelay(base, max, failures, 1); a >= b {
			t.Fatalf("failures=%d: jitter not monotone (%v at unit=0, %v at unit=1)", failures, a, b)
		}
	}

	// Far past the doubling horizon the cap (plus jitter headroom) holds.
	if d := backoffDelay(base, max, 1000, 1); d > time.Duration(float64(max)*1.25) {
		t.Fatalf("capped delay %v exceeds 1.25×cap %v", d, max)
	}
	// The ramp is monotone in failure count until the cap flattens it.
	prev := backoffDelay(base, max, 0, 0.5)
	for failures := 1; failures <= 6; failures++ {
		d := backoffDelay(base, max, failures, 0.5)
		if d < prev {
			t.Fatalf("failures=%d: delay %v shrank from %v", failures, d, prev)
		}
		prev = d
	}
}

package serve

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestRetryAfterJitterBounds pins the shed hint's jitter band: every draw
// stays within ×0.75…×1.25 of the un-jittered drain estimate (before the
// absolute clamp), draws are not all identical (no lockstep retries), and the
// absolute floor/ceiling still hold.
func TestRetryAfterJitterBounds(t *testing.T) {
	s := newTestServer(t, 32, 7, "fulltable", ServerOptions{Shards: 1, QueueCap: 100})

	// Mid-band base: 20µs × 100 = 2ms, far from both clamps.
	s.avgJobNs.Store(int64(20 * time.Microsecond))
	base := 20 * time.Microsecond * 100
	lo := base * retryJitterLoNum / retryJitterDen
	hi := base * retryJitterHiNum / retryJitterDen
	seen := make(map[time.Duration]bool)
	for i := 0; i < 1000; i++ {
		d := s.retryAfterHint()
		if d < lo || d >= hi {
			t.Fatalf("hint %v outside jitter band [%v, %v)", d, lo, hi)
		}
		seen[d] = true
	}
	if len(seen) < 2 {
		t.Fatalf("1000 hints collapsed to %d distinct values — no jitter", len(seen))
	}

	// Ceiling: a huge base must still clamp to 50ms even after ×1.25.
	s.avgJobNs.Store(int64(time.Millisecond))
	for i := 0; i < 100; i++ {
		if d := s.retryAfterHint(); d > 50*time.Millisecond {
			t.Fatalf("hint %v above the 50ms ceiling", d)
		}
	}
	// Floor: a tiny base must still clamp up to 100µs even after ×0.75.
	s.avgJobNs.Store(1)
	for i := 0; i < 100; i++ {
		if d := s.retryAfterHint(); d < 100*time.Microsecond {
			t.Fatalf("hint %v below the 100µs floor", d)
		}
	}
}

// TestFlushPersistShutdown is the shutdown-flush regression test: a daemon's
// SIGTERM path calls Engine.FlushPersist after draining, and that flush must
// rewrite the snapshot file even when the publish-time save is gone (e.g. it
// failed transiently, or the file was rotated away) — so the freshest state
// is on disk at exit.
func TestFlushPersistShutdown(t *testing.T) {
	eng, err := NewEngine(testGraph(t, 32, 9), "fulltable")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.rtsnap")
	if err := eng.EnablePersist(path); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Reload(); err != nil {
		t.Fatal(err)
	}
	want := eng.Current().Seq

	// Simulate a lost publish-time save: the file vanishes between the last
	// publication and shutdown.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := eng.FlushPersist(); err != nil {
		t.Fatal(err)
	}
	sd, err := LoadSnapshot(path)
	if err != nil {
		t.Fatalf("snapshot unreadable after shutdown flush: %v", err)
	}
	if sd.Seq != want {
		t.Fatalf("flushed seq %d, current %d", sd.Seq, want)
	}
	if !eng.Current().Graph.Equal(sd.Graph) {
		t.Fatal("flushed topology differs from the serving snapshot")
	}
}

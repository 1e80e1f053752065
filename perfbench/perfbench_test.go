package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.9, 9}, {0.95, 10}, {0.99, 10}, {1, 10},
	}
	for _, c := range cases {
		if got := quantile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("quantile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{42}, 0.99); got != 42 {
		t.Errorf("single sample: got %v", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("empty: got %v, want NaN", got)
	}
	if got := nsQuantile(nil, 0.5, time.Millisecond); got != 0 {
		t.Errorf("empty nsQuantile: got %v, want 0", got)
	}
	if got := nsQuantile([]float64{1500, 2500, 3500}, 0.5, time.Microsecond); got != 2.5 {
		t.Errorf("nsQuantile: got %v, want 2.5", got)
	}
}

func TestTrimmedRateDropsTheSlowestSamples(t *testing.T) {
	// 99 batches of 64 keys in 10µs each, and one stall of 10ms.
	ns := make([]float64, 100)
	items := make([]int32, 100)
	for i := range ns {
		ns[i], items[i] = 10e3, 64
	}
	ns[42] = 10e6
	// The stall is above the p99 and is left out: 64 keys per 10µs.
	if got, want := trimmedRate(ns, items, 0.99), 6.4e6; math.Abs(got-want) > 1e-6*want {
		t.Errorf("trimmed rate = %v, want %v", got, want)
	}
	if ns[42] != 10e6 {
		t.Error("trimmedRate reordered its input")
	}
	// Untrimmed, the one stall cuts the rate elevenfold: 6400 keys in 10.99ms.
	if got, want := trimmedRate(ns, items, 1), 6400/10.99e-3; math.Abs(got-want) > 1e-6*want {
		t.Errorf("untrimmed rate = %v, want %v", got, want)
	}
	// Incorrect answers count as time but not as items.
	items[0] = 0
	if got, want := trimmedRate(ns, items, 0.99), 98*64/990e-6; math.Abs(got-want) > 1e-6*want {
		t.Errorf("rate with a failed batch = %v, want %v", got, want)
	}
	if got := trimmedRate(nil, nil, 0.99); got != 0 {
		t.Errorf("empty: got %v, want 0", got)
	}
}

// synthetic builds a tracer holding two traced batches: a root with a
// replayed child that has its own child, mirroring wire → serve → nexthop.
func synthetic(t *testing.T) *tracer {
	t.Helper()
	origin := time.Unix(0, 0)
	at := func(ns int64) time.Time { return origin.Add(time.Duration(ns)) }
	tr := newTracer(origin, 16)
	for b, base := range []int64{0, 1000} {
		root := tr.add("wire.rtt", int64(b), -1, 64, at(base), at(base+100))
		batch := tr.add("serve.batch", int64(b), root, 64, at(base+200), at(base+240+int64(b)*20))
		tr.add("fulltable.nexthop", int64(b), batch, 64, at(base+300), at(base+332))
	}
	return tr
}

func TestSelfTimesSubtractDirectChildren(t *testing.T) {
	tr := synthetic(t)
	// wire.rtt lasts 100 in both batches; its serve.batch child lasts 40
	// then 60, so the wire's self time is 60 then 40.
	got := selfTimes(tr.spans, "wire.rtt")
	if len(got) != 2 || got[0] != 60 || got[1] != 40 {
		t.Fatalf("wire self times = %v, want [60 40]", got)
	}
	// serve.batch minus its nexthop child (32): 8 then 28. Grandchildren
	// do not count against the root.
	got = selfTimes(tr.spans, "serve.batch")
	if len(got) != 2 || got[0] != 8 || got[1] != 28 {
		t.Fatalf("serve self times = %v, want [8 28]", got)
	}
	if q := quantile(selfTimes(tr.spans, "serve.batch"), 0.5); q != 8 {
		t.Fatalf("median serve self = %v, want 8", q)
	}
	// A leaf's self time is its duration.
	if got := selfTimes(tr.spans, "fulltable.nexthop"); got[0] != 32 {
		t.Fatalf("leaf self time = %v, want 32", got[0])
	}
}

func TestDurationsAndPerItem(t *testing.T) {
	tr := synthetic(t)
	d := durations(tr.spans, "serve.batch")
	if len(d) != 2 || d[0] != 40 || d[1] != 60 {
		t.Fatalf("durations = %v, want [40 60]", d)
	}
	p := perItem(tr.spans, "fulltable.nexthop")
	if len(p) != 2 || p[0] != 0.5 || p[1] != 0.5 {
		t.Fatalf("per item = %v, want [0.5 0.5]", p)
	}
	if got := durations(tr.spans, "shard.front"); len(got) != 0 {
		t.Fatalf("absent layer: got %v", got)
	}
}

func TestTracerCapacityDropsInsteadOfGrowing(t *testing.T) {
	tr := newTracer(time.Now(), 2)
	now := time.Now()
	if i := tr.add("a", 0, -1, 1, now, now); i != 0 {
		t.Fatalf("first index = %d", i)
	}
	if !tr.full(2) || tr.full(1) {
		t.Fatalf("full() wrong with one free slot")
	}
	tr.add("b", 0, 0, 1, now, now)
	if i := tr.add("c", 0, 0, 1, now, now); i != -1 || tr.dropped != 1 || len(tr.spans) != 2 {
		t.Fatalf("overflow: index %d dropped %d len %d", i, tr.dropped, len(tr.spans))
	}
	var nilTr *tracer
	if i := nilTr.add("x", 0, -1, 1, now, now); i != -1 || !nilTr.full(0) {
		t.Fatalf("nil tracer must record nothing")
	}
}

func TestScheduleKeepsGraphConnectedAndIsSeeded(t *testing.T) {
	g, err := workloads["churn-shard-n4096"].graph(rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	a, err := makeSchedule(g, 40, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := makeSchedule(g, 40, rand.New(rand.NewSource(9)))
	mirror := g.Clone()
	adds := 0
	for k, f := range a {
		if f != b[k] {
			t.Fatalf("flip %d differs between runs with one seed: %v vs %v", k, f, b[k])
		}
		if err := f.apply(mirror); err != nil {
			t.Fatalf("flip %d (%v) does not apply: %v", k, f, err)
		}
		if !mirror.IsConnected() {
			t.Fatalf("flip %d (%v) disconnects the graph", k, f)
		}
		if f.add {
			adds++
		}
	}
	if adds == 0 || adds == len(a) {
		t.Fatalf("schedule should mix additions and removals, got %d additions of %d", adds, len(a))
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one lookup batch or one
// flip share id; parent indexes the span that caused this one in the same
// tracer (-1 for a root). items is how many keys or records the call
// handled, so per-key costs can be derived from one span.
type span struct {
	name   string
	id     int64
	parent int32
	items  int32
	start  int64 // ns since the tracer's origin
	end    int64
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory until the run ends. It is owned by one
// goroutine; a workload with a lookup client and a mutation driver gives
// each its own tracer. A nil *tracer records nothing, so untraced runs pay
// only a nil check.
type tracer struct {
	origin  time.Time
	spans   []span
	dropped int
}

func newTracer(origin time.Time, capacity int) *tracer {
	return &tracer{origin: origin, spans: make([]span, 0, capacity)}
}

// add records a finished span and returns its index for children to name
// as their parent. Once the preallocated capacity is used up, further spans
// are counted as dropped rather than grown into, so recording never
// allocates mid-run.
func (t *tracer) add(name string, id int64, parent int32, items int, start, end time.Time) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{
		name: name, id: id, parent: parent, items: int32(items),
		start: int64(start.Sub(t.origin)), end: int64(end.Sub(t.origin)),
	})
	return int32(len(t.spans) - 1)
}

// full reports whether the tracer has no room for a span group of size k.
func (t *tracer) full(k int) bool { return t == nil || len(t.spans)+k > cap(t.spans) }

// durations returns the duration in ns of every span named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// perItem returns, for every span named name, its duration divided by the
// number of items it handled.
func perItem(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name && s.items > 0 {
			out = append(out, float64(s.dur())/float64(s.items))
		}
	}
	return out
}

// selfTimes returns, for every span named name, its duration minus the
// summed durations of its direct children. Children here are replays of
// the layer below on the same batch or flip, so they need not lie inside
// the parent's interval; the difference is the parent layer's own cost.
func selfTimes(spans []span, name string) []float64 {
	child := make(map[int32]int64)
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.dur()
		}
	}
	var out []float64
	for i, s := range spans {
		if s.name == name {
			out = append(out, float64(s.dur()-child[int32(i)]))
		}
	}
	return out
}

// quantile returns the q-quantile of xs by the nearest-rank rule: the
// smallest sample with at least q of the samples at or below it. It sorts
// xs in place and returns NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// nsQuantile converts the q-quantile of ns samples into unit (a duration
// such as time.Microsecond); an empty sample set reads 0.
func nsQuantile(xs []float64, q float64, unit time.Duration) float64 {
	v := quantile(xs, q)
	if math.IsNaN(v) {
		return 0
	}
	return v / float64(unit)
}

// writeSpans writes the provenance line and then one JSON object per span.
func writeSpans(path string, prov provenance, tracers ...*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"provenance": prov}); err != nil {
		f.Close()
		return err
	}
	type rec struct {
		Tracer int    `json:"tracer"`
		Index  int    `json:"index"`
		Name   string `json:"name"`
		ID     int64  `json:"id"`
		Parent int32  `json:"parent"`
		Items  int32  `json:"items"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	for ti, t := range tracers {
		if t == nil {
			continue
		}
		for i, s := range t.spans {
			r := rec{ti, i, s.name, s.id, s.parent, s.items, s.start, s.end}
			if err := enc.Encode(r); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("flush %s: %w", path, err)
	}
	return f.Close()
}

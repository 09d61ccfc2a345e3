package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public API, recorded by the
// benchmark around the call. n carries the call's work count (moves,
// messages) where one applies.
type span struct {
	id, parent int64
	layer      string // module the call enters: envpool, strategy, sched, ...
	name       string // operation or protocol within the layer
	worker     int
	start, end time.Duration // since the tracer's origin
	n          int64
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer holds spans in memory until the run ends. It is safe for
// concurrent use; a nil tracer records nothing.
type tracer struct {
	origin time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin allocates a span id and returns it with the start time.
func (t *tracer) begin() (int64, time.Time) {
	if t == nil {
		return 0, time.Time{}
	}
	return t.nextID.Add(1), time.Now()
}

// end records a span that began at start and ends now.
func (t *tracer) end(id, parent int64, layer, name string, worker int, start time.Time, n int64) {
	if t == nil {
		return
	}
	t.record(span{id: id, parent: parent, layer: layer, name: name, worker: worker,
		start: start.Sub(t.origin), end: time.Since(t.origin), n: n})
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// find returns the spans of one layer with one name.
func (t *tracer) find(layer, name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.layer == layer && s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the spans' durations in the given unit.
func durations(spans []span, unit time.Duration) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / float64(unit)
	}
	return out
}

// selfOf returns each span's self time: its duration minus the part of
// its interval covered by its children.
func (t *tracer) selfOf() map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(t.spans))
	for _, s := range t.spans {
		self[s.id] = s.dur() - covered(s, children[s.id])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total time.Duration
	lo, hi := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		a, b := max(k.start, parent.start), min(k.end, parent.end)
		if b <= a {
			continue
		}
		if a > hi {
			if hi > lo {
				total += hi - lo
			}
			lo, hi = a, b
		} else if b > hi {
			hi = b
		}
	}
	if hi > lo {
		total += hi - lo
	}
	return total
}

type layerTime struct {
	layer string
	ms    float64
}

// selfTimes sums span self time per layer, in layer order.
func (t *tracer) selfTimes() []layerTime {
	self := t.selfOf()
	sum := map[string]time.Duration{}
	for _, s := range t.spans {
		sum[s.layer] += self[s.id]
	}
	out := make([]layerTime, 0, len(sum))
	for l, d := range sum {
		out = append(out, layerTime{layer: l, ms: float64(d) / float64(time.Millisecond)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].layer < out[j].layer })
	return out
}

// selfByName returns the summed self time and work count of one
// layer's spans, per span name.
func (t *tracer) selfByName(layer string) (map[string]time.Duration, map[string]int64) {
	self := t.selfOf()
	d, n := map[string]time.Duration{}, map[string]int64{}
	for _, s := range t.spans {
		if s.layer == layer {
			d[s.name] += self[s.id]
			n[s.name] += s.n
		}
	}
	return d, n
}

// selfSamples returns the self time of each of one layer's spans of
// one name, in the given unit.
func (t *tracer) selfSamples(layer, name string, unit time.Duration) []float64 {
	self := t.selfOf()
	var out []float64
	for _, s := range t.spans {
		if s.layer == layer && s.name == name {
			out = append(out, float64(self[s.id])/float64(unit))
		}
	}
	return out
}

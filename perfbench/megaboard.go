package main

import (
	goruntime "runtime"
	"runtime/metrics"
	"sync"
	"time"

	"hypersearch/internal/core"
)

// megaboard runs single boards past the materialize limit, serially,
// each checked against the paper's closed forms. Time and memory here
// belong to the packed board, the DES heap and baton hand-off (clean)
// and the inline actors (visibility); pool reset and sched barely
// register, so a board or kernel change shows here and not in serve.
type megaboard struct {
	boards   []core.Spec
	src      *timedSource
	topology time.Duration
	base     uint64 // live heap before any set-up
}

var (
	megaProtocols = []string{core.Clean, core.Visibility}
	megaDims      = []int{16, 18, 20}
)

// newMegaboard ignores the seed: the boards are the fixed scale points
// at unit latency, whose results the closed forms determine. Their
// order is fixed too, since it decides the live heap each board's
// collections start from, and so the peak RSS.
func newMegaboard(int64) *megaboard {
	_, base := settle()
	return &megaboard{base: base, boards: []core.Spec{
		{Strategy: core.Clean, Dim: 16},
		{Strategy: core.Clean, Dim: 18},
		{Strategy: core.Visibility, Dim: 18},
		{Strategy: core.Visibility, Dim: 20},
	}}
}

func (m *megaboard) setup() error {
	if m.topology == 0 {
		m.topology = topologies(megaDims)
	}
	m.src = newTimedSource(0, megaDims)
	return nil
}

func (m *megaboard) teardown() { m.src = nil }

// measure cycles through the boards until the deadline (at least once
// each). A pass is the four boards: its moves over the sum of each
// board's median time, and the sum of each board's median CPU time.
func (m *megaboard) measure(deadline time.Time, rep *report) float64 {
	times := make([][]float64, len(m.boards))
	cpu := make([][]float64, len(m.boards))
	var moves int64
	for i := 0; i < len(m.boards) || time.Now().Before(deadline); i++ {
		b := i % len(m.boards)
		// Start every board from a collected heap: with hundreds of
		// megabytes live, where a collection cycle happens to fall
		// would otherwise decide a board's time.
		goruntime.GC()
		c, t := cpuNow(), time.Now()
		r, problem := runDES(m.src, m.boards[b], 0)
		times[b] = append(times[b], time.Since(t).Seconds())
		cpu[b] = append(cpu[b], cpuNow()-c)
		rep.check(problem)
		if i < len(m.boards) {
			moves += r.TotalMoves
		}
	}
	var wall, cpuPass float64
	for b := range times {
		wall += median(times[b])
		cpuPass += median(cpu[b])
	}
	rate := float64(moves) / wall
	n := len(times[len(times)-1])
	rep.addN("sim_moves_per_s", rate, "1/s", n)
	rep.addN("cpu_s", cpuPass, "s", n)
	return rate
}

// traced runs every board once on the warm pool, sampling the heap:
// board.bytes_per_node is the heap at the pass's peak, above the heap
// before any set-up, over the nodes of the boards the pool holds.
func (m *megaboard) traced(tr *tracer, rep *report) float64 {
	peak := sampleHeap()
	m.src.tr = tr
	var c counts
	var wall time.Duration
	for _, b := range m.boards {
		goruntime.GC() // as in measure
		t := time.Now()
		r, problem := runDES(m.src, b, 0)
		wall += time.Since(t)
		rep.check(problem)
		c.add(r)
	}
	top := peak()
	var nodes int64
	for _, d := range megaDims {
		nodes += 1 << d
	}
	c.report(rep)
	rep.add("board.bytes_per_node", float64(top-m.base)/float64(nodes), "B")
	addEnvpool(tr, rep, m.topology)
	addStrategy(tr, rep, megaProtocols)
	return float64(c.moves) / wall.Seconds()
}

// sampleHeap polls the bytes of live and not-yet-swept heap objects
// every millisecond until the returned function is called, which
// stops the poller and returns the highest reading.
func sampleHeap() func() uint64 {
	const name = "/memory/classes/heap/objects:bytes"
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var top uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := []metrics.Sample{{Name: name}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			top = max(top, s[0].Value.Uint64())
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(stop)
		wg.Wait()
		return top
	}
}

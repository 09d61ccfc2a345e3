package main

import (
	"math/rand"
	goruntime "runtime"
	"time"

	"hypersearch/internal/core"
	"hypersearch/internal/metrics"
	"hypersearch/internal/sched"
)

// sweep is a batch of DES runs fanned out by sched.MapW over one
// worker per CPU, each worker with a long-lived pool: the shape of
// hqexperiments and the hqserved fleet. Many short and medium runs put
// pool reset, the DES event path, the strategy rules and sched load
// balance on the critical path, and HTTP, the journal and the cache
// not at all.
type sweep struct {
	tasks    []core.Spec
	workers  int
	srcs     []*timedSource
	topology time.Duration // first build of the shared topologies
}

var (
	sweepProtocols = []string{core.Clean, core.Visibility, core.Cloning, core.Synchronous}
	sweepDims      = []int{4, 5, 6, 7, 8, 9, 10, 11, 12}
)

// sweepSeeds is the number of runs per (protocol, d), each with its
// own run seed; half run at unit latency and half under adversarial
// latency 13, so every seed asks for the same mix of work.
const sweepSeeds = 4

func newSweep(seed int64) *sweep {
	rng := rand.New(rand.NewSource(seed))
	s := &sweep{workers: goruntime.NumCPU()}
	for _, p := range sweepProtocols {
		for _, d := range sweepDims {
			for i := 0; i < sweepSeeds; i++ {
				spec := core.Spec{Strategy: p, Dim: d, Seed: rng.Int63n(1 << 31)}
				if i%2 == 1 {
					spec.AdversarialLatency = 13
				}
				s.tasks = append(s.tasks, spec)
			}
		}
	}
	return s
}

func (s *sweep) setup() error {
	if s.topology == 0 {
		s.topology = topologies(sweepDims)
	}
	s.srcs = make([]*timedSource, s.workers)
	for w := range s.srcs {
		s.srcs[w] = newTimedSource(w, sweepDims)
	}
	return nil
}

func (s *sweep) teardown() { s.srcs = nil }

// pass runs the whole batch once and returns its moves per second and
// exact counts. With a tracer, the MapW call and each task are spans.
func (s *sweep) pass(tr *tracer, rep *report) (float64, counts) {
	passID, t := tr.begin()
	start := time.Now()
	res, err := sched.MapW(s.workers, len(s.tasks), func(w, i int) (taskResult, error) {
		src := s.srcs[w]
		src.tr = tr
		id, t := tr.begin()
		r, problem := runDES(src, s.tasks[i], id)
		tr.end(id, passID, "sched", "task", w, t, 0)
		return taskResult{r: r, problem: problem}, nil
	})
	wall := time.Since(start)
	tr.end(passID, 0, "sched", "mapw", 0, t, 0)
	var c counts
	if err != nil {
		rep.check("sched: " + err.Error())
		return 0, c
	}
	for _, r := range res {
		rep.check(r.problem)
		c.add(r.r)
	}
	return float64(c.moves) / wall.Seconds(), c
}

func (s *sweep) measure(deadline time.Time, rep *report) float64 {
	var rates, cpu []float64
	for len(rates) == 0 || time.Now().Before(deadline) {
		c := cpuNow()
		rate, _ := s.pass(nil, rep)
		rates = append(rates, rate)
		cpu = append(cpu, cpuNow()-c)
	}
	rate := median(rates)
	rep.addN("sim_moves_per_s", rate, "1/s", len(rates))
	rep.addN("cpu_s", median(cpu), "s", len(cpu))
	return rate
}

// sweepTracedPasses is the fixed work of the traced phase.
const sweepTracedPasses = 6

func (s *sweep) traced(tr *tracer, rep *report) float64 {
	var c counts
	var rates []float64
	for i := 0; i < sweepTracedPasses; i++ {
		rate, pc := s.pass(tr, rep)
		rates = append(rates, rate)
		c = pc
	}
	c.report(rep)
	addEnvpool(tr, rep, s.topology)
	addStrategy(tr, rep, sweepProtocols)
	addSched(tr, rep, s.workers)
	return median(rates)
}

// addSched adds the scheduler's busy share (task time over workers ×
// pass wall time) and tail, the median over passes of the time from
// the first worker going idle to the last task finishing.
func addSched(tr *tracer, rep *report, workers int) {
	var busy, wall time.Duration
	var tails []float64
	tasks := tr.find("sched", "task")
	for _, p := range tr.find("sched", "mapw") {
		wall += p.dur()
		last := map[int]time.Duration{}
		for _, t := range tasks {
			if t.parent != p.id {
				continue
			}
			busy += t.dur()
			if t.end > last[t.worker] {
				last[t.worker] = t.end
			}
		}
		first, end := p.end, p.start
		for w := 0; w < workers; w++ {
			l, ok := last[w]
			if !ok {
				l = p.start // a worker that ran nothing idled from the start
			}
			first, end = min(first, l), max(end, l)
		}
		tails = append(tails, float64(end-first)/float64(time.Millisecond))
	}
	if wall > 0 {
		rep.add("sched.busy_frac", float64(busy)/(float64(workers)*float64(wall)), "frac")
	}
	rep.addDist("sched.tail_ms", tails, "ms", false)
}

type taskResult struct {
	r       metrics.Result
	problem string
}

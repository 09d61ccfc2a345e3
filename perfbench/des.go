package main

import (
	"fmt"
	"time"

	"hypersearch/internal/combin"
	"hypersearch/internal/core"
	"hypersearch/internal/envpool"
	"hypersearch/internal/metrics"
	"hypersearch/internal/strategy"
)

// timedSource is the benchmark-side strategy.Source around one
// envpool.Pool: it records every Acquire and Release as an envpool
// span. Like the pool it wraps, it serves one goroutine at a time.
type timedSource struct {
	pool   *envpool.Pool
	tr     *tracer
	parent int64 // span the next Acquire or Release belongs to
	worker int

	// built holds the environments set-up acquired, one per
	// dimension, until a run takes them; a completed run then releases
	// each into the pool.
	built map[int]*strategy.Env
}

// newTimedSource returns a source on a fresh pool whose environments
// for dims are built now, the part of a pool's cost set-up pays.
func newTimedSource(worker int, dims []int) *timedSource {
	s := &timedSource{pool: envpool.New(), worker: worker, built: map[int]*strategy.Env{}}
	for _, d := range dims {
		s.built[d] = s.pool.Acquire(d, strategy.Options{})
	}
	return s
}

// Acquire implements strategy.Source.
func (s *timedSource) Acquire(d int, opts strategy.Options) *strategy.Env {
	id, t := s.tr.begin()
	e := s.built[d]
	if e != nil {
		delete(s.built, d)
		e.Reset(opts)
	} else {
		e = s.pool.Acquire(d, opts)
	}
	s.tr.end(id, s.parent, "envpool", "acquire", s.worker, t, 0)
	return e
}

// Release implements strategy.Source.
func (s *timedSource) Release(e *strategy.Env) {
	id, t := s.tr.begin()
	s.pool.Release(e)
	s.tr.end(id, s.parent, "envpool", "release", s.worker, t, 0)
}

// runDES executes one DES run through core.RunWith on src, recording
// the call as a strategy span under parent, and checks its result.
func runDES(src *timedSource, spec core.Spec, parent int64) (metrics.Result, string) {
	id, t := src.tr.begin()
	src.parent = id
	res, env, err := core.RunWith(spec, src)
	src.tr.end(id, parent, "strategy", spec.Strategy, src.worker, t, res.TotalMoves)
	if err != nil {
		return res, fmt.Sprintf("%s/d=%d seed=%d: %v", spec.Strategy, spec.Dim, spec.Seed, err)
	}
	src.parent = parent
	src.Release(env)
	return res, desCheck(spec, res)
}

// desCheck returns "" when a DES run satisfied the model's invariants
// and, at unit latency, matches the paper's closed forms (the DES
// CLEAN places phase-0 agents instead of escorting them, saving one
// move per root child). The synchronous variant always runs at unit
// latency.
func desCheck(spec core.Spec, r metrics.Result) string {
	if !r.Ok() {
		return "invariants violated: " + r.String()
	}
	if spec.AdversarialLatency > 0 && spec.Strategy != core.Synchronous {
		return ""
	}
	d := spec.Dim
	var ok bool
	switch spec.Strategy {
	case core.Clean:
		ok = int64(r.TeamSize) == combin.CleanTeamSize(d) && r.AgentMoves == combin.CleanAgentMoves(d)-int64(d)
	case core.Visibility, core.Synchronous:
		ok = int64(r.TeamSize) == combin.VisibilityAgents(d) && r.TotalMoves == combin.VisibilityMoves(d) &&
			r.Makespan == combin.VisibilityTime(d)
	case core.Cloning:
		ok = int64(r.TeamSize) == combin.VisibilityAgents(d) && r.TotalMoves == combin.CloningMoves(d) &&
			r.Makespan == int64(d)
	}
	if !ok {
		return "diverged from the closed forms: " + r.String()
	}
	return ""
}

// counts are the exact work totals of a fixed batch of runs; any drift
// between runs of one seed is a correctness bug, not noise.
type counts struct{ runs, moves, steps, agents int64 }

func (c *counts) add(r metrics.Result) {
	c.runs++
	c.moves += r.TotalMoves
	c.steps += r.Makespan
	c.agents += int64(r.TeamSize)
}

func (c counts) report(rep *report) {
	rep.add("sim.runs", float64(c.runs), "count")
	rep.add("sim.moves", float64(c.moves), "count")
	rep.add("sim.steps", float64(c.steps), "count")
	rep.add("sim.agents", float64(c.agents), "count")
}

// topologies builds the shared topologies of the given dimensions and
// returns how long that took.
func topologies(dims []int) time.Duration {
	t := time.Now()
	for _, d := range dims {
		envpool.Topology(d)
	}
	return time.Since(t)
}

// addStrategy adds the per-protocol strategy metrics: the p50 of a
// RunWith call's self time (the call minus the pool's Acquire) and
// the self time per simulated move.
func addStrategy(tr *tracer, rep *report, protocols []string) {
	self, moves := tr.selfByName("strategy")
	for _, p := range protocols {
		rep.addDist("strategy."+p+".run_ms", tr.selfSamples("strategy", p, time.Millisecond), "ms", false)
		if moves[p] > 0 {
			rep.add("strategy."+p+".ns_per_move", float64(self[p])/float64(moves[p]), "ns")
		}
	}
}

// addEnvpool adds the pool's acquire and release timings.
func addEnvpool(tr *tracer, rep *report, topology time.Duration) {
	rep.addDist("envpool.acquire_us", durations(tr.find("envpool", "acquire"), time.Microsecond), "us", true)
	rep.addDist("envpool.release_us", durations(tr.find("envpool", "release"), time.Microsecond), "us", false)
	rep.add("envpool.topology_ms", float64(topology)/float64(time.Millisecond), "ms")
}

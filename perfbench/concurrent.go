package main

import (
	"fmt"
	"math/rand"
	"time"

	"hypersearch/internal/combin"
	"hypersearch/internal/core"
	"hypersearch/internal/faults"
	"hypersearch/internal/metrics"
	"hypersearch/internal/netarena"
	"hypersearch/internal/netsim"
	"hypersearch/internal/netsim/faultlink"
)

// concurrent runs the goroutine engines serially: netsim through a
// long-lived arena (with and without a correlated wire-fault plan) and
// core's goroutines engine. The cost here is goroutine scheduling,
// mailboxes and the striped validator, which no other workload uses
// much, so deleting the plain runtime or the locked validator must
// show no change here.
type concurrent struct {
	runs     []concRun
	arena    *netarena.Arena
	topology time.Duration
}

// concRun is one run: a netsim protocol ("faulted" is visibility under
// the wire-fault plan) or, with goroutines set, the goroutine engine.
type concRun struct {
	protocol   string
	d          int
	seed       int64
	goroutines bool
}

var (
	concDims     = []int{8, 9, 10}
	netProtocols = []string{core.Visibility, core.Clean, core.Cloning, "faulted"}
	rtProtocols  = []string{core.Clean, core.Visibility}
)

func newConcurrent(seed int64) *concurrent {
	rng := rand.New(rand.NewSource(seed))
	c := &concurrent{}
	for _, d := range concDims {
		for _, p := range netProtocols {
			c.runs = append(c.runs, concRun{protocol: p, d: d, seed: rng.Int63n(1 << 31)})
		}
		for _, p := range rtProtocols {
			c.runs = append(c.runs, concRun{protocol: p, d: d, seed: rng.Int63n(1 << 31), goroutines: true})
		}
	}
	rng.Shuffle(len(c.runs), func(i, j int) { c.runs[i], c.runs[j] = c.runs[j], c.runs[i] })
	return c
}

// faultPlan is shaped like hqbench's netsim-faulted family, a
// partition islanding the homebase, then a crash cascade, plus lost
// frames on one link so the ack/retransmit path runs too.
func faultPlan(d int, seed int64) *faults.Plan {
	return &faults.Plan{Name: "bench-correlated", Seed: seed, Faults: []faults.Fault{
		{Kind: faults.Partition, Target: faults.LinksTarget(faults.IslandLinks(0, d)), At: 1, Until: 3, Delay: 600},
		{Kind: faults.Cascade, Target: faults.LinkTarget(0, 1), At: 2, Threshold: 2, Victims: []int{3, 5}},
		{Kind: faults.LinkDrop, Target: faults.LinkTarget(1, 3), At: 1, Until: 4, Times: 1},
	}}
}

func (c *concurrent) setup() error {
	if c.topology == 0 {
		c.topology = topologies(concDims)
	}
	c.arena = netarena.New()
	for _, d := range concDims {
		if st := c.arena.Run(d, netsim.Config{Seed: 1}); !st.Ok() {
			return fmt.Errorf("warm-up: %s", st.Result)
		}
	}
	return nil
}

func (c *concurrent) teardown() { c.arena = nil }

// passTotals are a pass's exact work and wire counters.
type passTotals struct {
	counts
	messages int64
	link     faultlink.Summary
}

// runOne executes one run, recording netarena and netsim spans or a
// runtime span, and returns its result and network stats.
func (c *concurrent) runOne(tr *tracer, r concRun, pt *passTotals) string {
	var res metrics.Result
	if r.goroutines {
		id, t := tr.begin()
		var err error
		res, _, err = core.Run(core.Spec{Strategy: r.protocol, Dim: r.d, Seed: r.seed, Engine: core.EngineGoroutines})
		tr.end(id, 0, "runtime", r.protocol, 0, t, res.TotalMoves)
		if err != nil {
			return fmt.Sprintf("goroutines %s/d=%d: %v", r.protocol, r.d, err)
		}
	} else {
		cfg := netsim.Config{Seed: r.seed}
		if r.protocol == "faulted" {
			cfg.Faults = faultPlan(r.d, r.seed)
		}
		id, t := tr.begin()
		f := c.arena.Acquire(r.d)
		tr.end(id, 0, "netarena", "acquire", 0, t, 0)
		id, t = tr.begin()
		var st netsim.Stats
		switch r.protocol {
		case core.Visibility, "faulted":
			st = netsim.RunOn(f, cfg)
		case core.Clean:
			st = netsim.RunCleanOn(f, cfg)
		case core.Cloning:
			st = netsim.RunCloningOn(f, cfg)
		}
		msgs := st.AgentMessages + st.BeaconMessages
		tr.end(id, 0, "netsim", r.protocol, 0, t, msgs)
		id, t = tr.begin()
		c.arena.Release(f)
		tr.end(id, 0, "netarena", "release", 0, t, 0)
		res = st.Result
		pt.messages += msgs
		pt.link.Frames += st.Link.Frames
		pt.link.Retransmits += st.Link.Retransmits
		pt.link.WireTime += st.Link.WireTime
	}
	pt.add(res)
	return concCheck(r, res)
}

// concCheck returns "" when a run satisfied the model's invariants and
// spent the paper's team size and moves.
func concCheck(r concRun, res metrics.Result) string {
	if !res.Ok() {
		return "invariants violated: " + res.String()
	}
	d := r.d
	var ok bool
	switch r.protocol {
	case core.Clean:
		ok = int64(res.TeamSize) == combin.CleanTeamSize(d) && res.AgentMoves == combin.CleanAgentMoves(d)-int64(d)
	case core.Visibility, "faulted":
		ok = int64(res.TeamSize) == combin.VisibilityAgents(d) && res.TotalMoves == combin.VisibilityMoves(d)
	case core.Cloning:
		ok = int64(res.TeamSize) == combin.VisibilityAgents(d) && res.TotalMoves == combin.CloningMoves(d)
	}
	if !ok {
		engine := "netsim"
		if r.goroutines {
			engine = "goroutines"
		}
		return fmt.Sprintf("%s: diverged from the closed forms: %s", engine, res)
	}
	return ""
}

func (c *concurrent) pass(tr *tracer, rep *report) (float64, passTotals) {
	var pt passTotals
	start := time.Now()
	for _, r := range c.runs {
		rep.check(c.runOne(tr, r, &pt))
	}
	return float64(pt.moves) / time.Since(start).Seconds(), pt
}

func (c *concurrent) measure(deadline time.Time, rep *report) float64 {
	var rates, cpu []float64
	for len(rates) == 0 || time.Now().Before(deadline) {
		c0 := cpuNow()
		rate, _ := c.pass(nil, rep)
		rates = append(rates, rate)
		cpu = append(cpu, cpuNow()-c0)
	}
	rate := median(rates)
	rep.addN("sim_moves_per_s", rate, "1/s", len(rates))
	rep.addN("cpu_s", median(cpu), "s", len(cpu))
	return rate
}

// concTracedPasses is the fixed work of the traced phase.
const concTracedPasses = 20

func (c *concurrent) traced(tr *tracer, rep *report) float64 {
	var rates []float64
	var pt passTotals
	var netTime time.Duration
	for i := 0; i < concTracedPasses; i++ {
		var rate float64
		rate, pt = c.pass(tr, rep)
		rates = append(rates, rate)
	}
	pt.counts.report(rep)
	rep.addDist("netarena.acquire_us", durations(tr.find("netarena", "acquire"), time.Microsecond), "us", false)
	for _, p := range netProtocols {
		spans := tr.find("netsim", p)
		for _, s := range spans {
			netTime += s.dur()
		}
		rep.addDist("netsim."+p+".run_ms", durations(spans, time.Millisecond), "ms", false)
	}
	rep.add("netsim.messages", float64(pt.messages), "count")
	rep.add("netsim.ns_per_message", float64(netTime)/float64(concTracedPasses*pt.messages), "ns")
	rep.add("faultlink.frames", float64(pt.link.Frames), "count")
	rep.add("faultlink.retransmits", float64(pt.link.Retransmits), "count")
	rep.add("faultlink.wiretime", float64(pt.link.WireTime), "count")
	for _, p := range rtProtocols {
		rep.addDist("runtime."+p+".run_ms", durations(tr.find("runtime", p), time.Millisecond), "ms", false)
	}
	return median(rates)
}

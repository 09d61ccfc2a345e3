package coordinated

import (
	"fmt"
	"runtime"
	"testing"

	"hypersearch/internal/des"
	"hypersearch/internal/faults"
	"hypersearch/internal/metrics"
	"hypersearch/internal/strategy"
	"hypersearch/internal/trace"
)

// Couriers and returners run as inline walkers; the oracle below runs
// each trip as its own goroutine process instead, stepping with
// Env.Move down the broadcast tree or home along Env.WalkTo. The
// walkers claim byte-identity with it: identical traces (every event,
// in order, with times), identical metrics, identical clean orders and
// clean times — under unit latency, adversarial latency and seeded
// fault plans alike. `-race` covers the goroutine side of the
// comparison.

// spawnProcess is the oracle launcher: one DES process per trip.
func spawnProcess(c *cleaner, a, dst int, home bool) {
	env := c.env
	if home {
		env.Sim.Spawn("returner", func(p *des.Process) {
			env.WalkTo(p, a, 0, strategy.RoleCleaner)
			c.rejoin(a)
		})
		return
	}
	env.Sim.Spawn("courier", func(p *des.Process) {
		at, _ := env.B.Position(a)
		for at != dst {
			at = env.BT.NextHopDown(at, dst)
			env.Move(p, a, at, strategy.RoleCleaner)
		}
		c.arrive(a, dst)
	})
}

// capture is everything observable about one run.
type capture struct {
	res        metrics.Result
	events     []trace.Event
	cleanOrder []int
	cleanTime  []int64
}

// checkedOptions turns on every observable the comparison reads.
func checkedOptions(opts strategy.Options) strategy.Options {
	opts.Record = true
	opts.Contiguity = strategy.CheckEveryMove
	return opts
}

// runOn runs CLEAN on env with trips started by launch and captures
// its observables.
func runOn(env *strategy.Env, launch launcher) capture {
	var c capture
	c.res = runEnv(env, launch)
	c.events = append(c.events, env.Log().Events()...)
	n := env.H.Order()
	c.cleanOrder = make([]int, n)
	c.cleanTime = make([]int64, n)
	for v := 0; v < n; v++ {
		c.cleanOrder[v] = env.B.CleanOrder(v)
		c.cleanTime[v] = env.B.CleanTime(v)
	}
	return c
}

// runPath runs CLEAN on a fresh environment through the inline walkers
// or the process oracle.
func runPath(d int, opts strategy.Options, process bool) capture {
	launch := launcher((*cleaner).walk)
	if process {
		launch = spawnProcess
	}
	return runOn(strategy.NewEnv(d, checkedOptions(opts)), launch)
}

// assertIdentical compares two captures field by field with a usable
// first-divergence report.
func assertIdentical(t *testing.T, process, inline capture) {
	t.Helper()
	if process.res != inline.res {
		t.Fatalf("metrics diverge:\nprocess: %+v\ninline:  %+v", process.res, inline.res)
	}
	if len(process.events) != len(inline.events) {
		t.Fatalf("trace lengths diverge: process %d events, inline %d", len(process.events), len(inline.events))
	}
	for i := range process.events {
		if process.events[i] != inline.events[i] {
			t.Fatalf("trace diverges at event %d:\nprocess: %+v\ninline:  %+v", i, process.events[i], inline.events[i])
		}
	}
	for v := range process.cleanOrder {
		if process.cleanOrder[v] != inline.cleanOrder[v] || process.cleanTime[v] != inline.cleanTime[v] {
			t.Fatalf("clean record diverges at node %d: process (order %d, time %d), inline (order %d, time %d)",
				v, process.cleanOrder[v], process.cleanTime[v], inline.cleanOrder[v], inline.cleanTime[v])
		}
	}
}

// walkerFaultPlans are the fault plans of visibility's
// TestInlineMatchesLegacyFaults plus a latency spike on the
// synchronizer, which shifts its escorts against the walkers in
// flight.
func walkerFaultPlans() []*faults.Plan {
	return []*faults.Plan{
		{Name: "stall-any", Seed: 3, Faults: []faults.Fault{
			{Kind: faults.Stall, Target: faults.TargetAny, At: 3, Delay: 5},
			{Kind: faults.Stall, Target: faults.TargetAny, At: 11, Delay: 2},
		}},
		{Name: "spike-agent", Seed: 5, Faults: []faults.Fault{
			{Kind: faults.LatencySpike, Target: "agent:1", At: 1, Until: 4, Delay: 2},
			{Kind: faults.LatencySpike, Target: "agent:0", At: 2, Until: 3, Delay: 7},
		}},
		{Name: "kernel-lag", Seed: 9, Faults: []faults.Fault{
			{Kind: faults.KernelLag, From: 1, To: 4},
		}},
		{Name: "combined", Seed: 11, Faults: []faults.Fault{
			{Kind: faults.Stall, Target: faults.TargetAny, At: 5, Delay: 3},
			{Kind: faults.KernelLag, From: 2, To: 6},
		}},
		{Name: "spike-sync", Seed: 13, Faults: []faults.Fault{
			{Kind: faults.LatencySpike, Target: faults.TargetSync, At: 2, Until: 9, Delay: 4},
		}},
	}
}

// TestInlineWalkersMatchProcess pins the inline walkers to the
// process-per-trip oracle.
func TestInlineWalkersMatchProcess(t *testing.T) {
	t.Run("unit", func(t *testing.T) {
		for d := 0; d <= 8; d++ {
			t.Run(fmt.Sprintf("d=%d", d), func(t *testing.T) {
				assertIdentical(t, runPath(d, strategy.Options{}, true), runPath(d, strategy.Options{}, false))
			})
		}
	})
	// Seeded random latencies reorder courier landings against the
	// synchronizer's walk, and the draw sequence itself is part of the
	// identity: a reordered draw would desync the shared RNG at once.
	t.Run("adversarial", func(t *testing.T) {
		for d := 1; d <= 8; d++ {
			for _, seed := range []int64{1, 2, 7, 40} {
				for _, max := range []int64{4, 13} {
					t.Run(fmt.Sprintf("d=%d/seed=%d/max=%d", d, seed, max), func(t *testing.T) {
						mk := func() strategy.Options {
							return strategy.Options{Latency: strategy.NewAdversarial(seed, max)}
						}
						assertIdentical(t, runPath(d, mk(), true), runPath(d, mk(), false))
					})
				}
			}
		}
	})
	// Stalls and spikes consult the injector's move counters in move
	// order; kernel lag defers events as a function of virtual time
	// and disables the process path's Delay shortcut, so every walker
	// hop passes through the interceptor on both paths.
	t.Run("faults", func(t *testing.T) {
		for _, plan := range walkerFaultPlans() {
			for d := 1; d <= 7; d++ {
				t.Run(fmt.Sprintf("%s/d=%d", plan.Name, d), func(t *testing.T) {
					mk := func() strategy.Options {
						return strategy.Options{
							Latency: strategy.NewAdversarial(plan.Seed, 4),
							Faults:  faults.NewInjector(plan),
						}
					}
					assertIdentical(t, runPath(d, mk(), true), runPath(d, mk(), false))
				})
			}
		}
	})
	// A pooled environment re-running CLEAN after Reset reproduces the
	// fresh run exactly: the parked cleaner and its walker free list
	// reset cleanly, including after an oracle run on the same
	// environment.
	t.Run("pooled-reset", func(t *testing.T) {
		for d := 1; d <= 8; d++ {
			opts := func() strategy.Options {
				return checkedOptions(strategy.Options{Latency: strategy.NewAdversarial(int64(d), 5)})
			}
			fresh := runPath(d, opts(), false)
			env := strategy.NewEnv(d, opts())
			env.Sim.KeepWorkers(true)
			for i, launch := range []launcher{(*cleaner).walk, spawnProcess, (*cleaner).walk} {
				if i > 0 {
					env.Reset(opts())
				}
				t.Run(fmt.Sprintf("d=%d/run=%d", d, i), func(t *testing.T) {
					assertIdentical(t, fresh, runOn(env, launch))
				})
			}
		}
	})
}

// TestPooledCleanParksNoWalkerGoroutines: on a pooled (KeepWorkers)
// environment the synchronizer is the only process a run spawns, so
// the run leaves at most its one recycled worker parked. A trip that
// ran as a process would park one worker per concurrent trip.
func TestPooledCleanParksNoWalkerGoroutines(t *testing.T) {
	const d = 10
	env := strategy.NewEnv(d, strategy.Options{})
	env.Sim.KeepWorkers(true)
	before := runtime.NumGoroutine()
	for i := 0; i < 2; i++ {
		if i > 0 {
			env.Reset(strategy.Options{})
		}
		if r := RunEnv(env); !r.Ok() {
			t.Fatalf("run %d: %s", i, r.String())
		}
	}
	if grown := runtime.NumGoroutine() - before; grown > 1 {
		t.Errorf("pooled clean run at d=%d left %d goroutines parked, want at most 1 (the synchronizer's worker)", d, grown)
	}
}

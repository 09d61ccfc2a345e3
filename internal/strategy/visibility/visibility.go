// Package visibility implements Algorithm CLEAN WITH VISIBILITY
// (Section 4 of the paper): agents can see the state of neighbouring
// nodes and act on a purely local rule, with no coordinator.
//
// Rule for the agents on node x of type T(k):
//
//   - While fewer than 2^(k-1) agents are on x (1 for k <= 1), wait.
//   - Once the complement is present and every smaller neighbour of x
//     is clean or guarded: send one agent to the bigger neighbour of
//     type T(0) and 2^(i-1) agents to the bigger neighbour of type
//     T(i) for 0 < i < k. Leaves terminate.
//
// The waiting condition is monotone (agent counts only grow until
// dispatch; smaller neighbours only progress toward clean/guarded), so
// the strategy is deadlock-free under arbitrary asynchrony; the
// robustness tests drive it with adversarial latencies.
package visibility

import (
	"fmt"

	"hypersearch/internal/board"
	"hypersearch/internal/combin"
	"hypersearch/internal/des"
	"hypersearch/internal/heapqueue"
	"hypersearch/internal/metrics"
	"hypersearch/internal/strategy"
)

// Name identifies the strategy in results and registries.
const Name = "visibility"

// Run executes the visibility strategy on H_d with the Theorem-5 team
// of n/2 agents and returns the run summary and environment.
func Run(d int, opts strategy.Options) (metrics.Result, *strategy.Env) {
	env := strategy.NewEnv(d, opts)
	return RunEnv(env), env
}

// RunEnv executes the visibility strategy on an existing (fresh or
// reset) environment; pooled sweeps use it to reuse environments. It
// runs the event-driven inline engine (RunEnvInline).
func RunEnv(env *strategy.Env) metrics.Result {
	return RunEnvInline(env)
}

// RunEnvLegacy executes the goroutine-per-node reference path: one DES
// process per node awaiting the dispatch condition on its node signal.
// O(2^d) goroutines and O(n·wakes) work bound it to small dimensions;
// it is retained as the executable statement of the algorithm and as
// the identity oracle the inline engine is tested against
// (TestInlineMatchesLegacy: byte-identical traces, metrics and clean
// orders).
func RunEnvLegacy(env *strategy.Env) metrics.Result {
	d := env.H.Dim()
	team := int(combin.VisibilityAgents(d))
	at := env.NodeLists()
	for i := 0; i < team; i++ {
		at[0] = append(at[0], env.Place(strategy.RoleCleaner))
	}

	if d > 0 {
		for v := 0; v < env.H.Order(); v++ {
			spawnNode(env, at, v)
		}
	}
	env.Sim.Run()

	for id := 0; id < team; id++ {
		if _, active := env.B.Position(id); active {
			env.Terminate(id)
		}
	}
	return env.Result(Name)
}

// spawnNode starts the local rule for node v: one process per node,
// standing in for the identical local programs of the agents gathered
// there (which one moves where is settled on the node's whiteboard).
func spawnNode(env *strategy.Env, at [][]int, v int) {
	k := env.BT.Type(v)
	required := int(heapqueue.AgentsRequired(k))
	env.Sim.Spawn("node", func(p *des.Process) {
		env.AwaitNode(p, v, func() bool {
			return len(at[v]) >= required && smallerNeighboursReady(env, v)
		})
		if len(at[v]) != required {
			panic(fmt.Sprintf("visibility: node %d gathered %d agents, want %d", v, len(at[v]), required))
		}
		if k == 0 {
			// Leaf: the single agent terminates in place.
			env.Terminate(at[v][0])
			at[v] = nil
			return
		}
		dispatch(env, at, v)
	})
}

// smallerNeighboursReady implements the visibility read: every smaller
// neighbour of v is clean or guarded.
func smallerNeighboursReady(env *strategy.Env, v int) bool {
	ready := true
	env.H.VisitSmallerNeighbours(v, func(w int) bool {
		if env.B.StateOf(w) == board.Contaminated {
			ready = false
			return false
		}
		return true
	})
	return ready
}

// dispatch sends the gathered complement onward: plan[i] agents to the
// i-th broadcast-tree child. Each agent moves as its own concurrent
// process (asynchronous arrivals).
func dispatch(env *strategy.Env, at [][]int, v int) {
	children := env.BT.Children(v)
	plan := heapqueue.DispatchPlan(env.BT.Type(v))
	for i, child := range children {
		for j := int64(0); j < plan[i]; j++ {
			agents := at[v]
			a := agents[len(agents)-1]
			at[v] = agents[:len(agents)-1]
			child := child
			env.Sim.Spawn("mover", func(p *des.Process) {
				env.Move(p, a, child, strategy.RoleCleaner)
				at[child] = append(at[child], a)
				env.Sim.Fire(env.Signal(child))
			})
		}
	}
	if len(at[v]) != 0 {
		panic(fmt.Sprintf("visibility: node %d kept %d agents after dispatch", v, len(at[v])))
	}
}

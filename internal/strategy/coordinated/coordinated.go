// Package coordinated implements Algorithm CLEAN (Section 3 of the
// paper): the synchronizer-led, level-by-level cleaning of the
// hypercube on its broadcast tree.
//
// One agent — the synchronizer — sequences the entire search:
//
//	Phase 0:   it escorts one agent from the root to each of the root's
//	           d broadcast-tree children, returning to the root each
//	           time.
//	Phase l:   (cleaning level l to l+1, for l = 1..d-1)
//	  step 2.1 back at the root, it has the pool send k-1 extra agents
//	           to every level-l node of type T(k), k >= 2 (couriers
//	           travel concurrently down the all-clean broadcast tree);
//	  step 2.2 it walks level l in increasing lexicographic order; at
//	           each node it waits (via the whiteboard, here the board
//	           state) for the node's full complement, then escorts one
//	           agent down each broadcast-tree edge, returning between
//	           escorts;
//	  step 2.3 when it passes a leaf (type T(0)), the leaf's agent
//	           walks back to the root pool and becomes available again.
//
// The synchronizer is the run's only DES process: sequential code that
// reads like the paper. Couriers and returners are inline DES actors
// (pooled walkers stepping inside the event dispatch, one event per
// hop), so no trip owns a goroutine and, with the synchronizer the
// sole goroutine left, every baton hand-off is a self-resume with no
// goroutine switch.
//
// Safety (Lemmas 1-2): when the last agent leaves a level-l node x,
// every level-(l+1) neighbour of x is already guarded, because its
// broadcast-tree parent is lexicographically smaller than x and was
// processed earlier in the walk. All navigation uses clear-bits-first
// shortest paths, which stay inside the already-clean lower levels, so
// a correct run has zero recontaminations.
package coordinated

import (
	"fmt"

	"hypersearch/internal/combin"
	"hypersearch/internal/des"
	"hypersearch/internal/metrics"
	"hypersearch/internal/strategy"
)

// Name identifies the strategy in results and registries.
const Name = "clean"

// Run executes Algorithm CLEAN on H_d and returns the run summary and
// the environment (for trace/figure extraction). The team size is the
// exact Theorem-2 requirement; the run fails loudly if the pool ever
// proves insufficient, so a passing run is a constructive validation
// of the bound.
func Run(d int, opts strategy.Options) (metrics.Result, *strategy.Env) {
	env := strategy.NewEnv(d, opts)
	return RunEnv(env), env
}

// RunEnv executes Algorithm CLEAN on an existing (fresh or reset)
// environment; pooled sweeps use it to reuse environments across runs.
func RunEnv(env *strategy.Env) metrics.Result { return runEnv(env, (*cleaner).walk) }

// launcher starts one trip of agent a concurrently with the
// synchronizer: a courier down the broadcast tree to dst (home false)
// or a returner from its leaf to the root pool (home true, dst 0). The
// trip must end in c.arrive or c.rejoin.
type launcher func(c *cleaner, a, dst int, home bool)

// runEnv runs the algorithm with trips started by launch. Production
// passes the inline walkers; the identity tests pass goroutine
// processes as the oracle.
func runEnv(env *strategy.Env, launch launcher) metrics.Result {
	d := env.H.Dim()
	team := int(combin.CleanTeamSize(d))
	c := cleanerFor(env)
	c.launch = launch

	// The synchronizer is elected first (whiteboard access order); the
	// rest of the team forms the available pool at the root.
	c.sync = env.Place(strategy.RoleSynchronizer)
	for i := 1; i < team; i++ {
		c.pool = append(c.pool, env.Place(strategy.RoleCleaner))
	}

	if d > 0 {
		env.Sim.Spawn("synchronizer", c.runFn)
	}
	env.Sim.Run()

	// Retire every agent in place so clean-order accounting settles.
	c.terminateAll(team)
	return env.Result(Name)
}

// cleaner carries the run state shared by the synchronizer process and
// the walkers. It parks itself in the environment's aux slot under the
// strategy name, so a pooled environment reuses the pool, signal,
// hoisted closures and walker free list across runs.
type cleaner struct {
	env    *strategy.Env
	sync   int
	launch launcher

	pool    []int      // agent ids available at the root
	poolSig des.Signal // fired when a returner reaches the root
	at      [][]int    // node -> cleaner agent ids standing there

	// Hoisted wait conditions and their parameters, and the
	// synchronizer's program, so neither the level walk nor the spawn
	// allocates a fresh closure (the parameters travel through the
	// cleaner's fields; only the synchronizer process evaluates them).
	havePool  func() bool
	nodeReady func() bool
	waitNode  int
	waitK     int
	runFn     func(*des.Process)

	freeWalker *walker
}

// cleanerFor returns the environment's parked cleaner, building it on
// first use, and resets it for a fresh run.
func cleanerFor(env *strategy.Env) *cleaner {
	c, _ := env.Aux(Name).(*cleaner)
	if c == nil {
		c = &cleaner{env: env}
		c.havePool = func() bool { return len(c.pool) > 0 }
		c.nodeReady = func() bool { return len(c.at[c.waitNode]) >= c.waitK }
		c.runFn = c.run
		env.SetAux(Name, c)
	}
	c.pool = c.pool[:0]
	c.poolSig.Reset()
	c.at = env.NodeLists()
	return c
}

func (c *cleaner) run(p *des.Process) {
	env := c.env
	d := env.H.Dim()

	// Phase 0: root to level 1.
	env.BT.VisitChildren(0, func(child int) bool {
		a := c.take(p)
		env.MoveTogether(p, []int{c.sync, a}, child, escortRoles)
		c.at[child] = append(c.at[child], a)
		env.Move(p, c.sync, 0, strategy.RoleSynchronizer)
		return true
	})

	// Phases 1..d-1.
	for l := 1; l <= d-1; l++ {
		c.dispatchExtras(p, l)
		c.walkLevel(p, l)
		// Back to the root to collect agents for the next phase.
		env.WalkTo(p, c.sync, 0, strategy.RoleSynchronizer)
	}
}

// dispatchExtras implements step 2.1: k-1 couriers to each type-T(k)
// node of level l, k >= 2, drawn from the pool (waiting for returners
// when the pool runs dry — they are always inbound, so this cannot
// deadlock).
func (c *cleaner) dispatchExtras(p *des.Process, l int) {
	env := c.env
	env.H.VisitNodesAtLevel(l, func(x int) bool {
		k := env.BT.Type(x)
		for i := 0; i < k-1; i++ {
			a := c.take(p)
			c.launch(c, a, x, false)
		}
		return true
	})
}

// walkLevel implements steps 2.2 and 2.3 for level l. Level nodes and
// tree children are visited through the allocation-free iterators, so
// a big-board walk materializes no level slices.
func (c *cleaner) walkLevel(p *des.Process, l int) {
	env := c.env
	env.H.VisitNodesAtLevel(l, func(x int) bool {
		env.WalkTo(p, c.sync, x, strategy.RoleSynchronizer)
		k := env.BT.Type(x)
		if k == 0 {
			// 2.3: the leaf agent returns to the pool.
			c.launch(c, c.pop(x), 0, true)
			return true
		}
		// Wait for the full complement of k agents (extras may still
		// be in flight), then escort one down each tree edge.
		c.waitNode, c.waitK = x, k
		env.AwaitNode(p, x, c.nodeReady)
		if len(c.at[x]) != k {
			panic(fmt.Sprintf("coordinated: node %d holds %d agents, want %d", x, len(c.at[x]), k))
		}
		env.BT.VisitChildren(x, func(child int) bool {
			a := c.pop(x)
			env.MoveTogether(p, []int{c.sync, a}, child, escortRoles)
			c.at[child] = append(c.at[child], a)
			env.Move(p, c.sync, x, strategy.RoleSynchronizer)
			return true
		})
		return true
	})
}

// arrive ends a courier trip: agent a joins node x's complement and the
// synchronizer, if it waits there, is woken.
func (c *cleaner) arrive(a, x int) {
	c.at[x] = append(c.at[x], a)
	c.env.Sim.Fire(c.env.Signal(x))
}

// rejoin ends a returner trip: agent a is available at the root again.
func (c *cleaner) rejoin(a int) {
	c.pool = append(c.pool, a)
	c.env.Sim.Fire(&c.poolSig)
}

// walker is one courier or returner trip as an inline DES actor: each
// step lands the pending hop and, short of the destination, draws the
// next hop's latency and reschedules itself — the event sequence a
// process looping over Env.Move would produce, without its goroutine.
// Walkers are pooled on the cleaner's free list; the step closure is
// wired once, when the pool allocates a walker.
type walker struct {
	des.Inline
	c     *cleaner
	free  *walker
	agent int
	at    int // the agent's node
	hop   int // node the in-flight move lands on; == at when none
	dst   int
	home  bool // returner (shortest path to the root) vs courier (tree descent)
}

// walk is the production launcher: it starts a pooled walker at the
// current time, where a freshly spawned process would start.
func (c *cleaner) walk(a, dst int, home bool) {
	w := c.freeWalker
	if w == nil {
		w = &walker{c: c}
		w.Step = w.step
	} else {
		c.freeWalker = w.free
	}
	at, _ := c.env.B.Position(a)
	w.agent, w.at, w.hop, w.dst, w.home = a, at, at, dst, home
	c.env.Sim.SpawnInline(&w.Inline)
}

func (w *walker) step(s *des.Simulator) {
	c := w.c
	env := c.env
	if w.hop != w.at {
		env.ApplyMove(w.agent, w.hop, strategy.RoleCleaner)
		w.at = w.hop
	}
	if w.at != w.dst {
		if w.home {
			w.hop = env.H.NextHopToward(w.at, w.dst)
		} else {
			w.hop = env.BT.NextHopDown(w.at, w.dst)
		}
		s.AfterInline(env.MoveLatency(w.agent, w.at, w.hop, strategy.RoleCleaner), &w.Inline)
		return
	}
	w.free = c.freeWalker
	c.freeWalker = w
	if w.home {
		c.rejoin(w.agent)
	} else {
		c.arrive(w.agent, w.dst)
	}
}

// take pops an available agent from the root pool, waiting for a
// returner when the pool is empty.
func (c *cleaner) take(p *des.Process) int {
	p.AwaitCond(&c.poolSig, c.havePool)
	a := c.pool[len(c.pool)-1]
	c.pool = c.pool[:len(c.pool)-1]
	return a
}

// pop removes one agent from node x's registry.
func (c *cleaner) pop(x int) int {
	agents := c.at[x]
	if len(agents) == 0 {
		panic(fmt.Sprintf("coordinated: no agent to take at node %d", x))
	}
	a := agents[len(agents)-1]
	c.at[x] = agents[:len(agents)-1]
	return a
}

// terminateAll retires every agent after the simulation drains.
func (c *cleaner) terminateAll(team int) {
	for id := 0; id < team; id++ {
		if _, active := c.env.B.Position(id); active {
			c.env.Terminate(id)
		}
	}
}

// escortRoles labels the two moves of an escorted pair: the
// synchronizer and its cleaner move as one action, each recorded under
// its own role.
var escortRoles = []string{strategy.RoleSynchronizer, strategy.RoleCleaner}

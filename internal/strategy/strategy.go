// Package strategy provides the shared execution environment the
// cleaning strategies run on: a hypercube board driven by the
// discrete-event simulator, with per-move latency models (unit latency
// for ideal-time measurement, seeded random latency as the asynchronous
// adversary), structured trace recording, per-node condition signals
// for visibility-style waiting, and result assembly.
package strategy

import (
	"fmt"
	"math/rand"

	"hypersearch/internal/board"
	"hypersearch/internal/des"
	"hypersearch/internal/faults"
	"hypersearch/internal/heapqueue"
	"hypersearch/internal/hypercube"
	"hypersearch/internal/metrics"
	"hypersearch/internal/trace"
)

// Latency models how long one edge traversal takes. Draws happen in
// deterministic DES order, so a seeded latency makes the whole run
// reproducible.
type Latency interface {
	// Draw returns the duration (>= 1) of a move from one node to a
	// neighbour.
	Draw(from, to int) int64
}

// Unit is the ideal-time model: every move takes exactly one step.
type Unit struct{}

// Draw implements Latency.
func (Unit) Draw(_, _ int) int64 { return 1 }

// Adversarial draws durations uniformly from [1, Max], seeded: the
// standard asynchronous adversary used by the robustness experiments.
type Adversarial struct {
	rng *rand.Rand
	max int64
}

// NewAdversarial returns an adversarial latency with durations in
// [1, max].
func NewAdversarial(seed, max int64) *Adversarial {
	if max < 1 {
		panic("strategy: adversarial max latency must be >= 1")
	}
	return &Adversarial{rng: rand.New(rand.NewSource(seed)), max: max}
}

// Draw implements Latency.
func (a *Adversarial) Draw(_, _ int) int64 { return 1 + a.rng.Int63n(a.max) }

// ContiguityCheck selects how often the O(n) connectivity invariant is
// verified during a run.
type ContiguityCheck int

// Checking modes, from cheapest to most thorough.
const (
	CheckFinal     ContiguityCheck = iota // once, at the end
	CheckEveryMove                        // after every move (tests, small d)
	CheckNever                            // benchmarks
)

// Options configures an execution environment.
type Options struct {
	Latency    Latency         // nil means Unit{}
	Contiguity ContiguityCheck // default CheckFinal
	Record     bool            // keep a full trace log

	// Stream, when non-nil, receives every trace event as it happens
	// without the environment retaining it: the memory-bounded way to
	// capture megannode runs whose full in-memory log would not fit.
	// It composes with Record (events go to both) but is typically
	// used instead of it. The environment never resets or closes the
	// sink; the caller owns its lifecycle.
	Stream trace.Sink

	// Faults optionally injects deterministic adversity: stalls,
	// latency spikes, and lock starvation become extra virtual delay
	// on the affected moves, and kernel-lag faults are installed as a
	// DES event interceptor. Crash faults are not supported by the
	// discrete-event engine (a dead process would wedge the kernel);
	// they require the crash-tolerant goroutine runtime.
	Faults *faults.Injector
}

// Env is the execution environment for one strategy run on H_d.
type Env struct {
	H   *hypercube.Hypercube
	BT  *heapqueue.Tree
	Sim *des.Simulator
	B   *board.Board

	opts     Options
	log      *trace.Log
	logStash *trace.Log // trace retired by a Record:false flip, kept for its capacity
	sink     trace.Sink // optional streaming sink (Options.Stream)
	// sigs and armed are allocated lazily, on the first AwaitNode or
	// Signal call: per-node condition waiting is a goroutine-process
	// idiom, and the inline-actor strategies never touch it. At big
	// dimensions that laziness matters — the sigs array alone is tens
	// of megabytes at d=20, which an event-driven megannode run should
	// not pay for.
	sigs []des.Signal
	// armed mirrors "sigs[v] has waiters" as one bit per node. At big
	// dimensions the sigs array is tens of megabytes, so fireAround
	// consults this L2-resident bitset and only touches the Signal
	// structs that actually have a sleeper. Bits are set by AwaitNode
	// before blocking and cleared by fireAt before firing; a woken
	// process that blocks again re-arms its bit, so no wakeup is lost.
	armed        []uint64
	armedCount   int // number of set bits in armed; 0 short-circuits fireAround
	contiguousOK bool
	completed    bool
	// aux holds per-environment scratch owned by individual strategies
	// (keyed by strategy name): the event-driven engines park their
	// counter tables and event pools here so pooled environments reuse
	// them across runs, keeping allocs/op flat. The environment only
	// stores the values; resetting them is the owning strategy's job.
	aux map[string]any
	// Per-role move counters. The two standard roles dominate every
	// run (one increment per move), so they get dedicated counters;
	// exotic roles fall back to the map.
	syncMoves    int64
	cleanerMoves int64
	roleMoves    map[string]int64
	// lists is per-run scratch for strategies that track agents per
	// node (one []int per node, emptied by NodeLists); reusing it
	// across pooled runs avoids rebuilding per-node maps.
	lists [][]int
}

// NewEnv builds an environment for dimension d with all nodes
// contaminated except the homebase 0, choosing the materialized or
// implicit topology representation by dimension (hypercube.ForDim).
func NewEnv(d int, opts Options) *Env {
	return NewEnvOn(hypercube.ForDim(d), heapqueue.ForDim(d), opts)
}

// NewEnvOn builds an environment over an existing hypercube and
// broadcast tree (which must share the same dimension). The topology
// structures are read-only to the environment, so one pair can back
// any number of environments concurrently — the basis of envpool's
// per-dimension sharing.
func NewEnvOn(h *hypercube.Hypercube, bt *heapqueue.Tree, opts Options) *Env {
	if h.Dim() != bt.Dim() {
		panic(fmt.Sprintf("strategy: hypercube H_%d paired with tree T(%d)", h.Dim(), bt.Dim()))
	}
	e := &Env{
		H:         h,
		BT:        bt,
		Sim:       des.New(),
		B:         board.New(h, 0),
		roleMoves: map[string]int64{},
	}
	e.applyOptions(opts)
	return e
}

// applyOptions installs a run's options onto a clean environment.
func (e *Env) applyOptions(opts Options) {
	if opts.Latency == nil {
		opts.Latency = Unit{}
	}
	e.opts = opts
	e.sink = opts.Stream
	e.contiguousOK = true
	e.completed = false
	e.B.RecordClean(opts.Record)
	if opts.Record {
		if e.log == nil {
			// A Record:false -> true flip reuses the trace retired by
			// the last recorded run of this environment (and thus this
			// dimension), so the log is pre-sized instead of regrowing
			// from scratch.
			if e.logStash != nil {
				e.log, e.logStash = e.logStash, nil
			} else {
				e.log = &trace.Log{}
			}
		}
	} else {
		if e.log != nil {
			e.log.Reset()
			e.logStash = e.log
		}
		e.log = nil
	}
	if opts.Faults != nil {
		if ic := opts.Faults.KernelInterceptor(); ic != nil {
			e.Sim.Intercept(des.Interceptor(ic))
		}
	}
}

// Reset prepares the environment for a fresh run under new options,
// reusing every allocation from the previous run: the board, trace
// log, signals, role counters and scratch lists are cleared in O(n),
// and the simulator keeps its warmed event heap (plus, under
// KeepWorkers, its parked process goroutines). It panics — via
// Sim.Reset — if the previous run was abandoned with blocked
// processes; such poisoned environments must be discarded, not reset.
func (e *Env) Reset(opts Options) {
	e.Sim.Reset()
	e.B.Reset()
	for i := range e.sigs {
		e.sigs[i].Reset()
	}
	for i := range e.armed {
		e.armed[i] = 0
	}
	e.armedCount = 0
	e.syncMoves, e.cleanerMoves = 0, 0
	for k := range e.roleMoves {
		delete(e.roleMoves, k)
	}
	if e.log != nil {
		e.log.Reset()
	}
	e.applyOptions(opts)
}

// Completed reports whether Result has been called since the last
// Reset: the run finished and its summary was taken. Pools use it to
// reject environments whose run panicked mid-simulation.
func (e *Env) Completed() bool { return e.completed }

// NodeLists returns one empty []int per node, reusing backing arrays
// across calls and runs. Strategies use it as per-node agent
// registries instead of allocating map[int][]int every run. The
// environment owns the storage; only one caller may use it at a time.
// The table is allocated on first use — O(n) slice headers that the
// event-driven strategies, which track agents in packed per-node
// stacks instead, never pay for.
func (e *Env) NodeLists() [][]int {
	if e.lists == nil {
		e.lists = make([][]int, e.H.Order())
	}
	for i := range e.lists {
		e.lists[i] = e.lists[i][:0]
	}
	return e.lists
}

// Aux returns the per-environment scratch value stored under key, or
// nil. Strategies key their reusable engine state by their own name;
// a pooled environment then carries that state across runs, which is
// what keeps an event-driven strategy's allocs/op flat under reuse.
func (e *Env) Aux(key string) any { return e.aux[key] }

// SetAux stores a per-environment scratch value under key; see Aux.
func (e *Env) SetAux(key string, v any) {
	if e.aux == nil {
		e.aux = map[string]any{}
	}
	e.aux[key] = v
}

// faultDelay consults the injector for one move of agent in role and
// returns the extra virtual delay to impose. Lock starvation has no
// distinct meaning under the single-threaded kernel, so hold time is
// folded into the delay.
func (e *Env) faultDelay(agent int, role string) int64 {
	if e.opts.Faults == nil {
		return 0
	}
	act := e.opts.Faults.BeforeMove(faults.MoveCtx{Agent: agent, Sync: role == RoleSynchronizer})
	if act.Crash {
		panic("strategy: crash faults require the crash-tolerant goroutine runtime (runtime.RunCleanFT)")
	}
	return act.Delay + act.Hold
}

// Log returns the trace log, or nil if recording was off.
func (e *Env) Log() *trace.Log { return e.log }

// emit delivers one trace event to the in-memory log and/or the
// streaming sink, whichever are configured. Callers guard with
// `e.log != nil || e.sink != nil` so unrecorded runs never build the
// event struct.
func (e *Env) emit(ev trace.Event) {
	if e.log != nil {
		e.log.Append(ev)
	}
	if e.sink != nil {
		e.sink.Append(ev)
	}
}

// ensureSigs allocates the per-node signal array and armed bitset on
// first use; environments running only inline-actor strategies never
// build them.
func (e *Env) ensureSigs() {
	if e.sigs == nil {
		e.sigs = make([]des.Signal, e.H.Order())
		e.armed = make([]uint64, (e.H.Order()+63)/64)
	}
}

// Signal returns node v's condition signal; it fires whenever the
// board changes at v or at a neighbour of v. Waiting on it directly
// with p.Await/p.AwaitCond bypasses the armed bitset and can miss
// board-change wakeups — use AwaitNode instead. Firing it directly is
// always safe.
func (e *Env) Signal(v int) *des.Signal {
	e.ensureSigs()
	return &e.sigs[v]
}

// AwaitNode blocks p until cond() holds, re-checking whenever the
// board changes at node v or one of its neighbours. It is the node
// analogue of p.AwaitCond(e.Signal(v), cond), but arms v's bit in the
// armed bitset before each block so fireAround knows a sleeper exists
// without reading the (large, cold) Signal array.
func (e *Env) AwaitNode(p *des.Process, v int, cond func() bool) {
	e.ensureSigs()
	for !cond() {
		if w, bit := v>>6, uint64(1)<<(uint(v)&63); e.armed[w]&bit == 0 {
			e.armed[w] |= bit
			e.armedCount++
		}
		p.Await(&e.sigs[v])
	}
}

// fireAt wakes the waiters of node v's signal, if the armed bitset
// says there are any. The bit is cleared before firing; re-blocking
// waiters re-arm it through AwaitNode.
func (e *Env) fireAt(v int) {
	w, bit := v>>6, uint64(1)<<(uint(v)&63)
	if e.armed[w]&bit == 0 {
		return
	}
	e.armed[w] &^= bit
	e.armedCount--
	e.Sim.Fire(&e.sigs[v])
}

// fireAround signals a board change at v: v's own waiters and those of
// every neighbour (whose "all my neighbours are clean"-style conditions
// may have just flipped) get woken. The armed count makes the dominant
// case — no sleeper anywhere on the board, true for every transit move
// of a courier convoy — a single comparison; otherwise the neighbour
// loop is the XOR walk over the armed bitset, with no topology lookup
// and no allocation.
func (e *Env) fireAround(v int) {
	if e.armedCount == 0 {
		return
	}
	e.fireAt(v)
	for i := 0; i < e.H.Dim(); i++ {
		e.fireAt(v ^ 1<<i)
	}
}

// Place creates an agent on the homebase at the current time.
func (e *Env) Place(role string) int {
	id := e.B.Place(e.Sim.Now())
	if e.log != nil || e.sink != nil {
		e.emit(trace.Event{Time: e.Sim.Now(), Kind: trace.Place, Agent: id, To: e.B.Home(), Role: role})
	}
	e.fireAround(e.B.Home())
	return id
}

// Clone creates an agent on v (which must hold one) at the current
// time; parent records provenance in the trace.
func (e *Env) Clone(parent, v int, role string) int {
	id := e.B.Clone(v, e.Sim.Now())
	if e.log != nil || e.sink != nil {
		e.emit(trace.Event{Time: e.Sim.Now(), Kind: trace.Clone, Agent: id, From: parent, To: v, Role: role})
	}
	e.fireAround(v)
	return id
}

// Terminate retires an agent in place.
func (e *Env) Terminate(agent int) {
	v, _ := e.B.Position(agent)
	e.B.Terminate(agent, e.Sim.Now())
	if e.log != nil || e.sink != nil {
		e.emit(trace.Event{Time: e.Sim.Now(), Kind: trace.Terminate, Agent: agent, From: v, To: v})
	}
	e.fireAround(v)
}

// apply performs the instantaneous part of a move at the current
// simulation time: board update, trace, invariant check, signals.
func (e *Env) apply(agent, to int, role string) {
	from, _ := e.B.Position(agent)
	e.B.Move(agent, to, e.Sim.Now())
	switch role {
	case RoleCleaner:
		e.cleanerMoves++
	case RoleSynchronizer:
		e.syncMoves++
	default:
		e.roleMoves[role]++
	}
	if e.log != nil || e.sink != nil {
		e.emit(trace.Event{Time: e.Sim.Now(), Kind: trace.Move, Agent: agent, From: from, To: to, Role: role})
	}
	if e.opts.Contiguity == CheckEveryMove && e.contiguousOK {
		e.contiguousOK = e.B.Contiguous()
	}
	e.fireAround(from)
	e.fireAround(to)
}

// Move walks one edge: the calling process sleeps for the drawn
// latency, then the move applies atomically (the agent occupies the
// source until completion — the standard graph-search action model).
func (e *Env) Move(p *des.Process, agent, to int, role string) {
	from, _ := e.B.Position(agent)
	p.Delay(e.opts.Latency.Draw(from, to) + e.faultDelay(agent, role))
	e.apply(agent, to, role)
}

// MoveLatency draws the duration of agent's next move from from to to
// (latency model plus any injected fault delay), without performing
// it. Inline-actor strategies call it at dispatch time and schedule
// the completion themselves; pairing each draw with a later ApplyMove
// in the same order a goroutine process would have drawn and applied
// keeps the two styles byte-identical.
func (e *Env) MoveLatency(agent, from, to int, role string) int64 {
	return e.opts.Latency.Draw(from, to) + e.faultDelay(agent, role)
}

// ApplyMove performs the instantaneous part of a move at the current
// simulation time: board update, per-role accounting, trace, invariant
// check, signals. It is Move without the latency sleep — the
// inline-actor half of the split that MoveLatency opens.
func (e *Env) ApplyMove(agent, to int, role string) { e.apply(agent, to, role) }

// MoveTogether moves a group of agents across the same edge as one
// action (the synchronizer escorting a cleaner): one latency draw, all
// moves applied at the same instant. roles[i] labels agents[i]'s move.
func (e *Env) MoveTogether(p *des.Process, agents []int, to int, roles []string) {
	if len(agents) == 0 || len(agents) != len(roles) {
		panic("strategy: MoveTogether needs matching agents and roles")
	}
	from, _ := e.B.Position(agents[0])
	p.Delay(e.opts.Latency.Draw(from, to) + e.faultDelay(agents[0], roles[0]))
	for i, a := range agents {
		e.apply(a, to, roles[i])
	}
}

// Walk moves an agent along a path (path[0] must be its current node).
func (e *Env) Walk(p *des.Process, agent int, path []int, role string) {
	if len(path) == 0 {
		return
	}
	if at, _ := e.B.Position(agent); at != path[0] {
		panic(fmt.Sprintf("strategy: Walk of agent %d starting at %d, path starts at %d", agent, at, path[0]))
	}
	for _, v := range path[1:] {
		e.Move(p, agent, v, role)
	}
}

// WalkTo moves an agent from its current node to dst along the
// canonical shortest hypercube path (the same vertices H.ShortestPath
// returns), stepping via NextHopToward so no path slice is allocated.
func (e *Env) WalkTo(p *des.Process, agent, dst int, role string) {
	at, _ := e.B.Position(agent)
	for at != dst {
		at = e.H.NextHopToward(at, dst)
		e.Move(p, agent, at, role)
	}
}

// RoleMoves returns the number of moves recorded for a role.
func (e *Env) RoleMoves(role string) int64 {
	switch role {
	case RoleCleaner:
		return e.cleanerMoves
	case RoleSynchronizer:
		return e.syncMoves
	default:
		return e.roleMoves[role]
	}
}

// Result assembles the run's cost and correctness summary. Call it
// after Sim.Run has returned; it also marks the environment's run as
// completed, which is what allows a pooled environment to be reused.
func (e *Env) Result(name string) metrics.Result {
	e.completed = true
	ok := e.contiguousOK
	if e.opts.Contiguity != CheckNever {
		ok = ok && e.B.Contiguous()
	}
	agentMoves, syncMoves := e.cleanerMoves, e.syncMoves
	for role, n := range e.roleMoves {
		if role == RoleSynchronizer {
			syncMoves += n
		} else {
			agentMoves += n
		}
	}
	return metrics.Result{
		Strategy:         name,
		Dim:              e.H.Dim(),
		Nodes:            e.H.Order(),
		TeamSize:         e.B.Agents(),
		PeakAway:         e.B.PeakAway(),
		AgentMoves:       agentMoves,
		SyncMoves:        syncMoves,
		TotalMoves:       e.B.Moves(),
		Makespan:         e.B.Now(),
		Recontaminations: e.B.Recontaminations(),
		MonotoneOK:       e.B.MonotoneViolations() == 0,
		ContiguousOK:     ok,
		Captured:         e.B.AllClean(),
	}
}

// Role names used in traces and per-role move accounting.
const (
	RoleSynchronizer = "synchronizer"
	RoleCleaner      = "cleaner"
)

// Source hands out execution environments. Fresh allocates per call;
// envpool.Pool reuses them. Callers must Release every Acquired
// environment when done with it (after taking Result) and must not
// touch it afterwards.
type Source interface {
	Acquire(d int, opts Options) *Env
	Release(*Env)
}

// Fresh is the non-pooling Source: every Acquire builds a new
// environment and Release discards it.
type Fresh struct{}

// Acquire implements Source.
func (Fresh) Acquire(d int, opts Options) *Env { return NewEnv(d, opts) }

// Release implements Source.
func (Fresh) Release(*Env) {}

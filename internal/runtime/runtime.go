// Package runtime executes the paper's strategies as genuinely
// concurrent Go programs: every agent is a goroutine, nodes carry
// mutual-exclusion whiteboards, and per-move latencies are injected by
// a seeded randomized scheduler — the asynchronous model of Section 2
// made literal. The discrete-event engine (internal/strategy) is the
// metrics reference; this package demonstrates that the algorithms,
// coded as local agent programs, stay correct under real preemption
// (run the tests with -race) and spend the same moves.
//
// There is one runtime per protocol. Without a fault plan it is core's
// goroutines engine: only the agent goroutines run, and each CLEAN
// agent sleeps on its own condition variable until the one event it
// waits for (an order, a completion, the end of the run) signals it.
// With a plan (cmd/hqfaults) the same programs also run lease
// heartbeats and a watchdog that fences crashed agents, reassigns
// their orders to spares and re-elects a crashed synchronizer.
package runtime

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"hypersearch/internal/board"
	"hypersearch/internal/faults"
	"hypersearch/internal/heapqueue"
	"hypersearch/internal/hypercube"
	"hypersearch/internal/metrics"
	"hypersearch/internal/trace"
	"hypersearch/internal/whiteboard"
)

// Config controls a runtime execution. Seed is the only source of
// randomness: every stream (per-agent schedulers, watchdog) is derived
// from it with deriveSeed, so equal configs replay equal runs.
type Config struct {
	Seed       int64         // randomized-scheduler seed
	MaxLatency time.Duration // per-move sleep is uniform in [0, MaxLatency]

	Faults *faults.Plan // deterministic fault plan (nil = fault-free)
	Spares int          // extra agents provisioned for crash recovery (0 = crashes+1)
	Record bool         // keep a structured trace (logical-clock timestamps)

	// Liveness and fault timing, read only when Faults is set (a run
	// without a plan starts no heartbeat, watchdog or re-broadcaster):

	HeartbeatEvery time.Duration // lease heartbeat period (0 = 2ms)
	LeaseTTL       time.Duration // watchdog declares an agent dead after this silence (0 = 250ms)
	FaultUnit      time.Duration // wall-clock length of one fault delay unit (0 = 100µs)
}

// Defaults for the timing knobs. LeaseTTL is two orders of magnitude
// above the heartbeat so a live-but-slow agent (GC pause, race-detector
// overhead) is never fenced spuriously.
const (
	defaultHeartbeat = 2 * time.Millisecond
	defaultLeaseTTL  = 250 * time.Millisecond
	defaultFaultUnit = 100 * time.Microsecond
)

// withDefaults fills the zero timing knobs.
func (c Config) withDefaults() Config {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = defaultHeartbeat
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = defaultLeaseTTL
	}
	if c.FaultUnit < 0 {
		c.FaultUnit = 0
	} else if c.FaultUnit == 0 {
		c.FaultUnit = defaultFaultUnit
	}
	return c
}

// agentRNG returns agent i's scheduler stream, or nil when MaxLatency
// is 0: sleepLatency then never draws, and seeding a source per agent
// would be the largest cost of a short run.
func (c Config) agentRNG(i int) *rand.Rand {
	if c.MaxLatency <= 0 {
		return nil
	}
	return rand.New(rand.NewSource(deriveSeed(c.Seed, uint64(i))))
}

// sleepLatency injects the adversarial scheduler's delay; rng is owned
// by the calling goroutine.
func sleepLatency(rng *rand.Rand, max time.Duration) {
	if max <= 0 {
		return
	}
	time.Sleep(time.Duration(rng.Int63n(int64(max) + 1)))
}

// Report is the outcome of a run.
type Report struct {
	Result metrics.Result
	Log    *trace.Log // nil unless Config.Record

	Team        int // paper team size
	Spares      int // extra agents provisioned for recovery
	Crashes     int // injected crashes that fired
	Reassigned  int // orders re-executed by a spare
	Reelections int // synchronizer CAS re-elections
	SparesUsed  int // spares drafted into service
}

// ftWorld is the shared state of one concurrent run: the board, the
// node whiteboards, and the recovery protocol's replicated state (the
// order ledger, per-node agent registry, root pool, spare pool,
// fencing flags, and the synchronizer epoch). All of it is guarded by
// mu; the homebase whiteboard mirrors the durable fields (leases,
// checkpoint, order records, fences) that the paper's model would
// store on node whiteboards.
type ftWorld struct {
	mu sync.Mutex
	// cond is the visibility agents' shared wait: any move can unblock
	// a neighbour, so every move broadcasts it.
	cond sync.Cond
	// conds[id] is CLEAN agent id's own wait, and id is its only
	// waiter. Each CLEAN wait reads ledger state, never the board, so
	// an event signals exactly the agent it can unblock and a board
	// move signals nobody.
	conds []sync.Cond

	h  *hypercube.Hypercube
	bt *heapqueue.Tree
	b  *board.Board
	wb *whiteboard.Store

	// Whiteboard fields are interned once here, at store construction;
	// the agents' Read/Write/CAS hot paths then index by ID and never
	// hash a field name again.
	fSync    whiteboard.Field
	fOwner   whiteboard.Field
	fCk      whiteboard.Field
	fAgents  whiteboard.Field
	fPlanned whiteboard.Field
	fQuota   []whiteboard.Field // per broadcast-tree child index

	cfg Config
	inj *faults.Injector
	log *trace.Log

	step      int64 // logical clock: one tick per board action
	syncMoves int64

	inbox  [][]string
	ledger map[string]*ftOrder
	at     map[int][]int
	pool   []int
	spares []int

	dead   []bool // fenced by the watchdog
	exited []bool // returned cleanly (lease no longer monitored)

	fLease []whiteboard.Field // per-agent heartbeat fields, interned in initAgents
	fFence []whiteboard.Field // per-agent fence fields, interned in initAgents

	syncID   int
	epoch    int64
	needSync bool
	doneFlag bool

	// Liveness goroutines run only under a fault plan: quit ends them,
	// live waits for them, hbStop[id] silences agent id's heartbeat.
	quit   chan struct{}
	live   sync.WaitGroup
	hbStop []atomic.Bool

	crashes     int
	reassigned  int
	reelections int
	sparesUsed  int
}

func newFTWorld(d int, cfg Config, inj *faults.Injector) *ftWorld {
	h := hypercube.ForDim(d)
	w := &ftWorld{
		h:      h,
		bt:     heapqueue.ForDim(d),
		b:      board.New(h, 0),
		wb:     whiteboard.NewStore(h.Order()),
		cfg:    cfg,
		inj:    inj,
		ledger: map[string]*ftOrder{},
		at:     map[int][]int{},
		syncID: -1,
		quit:   make(chan struct{}),
	}
	w.cond.L = &w.mu
	w.fSync = w.wb.Field(fieldSync)
	w.fOwner = w.wb.Field(fieldOwner)
	w.fCk = w.wb.Field(fieldCk)
	w.fAgents = w.wb.Field(fieldAgents)
	w.fPlanned = w.wb.Field(fieldPlanned)
	w.fQuota = make([]whiteboard.Field, d)
	for i := range w.fQuota {
		w.fQuota[i] = w.wb.Field(quotaField(i))
	}
	if cfg.Record {
		w.log = &trace.Log{}
	}
	return w
}

// dropWakeupLocked reports whether the injector swallows this wakeup.
// Only a run with a plan drops wakeups, and such a run also runs the
// periodic wake-all that heals them.
func (w *ftWorld) dropWakeupLocked() bool {
	return w.inj != nil && w.inj.DropWakeup()
}

// signalLocked wakes CLEAN agent id, the one waiter the caller's event
// can unblock (no-op for id < 0). Caller holds w.mu.
func (w *ftWorld) signalLocked(id int) {
	if id >= 0 && !w.dropWakeupLocked() {
		w.conds[id].Signal()
	}
}

// wakeAllLocked wakes every CLEAN agent: election, fencing, the end of
// the run and the watchdog tick change what any of them may wait for.
// Caller holds w.mu.
func (w *ftWorld) wakeAllLocked() {
	for i := range w.conds {
		w.conds[i].Signal()
	}
}

// goLive starts a liveness goroutine that calls tick every
// HeartbeatEvery until tick returns false or the run closes w.quit.
func (w *ftWorld) goLive(tick func() bool) {
	w.live.Add(1)
	go func() {
		defer w.live.Done()
		t := time.NewTicker(w.cfg.HeartbeatEvery)
		defer t.Stop()
		for {
			select {
			case <-w.quit:
				return
			case <-t.C:
				if !tick() {
					return
				}
			}
		}
	}()
}

// runAgents runs agent(id, rng) on one goroutine per agent and waits
// for all of them; it then stops the liveness goroutines and waits for
// those too.
func (w *ftWorld) runAgents(n int, agent func(id int, rng *rand.Rand)) {
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			agent(id, w.cfg.agentRNG(id))
		}()
	}
	wg.Wait()
	close(w.quit)
	w.live.Wait()
}

// report retires every agent still active and assembles the run's
// outcome; real-time runs have no virtual makespan, so Result.Makespan
// is left zero.
func (w *ftWorld) report(name string, team, spares int) Report {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.terminateAllLocked()
	return Report{
		Result: metrics.Result{
			Strategy:         name,
			Dim:              w.h.Dim(),
			Nodes:            w.h.Order(),
			TeamSize:         team + spares,
			PeakAway:         w.b.PeakAway(),
			AgentMoves:       w.b.Moves() - w.syncMoves,
			SyncMoves:        w.syncMoves,
			TotalMoves:       w.b.Moves(),
			Recontaminations: w.b.Recontaminations(),
			MonotoneOK:       w.b.MonotoneViolations() == 0,
			ContiguousOK:     w.b.Contiguous(),
			Captured:         w.b.AllClean(),
		},
		Log:         w.log,
		Team:        team,
		Spares:      spares,
		Crashes:     w.crashes,
		Reassigned:  w.reassigned,
		Reelections: w.reelections,
		SparesUsed:  w.sparesUsed,
	}
}

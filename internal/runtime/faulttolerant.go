package runtime

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hypersearch/internal/combin"
	"hypersearch/internal/faults"
	"hypersearch/internal/trace"
	"hypersearch/internal/whiteboard"
)

// CleanName identifies the concurrent coordinated run in results.
const CleanName = "clean-goroutines"

// fieldSync is the root-whiteboard field agents race on to elect the
// synchronizer: "the first that gains access will become the
// synchronizer" — realized as a compare-and-swap under the
// whiteboard's mutual exclusion.
const fieldSync = "synchronizer"

// Whiteboard fields of the recovery protocol, all on the homebase
// board (the root is clean from the start and every agent can reach
// it, so it doubles as the durable registry of the paper's model).
const (
	fieldCk    = "ck"          // synchronizer checkpoint: completed steps
	fieldOwner = "sync.owner"  // current synchronizer id + 1
	fieldEpoch = "sync.epoch." // re-election CAS field, one per epoch
	fieldLease = "lease."      // per-agent heartbeat counter
	fieldFence = "fence."      // set once the watchdog declares an agent dead
	fieldOrder = "ord."        // per-order mirror: 2*destination + completed
)

// Field names for the per-agent and per-order dynamic fields. The
// per-agent lease/fence fields are interned once in initAgents and the
// per-order fields once at issue time, so the heartbeat, watchdog and
// walk loops never hash a field name.
func leaseField(id int) string   { return fmt.Sprintf("%s%d", fieldLease, id) }
func fenceField(id int) string   { return fmt.Sprintf("%s%d", fieldFence, id) }
func epochField(e int64) string  { return fmt.Sprintf("%s%d", fieldEpoch, e) }
func orderField(k string) string { return fieldOrder + k }

// ftOrder is one ledger entry: a walk some agent owes the search. The
// destination plus the walker's board position fully determine the
// remaining path (tree paths for outbound work, clear-bits-first
// shortest paths for homeward walks), which is what makes a crashed
// walk reconstructible.
type ftOrder struct {
	key      string
	assignee int
	dst      int
	register bool // true: report to at[dst]; false: walk home to the pool
	done     bool

	field whiteboard.Field // interned "ord.<key>" mirror field
}

// initAgents places total agents on the homebase (recording the trace)
// and splits them into the working pool (0..team-1) and spares.
func (w *ftWorld) initAgents(total, team int) {
	w.conds = make([]sync.Cond, total)
	w.inbox = make([][]string, total)
	w.dead = make([]bool, total)
	w.exited = make([]bool, total)
	w.hbStop = make([]atomic.Bool, total)
	w.fLease = make([]whiteboard.Field, total)
	w.fFence = make([]whiteboard.Field, total)
	for i := 0; i < total; i++ {
		w.conds[i].L = &w.mu
		w.fLease[i] = w.wb.Field(leaseField(i))
		w.fFence[i] = w.wb.Field(fenceField(i))
	}
	w.mu.Lock()
	for i := 0; i < total; i++ {
		id := w.b.Place(w.step)
		w.record(trace.Event{Time: w.step, Kind: trace.Place, Agent: id, To: 0, Role: roleFor(i, team)})
		w.step++
		if i < team {
			w.pool = append(w.pool, id)
		} else {
			w.spares = append(w.spares, id)
		}
	}
	w.mu.Unlock()
}

func roleFor(i, team int) string {
	if i < team {
		return "cleaner"
	}
	return "spare"
}

func (w *ftWorld) record(e trace.Event) {
	if w.log != nil {
		w.log.Append(e)
	}
}

// action consults the injector for one move; a nil injector is a
// fault-free run.
func (w *ftWorld) action(ctx faults.MoveCtx) faults.Action {
	if w.inj == nil {
		return faults.Action{}
	}
	return w.inj.BeforeMove(ctx)
}

func (w *ftWorld) sleepUnits(units int64) {
	if units > 0 && w.cfg.FaultUnit > 0 {
		time.Sleep(time.Duration(units) * w.cfg.FaultUnit)
	}
}

// applyMove performs one fenced, traced board move. A positive hold
// simulates whiteboard lock starvation: the mutex is held for that
// long with every other agent shut out. No CLEAN wait reads the board,
// so the move wakes nobody. Returns false when the agent was fenced by
// the watchdog and must stop acting.
func (w *ftWorld) applyMove(id, to int, hold int64, sync bool) bool {
	w.mu.Lock()
	if w.dead[id] {
		w.mu.Unlock()
		return false
	}
	from, _ := w.b.Position(id)
	w.b.Move(id, to, w.step)
	role := "cleaner"
	if sync {
		w.syncMoves++
		role = "synchronizer"
	}
	w.record(trace.Event{Time: w.step, Kind: trace.Move, Agent: id, From: from, To: to, Role: role})
	w.step++
	if hold > 0 && w.cfg.FaultUnit > 0 {
		time.Sleep(time.Duration(hold) * w.cfg.FaultUnit)
	}
	w.mu.Unlock()
	return true
}

// awaitLocked blocks until cond holds, returning false if the agent is
// fenced first. Caller holds w.mu.
func (w *ftWorld) awaitLocked(id int, cond func() bool) bool {
	for {
		if w.dead[id] {
			return false
		}
		if cond() {
			return true
		}
		w.conds[id].Wait()
	}
}

// noteCrash is the injected crash: the agent's goroutines stop, its
// heartbeat ceases, and nothing else is cleaned up — detection is the
// watchdog's job, through the expiring lease.
func (w *ftWorld) noteCrash(id int) {
	w.stopHeartbeat(id)
	w.mu.Lock()
	w.crashes++
	w.mu.Unlock()
}

func (w *ftWorld) stopHeartbeat(id int) { w.hbStop[id].Store(true) }

// finish marks a clean exit: the lease stops being monitored.
func (w *ftWorld) finish(id int) {
	w.mu.Lock()
	w.exited[id] = true
	w.mu.Unlock()
	w.stopHeartbeat(id)
}

// startLiveness starts one heartbeat per agent and the watchdog. A
// heartbeat renews its agent's lease on the homebase whiteboard from
// its own goroutine, so a stalled (but live) agent is never mistaken
// for a crashed one — liveness and progress are separate.
func (w *ftWorld) startLiveness(total int) {
	for id := 0; id < total; id++ {
		var n int64
		w.goLive(func() bool {
			if w.hbStop[id].Load() {
				return false
			}
			n++
			w.wb.At(0).Write(w.fLease[id], n)
			return true
		})
	}
	w.goLive(w.watchdog())
}

// watchdog returns the watchdog's tick: it samples every lease and
// declares an agent dead once its lease has been silent for LeaseTTL.
// Every tick also wakes every agent, healing any wakeups the fault
// injector swallowed.
func (w *ftWorld) watchdog() func() bool {
	type lease struct {
		val   int64
		since time.Time
	}
	seen := make([]lease, len(w.hbStop))
	start := time.Now()
	for i := range seen {
		seen[i].since = start
	}
	return func() bool {
		w.mu.Lock()
		done := w.doneFlag
		w.wakeAllLocked()
		w.mu.Unlock()
		if done {
			return false
		}
		now := time.Now()
		for id := range seen {
			v := w.wb.At(0).Read(w.fLease[id])
			if v != seen[id].val {
				seen[id] = lease{v, now}
				continue
			}
			if now.Sub(seen[id].since) >= w.cfg.LeaseTTL {
				w.declareDead(id)
			}
		}
		return true
	}
}

// declareDead fences an expired agent and starts recovery: a dead
// synchronizer opens a new election epoch; a dead worker's incomplete
// outbound orders are reassigned to spares, which re-execute them from
// the root along the (still clean) broadcast-tree paths.
func (w *ftWorld) declareDead(id int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.doneFlag || w.dead[id] || w.exited[id] {
		return
	}
	w.dead[id] = true
	w.wb.At(0).Write(w.fFence[id], 1)
	w.inbox[id] = nil
	if id == w.syncID {
		w.epoch++
		w.needSync = true
		if len(w.spares) == 0 {
			panic("runtime: synchronizer crashed with no spares left to re-elect; raise Config.Spares")
		}
	} else {
		keys := make([]string, 0, 4)
		for key, ord := range w.ledger {
			if ord.assignee == id && !ord.done && ord.register {
				keys = append(keys, key)
			}
		}
		sort.Strings(keys)
		for _, key := range keys {
			ord := w.ledger[key]
			s := w.takeSpareLocked()
			ord.assignee = s
			w.inbox[s] = append(w.inbox[s], key)
			w.reassigned++
		}
	}
	w.wakeAllLocked()
}

func (w *ftWorld) takeSpareLocked() int {
	if len(w.spares) == 0 {
		panic("runtime: spare pool exhausted during recovery; raise Config.Spares")
	}
	s := w.spares[0]
	w.spares = w.spares[1:]
	w.sparesUsed++
	return s
}

// poolInboundLocked reports whether some live agent still holds an
// incomplete homeward order and will therefore rejoin the root pool.
func (w *ftWorld) poolInboundLocked() bool {
	for _, ord := range w.ledger {
		if !ord.done && !ord.register && ord.assignee >= 0 && !w.dead[ord.assignee] {
			return true
		}
	}
	return false
}

// takeWorkerLocked draws an idle agent from the root pool. When the
// pool is empty it waits for inbound returners rather than racing them
// against the spare reserve — drafting a spare just because a returner
// is a few scheduler ticks from home would make the spare count depend
// on wall-clock timing. A spare is drafted only once the pool can no
// longer refill (every homeward walker is done or dead). Returns false
// if the caller is fenced while waiting.
func (w *ftWorld) takeWorkerLocked(caller int) (int, bool) {
	if !w.awaitLocked(caller, func() bool {
		return len(w.pool) > 0 || (!w.poolInboundLocked() && len(w.spares) > 0)
	}) {
		return -1, false
	}
	if len(w.pool) > 0 {
		a := w.pool[len(w.pool)-1]
		w.pool = w.pool[:len(w.pool)-1]
		return a, true
	}
	return w.takeSpareLocked(), true
}

// popLiveAtLocked removes and returns a live agent standing on x, or
// -1 when only crashed bodies remain (they keep guarding x but cannot
// walk; a spare must take over their onward duty).
func (w *ftWorld) popLiveAtLocked(x int) int {
	agents := w.at[x]
	for i := len(agents) - 1; i >= 0; i-- {
		a := agents[i]
		if w.dead[a] {
			continue
		}
		w.at[x] = append(agents[:i], agents[i+1:]...)
		return a
	}
	return -1
}

// issueLocked records an order on the ledger (mirrored to the homebase
// whiteboard), posts it to the assignee's inbox and wakes the assignee.
// An assignee of -1 records a vacuously complete order — the work is
// moot, e.g. a dead leaf agent that stays behind as a permanent guard.
func (w *ftWorld) issueLocked(key string, assignee, dst int, register bool) *ftOrder {
	ord := &ftOrder{key: key, assignee: assignee, dst: dst, register: register}
	ord.field = w.wb.Field(orderField(key))
	w.ledger[key] = ord
	w.wb.At(0).Write(ord.field, 2*int64(dst))
	if assignee < 0 {
		w.completeLocked(ord)
	} else {
		w.inbox[assignee] = append(w.inbox[assignee], key)
	}
	w.signalLocked(assignee)
	return ord
}

// execute walks one order. The remaining path is reconstructed from
// the agent's current position and the order's destination: outbound
// orders descend the broadcast tree (the walker's position is always
// an ancestor of the destination — spares start at the root, escorted
// cleaners at the destination's parent), homeward orders follow the
// clear-bits-first shortest path. Completion wakes the synchronizer,
// the only agent that waits on orders, the pool and node complements.
// Returns false if the agent crashed or was fenced mid-walk.
func (w *ftWorld) execute(id int, ord *ftOrder, rng *rand.Rand) bool {
	if !w.walk(id, ord.dst, ord.register, faults.MoveCtx{Agent: id, OrderKey: ord.key}, rng) {
		return false
	}
	w.mu.Lock()
	w.completeLocked(ord)
	if ord.register {
		w.at[ord.dst] = append(w.at[ord.dst], id)
	} else {
		w.pool = append(w.pool, id)
	}
	w.signalLocked(w.syncID)
	w.mu.Unlock()
	return true
}

// completeLocked marks ord done on the ledger and its mirror.
func (w *ftWorld) completeLocked(ord *ftOrder) {
	ord.done = true
	w.wb.At(0).Write(ord.field, 2*int64(ord.dst)+1)
}

// walk moves agent id hop by hop to dst: down the broadcast tree when
// tree is set, otherwise along the clear-bits-first shortest path,
// which stays inside the already-clean region. Each hop consults the
// injector with ctx first. Returns false on an injected crash or
// fencing.
func (w *ftWorld) walk(id, dst int, tree bool, ctx faults.MoveCtx, rng *rand.Rand) bool {
	w.mu.Lock()
	pos, _ := w.b.Position(id)
	w.mu.Unlock()
	for pos != dst {
		next := w.h.NextHopToward(pos, dst)
		if tree {
			next = w.bt.NextHopDown(pos, dst)
		}
		act := w.action(ctx)
		if act.Crash {
			w.noteCrash(id)
			return false
		}
		w.sleepUnits(act.Delay)
		sleepLatency(rng, w.cfg.MaxLatency)
		if !w.applyMove(id, next, act.Hold, ctx.Sync) {
			return false
		}
		pos = next
	}
	return true
}

// workerLoop is the local program of every non-synchronizer agent:
// serve orders from the inbox; spares additionally stand for election
// when the watchdog opens a new synchronizer epoch.
func (w *ftWorld) workerLoop(id int, spare bool, rng *rand.Rand) {
	w.mu.Lock()
	for {
		switch {
		case w.dead[id]:
			w.mu.Unlock()
			w.stopHeartbeat(id)
			return
		case len(w.inbox[id]) > 0:
			key := w.inbox[id][0]
			w.inbox[id] = w.inbox[id][1:]
			ord := w.ledger[key]
			w.mu.Unlock()
			if !w.execute(id, ord, rng) {
				return // crashed (lease expires) or fenced (already declared)
			}
			w.mu.Lock()
		case spare && w.needSync && w.inReserveLocked(id):
			e := w.epoch
			w.mu.Unlock()
			won := w.wb.At(0).CompareAndSwap(w.wb.Field(epochField(e)), 0, int64(id)+1)
			w.mu.Lock()
			if won && w.needSync && w.epoch == e {
				w.needSync = false
				w.syncID = id
				w.removeSpareLocked(id)
				w.sparesUsed++
				w.reelections++
				w.wb.At(0).Write(w.fOwner, int64(id)+1)
				w.wakeAllLocked()
				w.mu.Unlock()
				w.syncProgram(id, rng)
				return
			}
			for w.needSync && w.epoch == e && !w.dead[id] {
				w.conds[id].Wait()
			}
		case w.doneFlag:
			w.mu.Unlock()
			w.finish(id)
			return
		default:
			w.conds[id].Wait()
		}
	}
}

// inReserveLocked reports whether id is still an undrafted spare. Only
// reserve spares may stand for synchronizer re-election: a drafted
// spare may be standing guard on a frontier node, and abandoning that
// post to run the synchronizer program would recontaminate the region
// behind it.
func (w *ftWorld) inReserveLocked(id int) bool {
	for _, s := range w.spares {
		if s == id {
			return true
		}
	}
	return false
}

func (w *ftWorld) removeSpareLocked(id int) {
	for i, s := range w.spares {
		if s == id {
			w.spares = append(w.spares[:i], w.spares[i+1:]...)
			return
		}
	}
}

// removeFromPoolLocked drops id from the root pool (the elected
// synchronizer stops being assignable).
func (w *ftWorld) removeFromPoolLocked(id int) {
	for i, a := range w.pool {
		if a == id {
			w.pool = append(w.pool[:i], w.pool[i+1:]...)
			return
		}
	}
}

// terminateAllLocked retires every still-active agent in place,
// recording the trace. Crashed bodies stay as permanent guards.
func (w *ftWorld) terminateAllLocked() {
	for id := 0; id < w.b.Agents(); id++ {
		if v, active := w.b.Position(id); active {
			w.b.Terminate(id, w.step)
			w.record(trace.Event{Time: w.step, Kind: trace.Terminate, Agent: id, From: v, To: v})
			w.step++
		}
	}
}

// RunClean executes Algorithm CLEAN with one goroutine per agent: the
// team races a whiteboard CAS election, the winner runs the
// checkpointed synchronizer program, and the rest serve the orders it
// posts. The synchronizer guides every escorted crossing with its own
// round trip, so a fault-free run spends exactly the moves of the
// discrete-event engine.
//
// cfg.Faults injects deterministic adversity and switches on recovery:
// every agent then maintains a lease the watchdog monitors, a crashed
// cleaner's walk is reconstructed from the order ledger and reassigned
// to a spare, and a crashed synchronizer triggers a CAS re-election
// among the spares, whose winner resumes from the whiteboard
// checkpoint. The search completes with the surviving team as long as
// spares cover the crashes.
func RunClean(d int, cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	var inj *faults.Injector
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return Report{}, err
		}
		inj = faults.NewInjector(cfg.Faults)
	}
	w := newFTWorld(d, cfg, inj)
	team := int(combin.CleanTeamSize(d))
	spares := cfg.Spares
	if spares <= 0 && inj != nil && inj.Crashes() > 0 {
		spares = inj.Crashes() + 1
	}
	total := team + spares
	w.initAgents(total, team)

	if d > 0 {
		if inj != nil {
			w.startLiveness(total)
		}
		w.runAgents(total, func(id int, rng *rand.Rand) { w.agentMain(id, id >= team, rng) })
	}
	return w.report(CleanName, team, spares), nil
}

// agentMain races the initial election (workers only — spares stay in
// reserve) and then runs the won role.
func (w *ftWorld) agentMain(id int, spare bool, rng *rand.Rand) {
	if !spare && w.wb.At(0).CompareAndSwap(w.fSync, 0, int64(id)+1) {
		w.mu.Lock()
		w.syncID = id
		w.removeFromPoolLocked(id)
		w.mu.Unlock()
		w.wb.At(0).Write(w.fOwner, int64(id)+1)
		w.syncProgram(id, rng)
		return
	}
	w.workerLoop(id, spare, rng)
}

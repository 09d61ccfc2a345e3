package runtime

import (
	"fmt"
	"math/rand"

	"hypersearch/internal/faults"
)

// The synchronizer program is a deterministic list of resumable steps,
// checkpointed on the homebase whiteboard: after completing step i the
// synchronizer writes ck=i+1, so a re-elected successor skips the
// finished prefix and replays only the step in flight. Replays are
// safe because every order a step issues is recorded on the ledger
// first (issue-if-absent) and completions are awaited by ledger state,
// not by transient channels.
type ftStep struct {
	kind  int
	node  int // escort0: root child; node: the level node x
	level int
	idx   int // escort0: child index (key material)
}

const (
	stepEscort0  = iota // phase 0: send one cleaner to a root child
	stepDispatch        // step 2.1: couriers to every type-T(k) node, k >= 2
	stepNode            // steps 2.2/2.3: process one node of the level walk
	stepHome            // return to the root between levels
)

// buildSteps lays out the whole CLEAN schedule for this dimension.
func (w *ftWorld) buildSteps() []ftStep {
	d := w.h.Dim()
	var steps []ftStep
	for i, c := range w.bt.Children(0) {
		steps = append(steps, ftStep{kind: stepEscort0, node: c, idx: i})
	}
	for l := 1; l <= d-1; l++ {
		steps = append(steps, ftStep{kind: stepDispatch, level: l})
		for _, x := range w.h.NodesAtLevel(l) {
			steps = append(steps, ftStep{kind: stepNode, node: x, level: l})
		}
		steps = append(steps, ftStep{kind: stepHome, level: l})
	}
	return steps
}

// syncProgram runs (or resumes) the synchronizer role from the
// whiteboard checkpoint. On a crash or fencing mid-step it simply
// returns; the watchdog's re-election hands the remainder, ledger and
// all, to a spare.
func (w *ftWorld) syncProgram(id int, rng *rand.Rand) {
	steps := w.buildSteps()
	start := int(w.wb.At(0).Read(w.fCk))
	for i := start; i < len(steps); i++ {
		if !w.execStep(id, steps[i], rng) {
			return
		}
		w.wb.At(0).Write(w.fCk, int64(i+1))
	}
	w.mu.Lock()
	w.doneFlag = true
	w.wakeAllLocked()
	w.mu.Unlock()
	w.finish(id)
}

// execStep runs one step, tolerating partial prior execution. Returns
// false when the synchronizer crashed or was fenced.
func (w *ftWorld) execStep(id int, st ftStep, rng *rand.Rand) bool {
	switch st.kind {
	case stepEscort0:
		return w.escort(id, fmt.Sprintf("p0.e%d", st.idx), 0, st.node, fromPool, rng)

	case stepDispatch:
		if !w.syncWalkTo(id, 0, rng) {
			return false
		}
		for _, x := range w.h.NodesAtLevel(st.level) {
			k := w.bt.Type(x)
			for i := 0; i < k-1; i++ {
				key := fmt.Sprintf("d%d.x%d.c%d", st.level, x, i)
				w.mu.Lock()
				if _, ok := w.ledger[key]; !ok {
					a, alive := w.takeWorkerLocked(id)
					if !alive {
						w.mu.Unlock()
						return false
					}
					w.issueLocked(key, a, x, true)
				}
				w.mu.Unlock()
			}
		}
		return true

	case stepNode:
		return w.execNodeStep(id, st, rng)

	case stepHome:
		return w.syncWalkTo(id, 0, rng)
	}
	panic("runtime: unknown synchronizer step")
}

// execNodeStep walks the synchronizer to x and performs step 2.2/2.3
// there: release a leaf's cleaner homeward, or await the complement
// and send one cleaner down each broadcast-tree edge.
func (w *ftWorld) execNodeStep(id int, st ftStep, rng *rand.Rand) bool {
	x := st.node
	if !w.syncWalkTo(id, x, rng) {
		return false
	}
	k := w.bt.Type(x)
	if k == 0 {
		key := fmt.Sprintf("w%d.x%d.home", st.level, x)
		w.mu.Lock()
		if _, ok := w.ledger[key]; !ok {
			// A dead leaf agent stays behind as a permanent guard; the
			// order is then vacuously complete (assignee -1).
			w.issueLocked(key, w.popLiveAtLocked(x), 0, false)
		}
		w.mu.Unlock()
		return true
	}
	// Await the full complement before the first escort only: on a
	// resumed step the already-issued escorts have consumed part of it.
	firstKey := fmt.Sprintf("w%d.x%d.e0", st.level, x)
	w.mu.Lock()
	if _, ok := w.ledger[firstKey]; !ok {
		if !w.awaitLocked(id, func() bool { return len(w.at[x]) >= k }) {
			w.mu.Unlock()
			return false
		}
	}
	w.mu.Unlock()
	for j, child := range w.bt.Children(x) {
		key := fmt.Sprintf("w%d.x%d.e%d", st.level, x, j)
		if !w.escort(id, key, x, child, fromNode(x), rng) {
			return false
		}
	}
	return true
}

// escort sends one cleaner across the tree edge from→child and, once
// it has landed, walks the synchronizer to child and back: the paper's
// synchronizer guides every crossing, so each escort costs it the same
// round trip as in the discrete-event engine. The cleaner crossing
// first is the strictly safer concurrent interleaving — child is
// guarded before the synchronizer steps onto it. A replayed step
// repeats the round trip.
func (w *ftWorld) escort(id int, key string, from, child int, pick picker, rng *rand.Rand) bool {
	return w.issueAndAwait(id, key, child, pick) &&
		w.syncWalkTo(id, child, rng) &&
		w.syncWalkTo(id, from, rng)
}

// Assignee pickers for issueAndAwait. They run under w.mu.
type picker func(w *ftWorld, caller int) (assignee int, alive bool)

func fromPool(w *ftWorld, caller int) (int, bool) {
	return w.takeWorkerLocked(caller)
}

// fromNode prefers a live cleaner standing on x and falls back to a
// spare when only crashed bodies remain there.
func fromNode(x int) picker {
	return func(w *ftWorld, caller int) (int, bool) {
		if a := w.popLiveAtLocked(x); a >= 0 {
			return a, true
		}
		return w.takeSpareLocked(), true
	}
}

// issueAndAwait issues an outbound order (if this step's replay has
// not already) and blocks until it completes. Returns false if the
// synchronizer is fenced while waiting.
func (w *ftWorld) issueAndAwait(id int, key string, dst int, pick picker) bool {
	w.mu.Lock()
	ord, ok := w.ledger[key]
	if !ok {
		a, alive := pick(w, id)
		if !alive {
			w.mu.Unlock()
			return false
		}
		ord = w.issueLocked(key, a, dst, true)
	}
	okDone := w.awaitLocked(id, func() bool { return ord.done })
	w.mu.Unlock()
	return okDone
}

// syncWalkTo moves the synchronizer itself to dst along the
// clear-bits-first shortest path, which stays inside the already-clean
// region. Returns false on an injected crash or fencing.
func (w *ftWorld) syncWalkTo(id, dst int, rng *rand.Rand) bool {
	return w.walk(id, dst, false, faults.MoveCtx{Agent: id, Sync: true}, rng)
}

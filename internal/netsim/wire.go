package netsim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hypersearch/internal/heapqueue"
	"hypersearch/internal/hypercube"
	"hypersearch/internal/netsim/faultlink"
)

// wire is the protocol-independent half of a wiring, shared by the
// visibility/cloning network and the coordinated cleanNet: one mailbox
// per host, the pooled wire-fault layer, the timer quiescence barrier,
// and the latency draw with direct-or-timer delivery. A wire lives
// inside a Fabric and is reused across runs: build runs once, reset
// re-arms it at the start of every run. What stays per protocol is the
// message type M, the layer's deliver and crash callbacks, message
// accounting and the host loops.
type wire[M any] struct {
	h     *hypercube.Hypercube
	bt    *heapqueue.Tree
	cfg   Config
	val   validator
	boxes []*queue[M]

	// deliver and crash are the wire-fault layer's callbacks, fixed at
	// build time so a pooled wire re-arms without allocating.
	deliver func(to, from int, replay bool, m M)
	crash   func(to int)

	// fl is the active wire-fault layer (nil on the fault-free path);
	// flPool is the pooled instance it aliases, kept across runs so a
	// faulted run after a clean one reuses the link/ledger maps.
	fl     *faultlink.Layer[M]
	flPool *faultlink.Layer[M]

	timers timerSet // quiescence barrier over fault-free delivery timers
}

// build wires the fabric's topology: one open mailbox per host.
func (w *wire[M]) build(h *hypercube.Hypercube, bt *heapqueue.Tree,
	deliver func(to, from int, replay bool, m M), crash func(to int)) {
	w.h, w.bt = h, bt
	w.deliver, w.crash = deliver, crash
	w.boxes = make([]*queue[M], h.Order())
	for v := range w.boxes {
		w.boxes[v] = newQueue[M]()
	}
}

// reset re-arms the wire for a new run: mailboxes reopen with bounded
// retained capacity, and the wire-fault layer is interposed when the
// plan asks for it. The plan is validated against this topology first
// — a link target naming a host outside 2^d would silently never fire,
// so it is rejected here at engine-config time.
func (w *wire[M]) reset(cfg Config, val validator) {
	for _, q := range w.boxes {
		q.reset()
	}
	w.cfg, w.val = cfg, val
	if err := cfg.Faults.ValidateForHosts(w.h.Order()); err != nil {
		panic(fmt.Errorf("netsim: %w", err))
	}
	if !cfg.Faults.HasLinkFaults() {
		w.fl = nil
		return
	}
	if w.flPool == nil {
		w.flPool = faultlink.New(cfg.Faults, w.h.Order(), faultlink.Options{}, w.deliver, w.crash)
	} else {
		w.flPool.Reset(cfg.Faults)
	}
	w.fl = w.flPool
}

// latency draws one delivery's link latency in [0, MaxLatency] from
// the sending host's stream.
func (w *wire[M]) latency(rng *hostRNG) time.Duration {
	if w.cfg.MaxLatency <= 0 {
		return 0
	}
	return time.Duration(rng.Int63n(int64(w.cfg.MaxLatency) + 1))
}

// post delivers m to host to on the fault-free path: directly when the
// latency is zero, otherwise on a wall-clock timer under the barrier.
func (w *wire[M]) post(lat time.Duration, to int, m M) {
	if lat == 0 {
		w.boxes[to].Send(m)
		return
	}
	w.timers.after(lat, func() { w.boxes[to].Send(m) })
}

// quiesce drains every wall-clock timer the run scheduled: the
// engine's own delivery timers and, when faulted, the wire layer's
// retransmit/delay/duplicate timers.
func (w *wire[M]) quiesce() {
	w.timers.wait()
	if w.fl != nil {
		w.fl.Quiesce()
	}
}

// pendingTimers reports the scheduled timers of both kinds that have
// not yet completed.
func (w *wire[M]) pendingTimers() int64 {
	n := w.timers.pending.Load()
	if w.flPool != nil {
		n += w.flPool.PendingTimers()
	}
	return n
}

// linkSummary is the run's wire-fault accounting; zero without link
// faults.
func (w *wire[M]) linkSummary() faultlink.Summary {
	if w.fl == nil {
		return faultlink.Summary{}
	}
	return w.fl.SummaryStats()
}

// timerSet is a run's timer quiescence barrier: every time.AfterFunc
// the engine schedules registers at schedule time and deregisters only
// after its callback returns, and wait blocks until the count drains.
// Joining the host goroutines proves the protocol finished; draining
// the barrier proves no delivery is still in flight on a wall-clock
// timer — without it a delayed Send is a benign straggler on a
// throwaway network but a use-after-reuse on a pooled one.
type timerSet struct {
	wg      sync.WaitGroup
	pending atomic.Int64 // observable mirror of the WaitGroup count
}

// after schedules fn on a wall-clock timer under the barrier.
func (t *timerSet) after(d time.Duration, fn func()) {
	t.pending.Add(1)
	t.wg.Add(1)
	time.AfterFunc(d, func() {
		defer func() {
			t.pending.Add(-1)
			t.wg.Done()
		}()
		fn()
	})
}

// wait blocks until every scheduled timer has fired and returned. The
// engines' sends never chain timers, and wait is only called after
// the host goroutines have joined, so no new registration can race the
// drain.
func (t *timerSet) wait() { t.wg.Wait() }

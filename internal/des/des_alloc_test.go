package des

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
)

// nop is a prebuilt callback so the tests measure the kernel's own
// allocations, not the test closure's.
var nop = func() {}

// TestScheduleRunZeroAllocs: once heap capacity is warm, scheduling
// and dispatching plain events allocates nothing — the typed 4-ary
// heap moves events without interface boxing.
func TestScheduleRunZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	s := New()
	for i := 0; i < 1024; i++ {
		s.After(int64(i), nop)
	}
	s.Run() // warm the heap's backing array
	allocs := testing.AllocsPerRun(100, func() {
		for i := int64(1); i <= 64; i++ {
			s.After(i, nop)
		}
		s.Run()
	})
	if allocs != 0 {
		t.Errorf("schedule+run allocates %.1f per batch, want 0", allocs)
	}
}

// TestDeferralZeroAllocs: an interceptor deferral re-pushes the popped
// event into the slot pop just freed. Before the typed heap, every
// deferral boxed the event into an interface{} — a fresh allocation
// per deferral.
func TestDeferralZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	s := New()
	const horizon = 64
	s.Intercept(func(at, seq int64) int64 {
		if at < horizon {
			return 1 // defer until the event drifts past the horizon
		}
		return 0
	})
	s.After(1, nop)
	s.Run() // warm capacity (and exercise repeated deferral once)
	allocs := testing.AllocsPerRun(100, func() {
		s.After(1, nop)
		s.Run()
	})
	if allocs != 0 {
		t.Errorf("deferral allocates %.1f per run, want 0", allocs)
	}
}

// TestDelayStepNearZeroAllocs: a process Delay carries the process
// pointer in the event itself, so steady-state virtual sleeps cost no
// closure and no boxing. Spawning inherently allocates (goroutine,
// channels), so measure the marginal cost per extra Delay instead.
func TestDelayStepNearZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	measure := func(delays int) uint64 {
		s := New()
		s.Spawn("p", func(p *Process) {
			for i := 0; i < delays; i++ {
				p.Delay(1)
			}
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.Run()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	measure(1000) // warmup
	base := minMallocs(measure, 1000)
	big := minMallocs(measure, 51000)
	perDelay := float64(big-base) / 50000
	if perDelay > 0.01 {
		t.Errorf("Delay allocates %.3f per step, want ~0 (base=%d big=%d)", perDelay, base, big)
	}
}

// TestFireReusesWaiterArrays: steady-state Await/Fire waves recycle
// the Signal's backing arrays, so the marginal cost of a wave is
// (near) zero allocations. Spawning is excluded the same way as in
// the Delay test: compare a short run against a long one.
func TestFireReusesWaiterArrays(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	measure := func(waves int) uint64 {
		s := New()
		var sig Signal
		const waiters = 8
		for w := 0; w < waiters; w++ {
			s.Spawn("w", func(p *Process) {
				for i := 0; i < waves; i++ {
					p.Await(&sig)
				}
			})
		}
		s.Spawn("firer", func(p *Process) {
			for i := 0; i < waves; i++ {
				p.Delay(1)
				s.Fire(&sig)
			}
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.Run()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	measure(100) // warmup
	base := minMallocs(measure, 100)
	big := minMallocs(measure, 5100)
	perWave := float64(big-base) / 5000
	if perWave > 0.05 {
		t.Errorf("Fire wave allocates %.3f, want ~0 (base=%d big=%d)", perWave, base, big)
	}
}

// minMallocs runs measure(n) a few times and returns the smallest
// allocation count seen. The runtime's own background work (worker
// goroutines of earlier runs exiting, scheduler bookkeeping) can only
// add mallocs to a measured window, never remove them, so the minimum
// is the closest reading of the kernel's own cost. The result is
// signed so a short run that caught more noise than a long one yields
// a negative marginal cost instead of wrapping around.
func minMallocs(measure func(n int) uint64, n int) int64 {
	best := measure(n)
	for i := 0; i < 4; i++ {
		best = min(best, measure(n))
	}
	return int64(best)
}

// TestHeapOrderRandomized: the 4-ary heap dispatches any workload in
// (time, seq) order — the same contract the container/heap version
// obeyed.
func TestHeapOrderRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		s := New()
		n := 1 + rng.Intn(500)
		var got []int64
		for i := 0; i < n; i++ {
			at := int64(rng.Intn(64))
			s.Schedule(at, func() { got = append(got, at) })
		}
		s.Run()
		if len(got) != n {
			t.Fatalf("trial %d: dispatched %d of %d events", trial, len(got), n)
		}
		for i := 1; i < n; i++ {
			if got[i] < got[i-1] {
				t.Fatalf("trial %d: out of order at %d: %v", trial, i, got)
			}
		}
	}
}

// TestHeapSameTimeFIFO: equal-time events fire in scheduling order
// even through heap reshuffles caused by interleaved earlier events.
func TestHeapSameTimeFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.Schedule(10, func() { got = append(got, i) })
		if i%3 == 0 {
			s.Schedule(int64(i%7), nop)
		}
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time order broken: got[%d] = %d", i, v)
		}
	}
}

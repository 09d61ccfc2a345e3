package runtime

import (
	goruntime "runtime"
	"testing"
	"time"

	"hypersearch/internal/combin"
)

// Without a plan no watchdog re-wakes anyone, so a single missed
// targeted wakeup (an order its assignee never hears of, a completion
// the synchronizer sleeps through) hangs the run. Zero latency packs
// the wakeups as tightly as the scheduler allows; run under -race.
func TestCleanNilPlanWakeStress(t *testing.T) {
	const deadline = 30 * time.Second
	for d := 2; d <= 9; d++ {
		for seed := int64(0); seed < 20; seed++ {
			done := make(chan Report, 1)
			go func() {
				rep, err := RunClean(d, Config{Seed: seed})
				if err != nil {
					t.Errorf("d=%d seed=%d: %v", d, seed, err)
				}
				done <- rep
			}()
			select {
			case rep := <-done:
				if !rep.Result.Ok() {
					t.Fatalf("d=%d seed=%d: %s", d, seed, rep.Result.String())
				}
			case <-time.After(deadline):
				t.Fatalf("d=%d seed=%d: run still going after %v: a targeted wakeup was lost", d, seed, deadline)
			}
		}
	}
}

// A run without a fault plan has nothing to detect or heal, so it must
// start only its agents: no heartbeats, no watchdog, no re-broadcaster.
func TestNilPlanStartsNoLivenessGoroutines(t *testing.T) {
	const d = 5
	cases := []struct {
		name string
		run  func(int, Config) (Report, error)
		team int
	}{
		{"clean", RunClean, int(combin.CleanTeamSize(d))},
		{"visibility", RunVisibility, int(combin.VisibilityAgents(d))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := goruntime.NumGoroutine()
			done := make(chan error, 1)
			go func() {
				_, err := c.run(d, Config{Seed: 1, MaxLatency: 200 * time.Microsecond})
				done <- err
			}()
			// The run's own goroutine plus one per agent, at most.
			limit := base + 1 + c.team
			peak := 0
			for running := true; running; {
				select {
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
					running = false
				default:
					if n := goruntime.NumGoroutine(); n > peak {
						peak = n
					}
					goruntime.Gosched()
				}
			}
			if peak > limit {
				t.Errorf("peak %d goroutines during the run, want at most %d (base %d + run + %d agents)", peak, limit, base, c.team)
			}
			if peak <= base+1 {
				t.Fatalf("never sampled the run with its agents alive (peak %d, base %d)", peak, base)
			}
		})
	}
}

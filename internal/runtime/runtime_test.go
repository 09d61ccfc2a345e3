package runtime

import (
	"testing"
	"time"

	"hypersearch/internal/combin"
	"hypersearch/internal/metrics"
)

// result runs one fault-free execution and returns its summary.
func result(t *testing.T, run func(int, Config) (Report, error), d int, cfg Config) metrics.Result {
	t.Helper()
	rep, err := run(d, cfg)
	if err != nil {
		t.Fatalf("d=%d: %v", d, err)
	}
	return rep.Result
}

func TestRunVisibilityCorrectUnderConcurrency(t *testing.T) {
	for d := 0; d <= 7; d++ {
		r := result(t, RunVisibility, d, Config{Seed: int64(d), MaxLatency: 50 * time.Microsecond})
		if !r.Captured || !r.MonotoneOK || !r.ContiguousOK {
			t.Errorf("d=%d: %s", d, r.String())
		}
		if r.Recontaminations != 0 {
			t.Errorf("d=%d: %d recontaminations", d, r.Recontaminations)
		}
		if int64(r.TeamSize) != combin.VisibilityAgents(d) {
			t.Errorf("d=%d: team %d", d, r.TeamSize)
		}
		if d > 0 && r.TotalMoves != combin.VisibilityMoves(d) {
			t.Errorf("d=%d: moves %d, want %d", d, r.TotalMoves, combin.VisibilityMoves(d))
		}
	}
}

func TestRunVisibilityManySeeds(t *testing.T) {
	// The schedule changes with the seed; the outcome must not.
	for seed := int64(0); seed < 20; seed++ {
		r := result(t, RunVisibility, 5, Config{Seed: seed, MaxLatency: 20 * time.Microsecond})
		if !r.Ok() || r.TotalMoves != combin.VisibilityMoves(5) {
			t.Errorf("seed %d: %s", seed, r.String())
		}
	}
}

func TestRunVisibilityZeroLatency(t *testing.T) {
	// MaxLatency 0 disables sleeping entirely: maximum contention.
	r := result(t, RunVisibility, 6, Config{})
	if !r.Ok() {
		t.Errorf("%s", r.String())
	}
}

func TestRunCleanCorrectUnderConcurrency(t *testing.T) {
	for d := 0; d <= 6; d++ {
		r := result(t, RunClean, d, Config{Seed: 100 + int64(d), MaxLatency: 50 * time.Microsecond})
		if !r.Captured || !r.MonotoneOK || !r.ContiguousOK {
			t.Errorf("d=%d: %s", d, r.String())
		}
		if r.Recontaminations != 0 {
			t.Errorf("d=%d: %d recontaminations", d, r.Recontaminations)
		}
		if int64(r.TeamSize) != combin.CleanTeamSize(d) {
			t.Errorf("d=%d: team %d", d, r.TeamSize)
		}
	}
}

func TestRunCleanManySeeds(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := result(t, RunClean, 4, Config{Seed: seed, MaxLatency: 30 * time.Microsecond})
		if !r.Ok() {
			t.Errorf("seed %d: %s", seed, r.String())
		}
		// Agent moves are schedule-independent (minus the unreturned
		// final leaf agent, as in the DES implementation).
		want := combin.CleanAgentMoves(4) - 4
		if r.AgentMoves != want {
			t.Errorf("seed %d: agent moves %d, want %d", seed, r.AgentMoves, want)
		}
	}
}

func TestRuntimeMatchesDESCosts(t *testing.T) {
	// The concurrent implementations realize the same move totals as
	// the discrete-event reference for every seed (the schedules differ
	// in time only).
	const d = 6
	r := result(t, RunVisibility, d, Config{Seed: 9, MaxLatency: 10 * time.Microsecond})
	if r.TotalMoves != combin.VisibilityMoves(d) {
		t.Errorf("visibility moves %d, want %d", r.TotalMoves, combin.VisibilityMoves(d))
	}
	rc := result(t, RunClean, d, Config{Seed: 9, MaxLatency: 10 * time.Microsecond})
	if rc.AgentMoves != combin.CleanAgentMoves(d)-int64(d) {
		t.Errorf("clean agent moves %d", rc.AgentMoves)
	}
	if rc.SyncMoves == 0 {
		t.Error("synchronizer did not move")
	}
}

package coordinated

import (
	"testing"

	"hypersearch/internal/combin"
	"hypersearch/internal/strategy"
)

func TestCleanSmallDimensionsFullChecks(t *testing.T) {
	for d := 0; d <= 7; d++ {
		r, _ := Run(d, strategy.Options{Contiguity: strategy.CheckEveryMove})
		if !r.Captured {
			t.Errorf("d=%d: intruder not captured", d)
		}
		if !r.MonotoneOK {
			t.Errorf("d=%d: monotonicity violated", d)
		}
		if !r.ContiguousOK {
			t.Errorf("d=%d: contiguity violated", d)
		}
		if r.Recontaminations != 0 {
			t.Errorf("d=%d: %d recontaminations (descend-first routing should avoid all)", d, r.Recontaminations)
		}
		if r.TeamSize != int(combin.CleanTeamSize(d)) {
			t.Errorf("d=%d: team %d, want %d", d, r.TeamSize, combin.CleanTeamSize(d))
		}
	}
}

func TestCleanOddAndEvenDegrees(t *testing.T) {
	// The paper assumes d even "for ease of discussion"; the
	// implementation must handle odd d identically.
	for _, d := range []int{5, 6} {
		r, _ := Run(d, strategy.Options{})
		if !r.Ok() {
			t.Errorf("d=%d: %s", d, r.String())
		}
	}
}

func TestCleanAgentMovesMatchTheorem3(t *testing.T) {
	// Theorem 3 counts one root-to-leaf-and-back trajectory of 2l moves
	// per broadcast-tree leaf at level l, totalling (d+1)*2^(d-1). The
	// run is exactly d moves cheaper: the topmost leaf (the all-ones
	// node, at level d) keeps its agent when the search ends instead of
	// sending it home.
	for d := 1; d <= 8; d++ {
		r, _ := Run(d, strategy.Options{})
		want := combin.CleanAgentMoves(d) - int64(d)
		if r.AgentMoves != want {
			t.Errorf("d=%d: agent moves %d, want %d", d, r.AgentMoves, want)
		}
	}
}

func TestCleanSyncMovesOrderNLogN(t *testing.T) {
	// Synchronizer traffic is O(n log n): check the ratio to n*log n is
	// bounded and does not grow.
	var prevRatio float64
	for d := 4; d <= 9; d++ {
		r, _ := Run(d, strategy.Options{})
		ratio := float64(r.SyncMoves) / combin.NLogN(d)
		if ratio > 3 {
			t.Errorf("d=%d: sync moves %d = %.2f * n log n", d, r.SyncMoves, ratio)
		}
		if d > 4 && ratio > prevRatio*1.25 {
			t.Errorf("d=%d: sync ratio growing: %.3f after %.3f", d, ratio, prevRatio)
		}
		prevRatio = ratio
	}
}

func TestCleanPeakAwayMatchesPhaseFormula(t *testing.T) {
	// Under unit latency the peak number of agents simultaneously away
	// from the root equals the Theorem-2 phase maximum (the provisioned
	// team never needs to be exceeded, and it is fully used).
	for d := 2; d <= 8; d++ {
		r, _ := Run(d, strategy.Options{})
		if int64(r.PeakAway) > combin.CleanTeamSize(d) {
			t.Errorf("d=%d: peak away %d exceeds team %d", d, r.PeakAway, combin.CleanTeamSize(d))
		}
		// The peak must reach at least the largest phase requirement
		// minus the pool slack: every phase puts its guards + extras
		// out simultaneously.
		var maxPhase int64
		for l := 1; l <= d-1; l++ {
			if p := combin.CleanPhasePeak(d, l); p > maxPhase {
				maxPhase = p
			}
		}
		if d >= 2 && int64(r.PeakAway) < maxPhase-1 {
			t.Errorf("d=%d: peak away %d below phase requirement %d", d, r.PeakAway, maxPhase)
		}
	}
}

func TestCleanMakespanTracksSyncSerialization(t *testing.T) {
	// Theorem 4: ideal time is O(n log n); the synchronizer serializes
	// the run, so the makespan is at least its own move count and at
	// most total moves.
	for d := 3; d <= 8; d++ {
		r, _ := Run(d, strategy.Options{})
		if r.Makespan < r.SyncMoves {
			t.Errorf("d=%d: makespan %d below sync moves %d", d, r.Makespan, r.SyncMoves)
		}
		if r.Makespan > r.TotalMoves {
			t.Errorf("d=%d: makespan %d above total moves %d (everything is serialized or overlapped)", d, r.Makespan, r.TotalMoves)
		}
	}
}

func TestCleanUnderAdversarialAsynchrony(t *testing.T) {
	// The whiteboard-coordinated strategy must stay correct under
	// arbitrary per-move latencies.
	for seed := int64(0); seed < 12; seed++ {
		r, _ := Run(5, strategy.Options{
			Latency:    strategy.NewAdversarial(seed, 9),
			Contiguity: strategy.CheckEveryMove,
		})
		if !r.Ok() || r.Recontaminations != 0 {
			t.Errorf("seed %d: %s", seed, r.String())
		}
		if r.TeamSize != int(combin.CleanTeamSize(5)) {
			t.Errorf("seed %d: team %d", seed, r.TeamSize)
		}
	}
}

func TestCleanOrderIsLevelByLevel(t *testing.T) {
	// Figure 2's headline property: nodes settle level by level; every
	// level-l node settles before any level-(l+1) node.
	const d = 6
	_, env := Run(d, strategy.Options{Record: true})
	h := env.H
	maxOrder := make([]int, d+1)
	minOrder := make([]int, d+1)
	for l := range minOrder {
		minOrder[l] = 1 << 30
	}
	for v := 0; v < h.Order(); v++ {
		o := env.B.CleanOrder(v)
		if o < 0 {
			t.Fatalf("node %d never settled", v)
		}
		if v == 0 {
			// The root hosts the pool and the synchronizer until the
			// very end, so it settles last by construction; the
			// paper's figure marks it first because its neighbourhood
			// is secured after phase 0. Skip it.
			continue
		}
		l := h.Level(v)
		if o > maxOrder[l] {
			maxOrder[l] = o
		}
		if o < minOrder[l] {
			minOrder[l] = o
		}
	}
	for l := 1; l < d; l++ {
		if maxOrder[l] > minOrder[l+1] {
			t.Errorf("level %d finishes at order %d after level %d starts at %d",
				l, maxOrder[l], l+1, minOrder[l+1])
		}
	}
}

func TestCleanTraceReplays(t *testing.T) {
	const d = 5
	r, env := Run(d, strategy.Options{Record: true})
	b, err := env.Log().Replay(env.H, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !b.AllClean() || b.Moves() != r.TotalMoves || b.MonotoneViolations() != 0 {
		t.Error("replay disagrees with live run")
	}
}

func TestCleanSyncTrajectoryGolden(t *testing.T) {
	// The closed forms pin team size and agent moves only; this table
	// pins the synchronizer's own trajectory (descend-first routing,
	// lexicographic level walk, escorts) and the run's timing. Under
	// unit latency the synchronizer serializes the run, so its move
	// count is also the makespan.
	golden := []struct {
		d                   int
		syncMoves, makespan int64
	}{
		{2, 10, 10},
		{3, 28, 28},
		{4, 66, 66},
		{5, 142, 142},
		{6, 294, 294},
		{7, 596, 596},
		{8, 1198, 1198},
		{9, 2398, 2398},
		{10, 4794, 4794},
		{11, 9580, 9580},
		{12, 19146, 19146},
		{13, 38270, 38270},
		{14, 76510, 76510},
		{15, 152980, 152980},
		{16, 305910, 305910},
	}
	for _, g := range golden {
		r, _ := Run(g.d, strategy.Options{})
		if r.SyncMoves != g.syncMoves || r.Makespan != g.makespan {
			t.Errorf("d=%d: sync moves %d, makespan %d; want %d, %d", g.d, r.SyncMoves, r.Makespan, g.syncMoves, g.makespan)
		}
	}
}

package core

import (
	"testing"

	"hypersearch/internal/combin"
)

// TestEnginesAgreeOnCosts checks the reproduction's strongest internal
// consistency property: all three engines — deterministic DES, real
// goroutines, message-passing hosts — realize the same strategies with
// identical move totals and team sizes, whatever the schedule.
func TestEnginesAgreeOnCosts(t *testing.T) {
	const d = 6
	engines := []string{EngineDES, EngineGoroutines, EngineNetwork}

	t.Run("visibility", func(t *testing.T) {
		for _, engine := range engines {
			res, _, err := Run(Spec{Strategy: Visibility, Dim: d, Engine: engine, Seed: 42, AdversarialLatency: 11})
			if err != nil {
				t.Fatalf("%s: %v", engine, err)
			}
			if !res.Ok() {
				t.Fatalf("%s: %s", engine, res.String())
			}
			if res.TotalMoves != combin.VisibilityMoves(d) {
				t.Errorf("%s: moves %d, want %d", engine, res.TotalMoves, combin.VisibilityMoves(d))
			}
			if int64(res.TeamSize) != combin.VisibilityAgents(d) {
				t.Errorf("%s: team %d", engine, res.TeamSize)
			}
		}
	})

	t.Run("clean", func(t *testing.T) {
		for _, engine := range engines {
			res, _, err := Run(Spec{Strategy: Clean, Dim: d, Engine: engine, Seed: 42, AdversarialLatency: 11})
			if err != nil {
				t.Fatalf("%s: %v", engine, err)
			}
			if !res.Ok() {
				t.Fatalf("%s: %s", engine, res.String())
			}
			if res.AgentMoves != combin.CleanAgentMoves(d)-int64(d) {
				t.Errorf("%s: agent moves %d", engine, res.AgentMoves)
			}
			if int64(res.TeamSize) != combin.CleanTeamSize(d) {
				t.Errorf("%s: team %d", engine, res.TeamSize)
			}
			if res.Recontaminations != 0 {
				t.Errorf("%s: %d recontaminations", engine, res.Recontaminations)
			}
		}
	})

	t.Run("cloning", func(t *testing.T) {
		for _, engine := range []string{EngineDES, EngineNetwork} {
			res, _, err := Run(Spec{Strategy: Cloning, Dim: d, Engine: engine, Seed: 42, AdversarialLatency: 11})
			if err != nil {
				t.Fatalf("%s: %v", engine, err)
			}
			if !res.Ok() || res.TotalMoves != combin.CloningMoves(d) {
				t.Errorf("%s: %s", engine, res.String())
			}
		}
	})
}

// TestCleanSyncMovesAgreeAcrossEngines pins the synchronizer's exact
// trajectory: it is deterministic (descend-first routing, lexicographic
// walk), so all engines must count the same synchronizer moves.
func TestCleanSyncMovesAgreeAcrossEngines(t *testing.T) {
	for _, d := range []int{4, 5, 6, 8} {
		ref, _, err := Run(Spec{Strategy: Clean, Dim: d})
		if err != nil {
			t.Fatal(err)
		}
		for _, engine := range []string{EngineGoroutines, EngineNetwork} {
			res, _, err := Run(Spec{Strategy: Clean, Dim: d, Engine: engine, Seed: 7, AdversarialLatency: 13})
			if err != nil {
				t.Fatal(err)
			}
			if res.SyncMoves != ref.SyncMoves {
				t.Errorf("d=%d %s: sync moves %d, DES reference %d", d, engine, res.SyncMoves, ref.SyncMoves)
			}
		}
	}
}

package core

import (
	"fmt"
	"testing"

	"hypersearch/internal/combin"
	"hypersearch/internal/metrics"
)

// TestEnginesAgreeOnCosts checks the reproduction's strongest internal
// consistency property: all three engines — deterministic DES, real
// goroutines, message-passing hosts — realize the same strategies with
// identical move totals and team sizes, whatever the schedule, and
// match the paper's closed forms. CLEAN's synchronizer trajectory is
// deterministic too (descend-first routing, lexicographic walk, one
// round trip per escort), so every engine must also count the DES
// run's synchronizer moves.
func TestEnginesAgreeOnCosts(t *testing.T) {
	dims := []int{2, 4, 6, 8}
	latencies := []int64{0, 13}
	cases := []struct {
		strategy string
		engines  []string
		check    func(t *testing.T, label string, d int, res, ref metrics.Result)
	}{
		{Visibility, []string{EngineDES, EngineGoroutines, EngineNetwork}, func(t *testing.T, label string, d int, res, ref metrics.Result) {
			if res.TotalMoves != combin.VisibilityMoves(d) {
				t.Errorf("%s: moves %d, want %d", label, res.TotalMoves, combin.VisibilityMoves(d))
			}
			if int64(res.TeamSize) != combin.VisibilityAgents(d) {
				t.Errorf("%s: team %d", label, res.TeamSize)
			}
		}},
		{Clean, []string{EngineDES, EngineGoroutines, EngineNetwork}, func(t *testing.T, label string, d int, res, ref metrics.Result) {
			if res.AgentMoves != combin.CleanAgentMoves(d)-int64(d) {
				t.Errorf("%s: agent moves %d", label, res.AgentMoves)
			}
			if int64(res.TeamSize) != combin.CleanTeamSize(d) {
				t.Errorf("%s: team %d", label, res.TeamSize)
			}
			if res.Recontaminations != 0 {
				t.Errorf("%s: %d recontaminations", label, res.Recontaminations)
			}
			if res.SyncMoves != ref.SyncMoves {
				t.Errorf("%s: sync moves %d, DES reference %d", label, res.SyncMoves, ref.SyncMoves)
			}
		}},
		{Cloning, []string{EngineDES, EngineNetwork}, func(t *testing.T, label string, d int, res, ref metrics.Result) {
			if res.TotalMoves != combin.CloningMoves(d) {
				t.Errorf("%s: %s", label, res.String())
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.strategy, func(t *testing.T) {
			for _, d := range dims {
				ref, _, err := Run(Spec{Strategy: c.strategy, Dim: d})
				if err != nil {
					t.Fatalf("d=%d DES reference: %v", d, err)
				}
				for _, engine := range c.engines {
					for _, lat := range latencies {
						label := fmt.Sprintf("%s d=%d latency=%d", engine, d, lat)
						res, _, err := Run(Spec{Strategy: c.strategy, Dim: d, Engine: engine, Seed: 42, AdversarialLatency: lat})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if !res.Ok() {
							t.Fatalf("%s: %s", label, res.String())
						}
						if res.TeamSize != ref.TeamSize || res.AgentMoves != ref.AgentMoves || res.TotalMoves != ref.TotalMoves {
							t.Errorf("%s: team/agent/total %d/%d/%d, DES reference %d/%d/%d", label,
								res.TeamSize, res.AgentMoves, res.TotalMoves, ref.TeamSize, ref.AgentMoves, ref.TotalMoves)
						}
						c.check(t, label, d, res, ref)
					}
				}
			}
		})
	}
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

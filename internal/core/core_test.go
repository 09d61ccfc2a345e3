package core

import (
	"testing"

	"hypersearch/internal/combin"
	"hypersearch/internal/envpool"
	"hypersearch/internal/faults"
)

func TestRunAllStrategiesDES(t *testing.T) {
	for _, name := range []string{Clean, Visibility, Cloning, Synchronous} {
		res, env, err := Run(Spec{Strategy: name, Dim: 5, CheckEveryMove: true, Record: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Ok() {
			t.Errorf("%s: %s", name, res.String())
		}
		if env == nil || env.Log() == nil {
			t.Errorf("%s: missing env/trace", name)
		}
	}
}

func TestRunBaselines(t *testing.T) {
	res, _, err := Run(Spec{Strategy: NaiveDFS, Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Captured {
		t.Error("naive DFS should fail capture")
	}
	res, _, err = Run(Spec{Strategy: NaiveConvoy, Dim: 4, ConvoyTeam: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.TeamSize != 3 {
		t.Errorf("convoy team = %d", res.TeamSize)
	}
}

func TestRunGoroutineEngine(t *testing.T) {
	for _, name := range []string{Clean, Visibility} {
		res, env, err := Run(Spec{Strategy: name, Dim: 4, Engine: EngineGoroutines, Seed: 7, AdversarialLatency: 20})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Ok() {
			t.Errorf("%s: %s", name, res.String())
		}
		if env != nil {
			t.Errorf("%s: goroutine engine should not return an env", name)
		}
	}
}

func TestRunNetworkEngine(t *testing.T) {
	res, env, err := Run(Spec{Strategy: Visibility, Dim: 5, Engine: EngineNetwork, Seed: 2, AdversarialLatency: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() || env != nil {
		t.Errorf("network engine: %s env=%v", res.String(), env)
	}
	if res.TotalMoves != combin.VisibilityMoves(5) {
		t.Errorf("moves %d", res.TotalMoves)
	}
	resc, _, err := Run(Spec{Strategy: Clean, Dim: 4, Engine: EngineNetwork, Seed: 5, AdversarialLatency: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !resc.Ok() || int64(resc.TeamSize) != combin.CleanTeamSize(4) {
		t.Errorf("network CLEAN: %s", resc.String())
	}
	resk, _, err := Run(Spec{Strategy: Cloning, Dim: 4, Engine: EngineNetwork, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !resk.Ok() || resk.TotalMoves != combin.CloningMoves(4) {
		t.Errorf("network cloning: %s", resk.String())
	}
	if _, _, err := Run(Spec{Strategy: Synchronous, Dim: 4, Engine: EngineNetwork}); err == nil {
		t.Error("network engine should reject unsupported strategies")
	}
}

func TestRunAdversarialDES(t *testing.T) {
	res, _, err := Run(Spec{Strategy: Visibility, Dim: 5, AdversarialLatency: 9, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() || res.TotalMoves != combin.VisibilityMoves(5) {
		t.Errorf("%s", res.String())
	}
	if res.Makespan < 5 {
		t.Errorf("adversarial makespan %d below d", res.Makespan)
	}
}

func TestRunErrors(t *testing.T) {
	if _, _, err := Run(Spec{Strategy: "nope", Dim: 3}); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, _, err := Run(Spec{Strategy: Clean, Dim: 3, Engine: "quantum"}); err == nil {
		t.Error("unknown engine accepted")
	}
	if _, _, err := Run(Spec{Strategy: Clean, Dim: -1}); err == nil {
		t.Error("negative dimension accepted")
	}
	if _, _, err := Run(Spec{Strategy: Cloning, Dim: 3, Engine: EngineGoroutines}); err == nil {
		t.Error("cloning has no goroutine engine but was accepted")
	}
}

// TestSynchronousRejectsFaultPlans: the synchronous variant is defined
// only for lockstep unit-latency rounds. A DES delay plan used to
// reach it and panic inside a DES process goroutine ("node 1 holds 2
// agents at t=1, want 4"), where no recover covers it; core must
// refuse the plan with an error, on both entry points, while the same
// plan still runs on an asynchronous strategy.
func TestSynchronousRejectsFaultPlans(t *testing.T) {
	spike := &faults.Plan{Name: "spike", Seed: 1, Faults: []faults.Fault{
		{Kind: faults.LatencySpike, Target: faults.TargetAny, At: 3, Until: 6, Delay: 4},
	}}
	spec := Spec{Strategy: Synchronous, Dim: 4, Faults: spike}
	if _, env, err := Run(spec); err == nil || env != nil {
		t.Errorf("Run: synchronous with a fault plan: err=%v env=%v, want an error and no env", err, env)
	}
	if _, env, err := RunWith(spec, envpool.New()); err == nil || env != nil {
		t.Errorf("RunWith: synchronous with a fault plan: err=%v env=%v, want an error and no env", err, env)
	}
	spec.Strategy = Visibility
	res, _, err := Run(spec)
	if err != nil || !res.Ok() {
		t.Errorf("visibility under the same plan: %s, %v", res.String(), err)
	}
}

func TestStrategiesList(t *testing.T) {
	names := Strategies()
	if len(names) != 6 {
		t.Errorf("strategies = %v", names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate %q", n)
		}
		seen[n] = true
	}
}

// Cross-strategy integration: the headline trade-off of the paper.
func TestTradeoffShape(t *testing.T) {
	const d = 8
	clean, _, _ := Run(Spec{Strategy: Clean, Dim: d})
	vis, _, _ := Run(Spec{Strategy: Visibility, Dim: d})
	if clean.TeamSize >= vis.TeamSize {
		t.Errorf("CLEAN should use fewer agents: %d vs %d", clean.TeamSize, vis.TeamSize)
	}
	if clean.Makespan <= vis.Makespan {
		t.Errorf("CLEAN should be slower: %d vs %d", clean.Makespan, vis.Makespan)
	}
	clone, _, _ := Run(Spec{Strategy: Cloning, Dim: d})
	if clone.TotalMoves >= vis.TotalMoves {
		t.Errorf("cloning should move less: %d vs %d", clone.TotalMoves, vis.TotalMoves)
	}
}

package fleet

import (
	"fmt"
	"testing"

	"farron/internal/defect"
	"farron/internal/simrand"
	"farron/internal/testkit"
)

// TestFaultySerialMatchesSprintf pins faultySerial against the original
// fmt format at every width: five digits zero-padded, wider indexes
// printed in full (the old %05d is width-independent past 99999 too).
func TestFaultySerialMatchesSprintf(t *testing.T) {
	for _, f := range []int{0, 1, 9, 10, 42, 99, 100, 999, 1000, 9999,
		10_000, 12_345, 99_999, 100_000, 123_456, 1_000_000} {
		want := fmt.Sprintf("%s-flt-%05d", "M8", f)
		if got := faultySerial("M8", f); got != want {
			t.Errorf("faultySerial(M8, %d) = %q, want %q", f, got, want)
		}
	}
	if got := faultySerial("M1", 7); got != "M1-flt-00007" {
		t.Errorf("faultySerial(M1, 7) = %q", got)
	}
}

// planFixture builds a simulator plus one fleet-faulty profile whose
// compiled plan has entries (the stress and rate coefficients of a real
// screening walk).
func planFixture(t testing.TB) (*Simulator, *defect.Profile, detectionPlan) {
	t.Helper()
	cfg := smallConfig(3)
	suite := testkit.NewSuite(simrand.New(cfg.Seed))
	sim, err := NewSimulator(cfg, suite)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 50; f++ {
		p := sim.gen.Faulty(faultySerial("M8", f), "M8")
		failing := suite.FailingTestcases(p)
		if plan := sim.compilePlan(p, failing); len(plan.entries) > 0 {
			return sim, p, plan
		}
	}
	t.Fatal("no fleet-faulty profile with plan entries in 50 serials")
	return nil, nil, detectionPlan{}
}

// TestPlanDetectAllocs pins the screening inner loop at zero heap
// allocations per stage round: everything allocation-bearing happens at
// plan compile time, once per CPU.
func TestPlanDetectAllocs(t *testing.T) {
	sim, _, plan := planFixture(t)
	sp := sim.cfg.Stages[0]
	rng := simrand.New(99).Derive("alloc-probe")
	allocs := testing.AllocsPerRun(200, func() {
		plan.detect(rng, sp)
	})
	if allocs != 0 {
		t.Errorf("detectionPlan.detect allocates %v objects per round, want 0", allocs)
	}
}

// TestPlanMatchesStageDetect cross-checks the compiled round against the
// retained naive stageDetect on identical substreams: same detection
// verdict, same detecting testcase.
func TestPlanMatchesStageDetect(t *testing.T) {
	sim, p, plan := planFixture(t)
	failing := sim.suite.FailingTestcases(p)
	for round := 0; round < 64; round++ {
		for _, sp := range sim.cfg.Stages {
			key := fmt.Sprintf("round-%d", round)
			rngA := simrand.New(7).Derive("cmp", key, sp.Stage.String())
			rngB := simrand.New(7).Derive("cmp", key, sp.Stage.String())
			tcA, hitA := plan.detect(rngA, sp)
			tcB, hitB := sim.stageDetect(rngB, p, failing, sp)
			if tcA != tcB || hitA != hitB {
				t.Fatalf("stage %v round %d: plan (%q,%v) vs naive (%q,%v)",
					sp.Stage, round, tcA, hitA, tcB, hitB)
			}
		}
	}
}

// BenchmarkScreenCPU measures one faulty CPU's full pipeline screening —
// profile generation, plan compilation and every stage round.
func BenchmarkScreenCPU(b *testing.B) {
	cfg := smallConfig(3)
	suite := testkit.NewSuite(simrand.New(cfg.Seed))
	sim, err := NewSimulator(cfg, suite)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serial := faultySerial("M8", i%100)
		p := sim.gen.Faulty(serial, "M8")
		crng := sim.rng.Derive("screen", serial)
		sim.screen(crng, p)
	}
}

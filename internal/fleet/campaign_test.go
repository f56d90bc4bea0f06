package fleet

import (
	"fmt"
	"testing"

	"farron/internal/model"
)

// TestCampaignSteppedMatchesOneShot pins the resumable-screening refactor:
// advancing a CPUScreen stage by stage and round by round must reproduce
// the one-shot screen() outcome draw for draw — same detecting stage, same
// testcase, same escapes — for every serial.
func TestCampaignSteppedMatchesOneShot(t *testing.T) {
	sim := newSim(t, smallConfig(21))
	detected, escaped := 0, 0
	for i := 0; i < 60; i++ {
		serial := fmt.Sprintf("M8-flt-%05d", i)
		p := sim.gen.Faulty(serial, "M8")
		stage, tcID, hit := sim.screen(sim.rng.Derive("screen", serial), p)

		cs := sim.NewCPUScreen(serial, "M8")
		cs.PreProduction()
		for r := 0; r < sim.cfg.RegularRounds; r++ {
			cs.RegularRound()
		}
		if cs.Detected != hit {
			t.Fatalf("%s: stepped detected=%v, one-shot=%v", serial, cs.Detected, hit)
		}
		if hit {
			detected++
			if cs.Stage != stage || cs.TestcaseID != tcID {
				t.Errorf("%s: stepped (%v, %s), one-shot (%v, %s)",
					serial, cs.Stage, cs.TestcaseID, stage, tcID)
			}
		} else {
			escaped++
		}
	}
	// The pin only demonstrates equivalence if both outcomes occur.
	if detected == 0 || escaped == 0 {
		t.Fatalf("degenerate sample: %d detected, %d escaped", detected, escaped)
	}
}

// TestCPUScreenResumableIndependence checks that interleaving rounds across
// CPUs does not change any CPU's outcome: each screen owns a serial-keyed
// substream, so scheduling order between campaigns is irrelevant.
func TestCPUScreenResumableIndependence(t *testing.T) {
	simA := newSim(t, smallConfig(22))
	simB := newSim(t, smallConfig(22))
	serials := []string{"M1-flt-00000", "M8-flt-00001", "M9-flt-00002"}

	// A: each CPU runs its full pipeline before the next CPU starts.
	outA := make(map[string]string)
	for _, sn := range serials {
		cs := simA.NewCPUScreen(sn, "M8")
		cs.PreProduction()
		for r := 0; r < simA.cfg.RegularRounds; r++ {
			cs.RegularRound()
		}
		outA[sn] = fmt.Sprintf("%v/%v/%s", cs.Detected, cs.Stage, cs.TestcaseID)
	}

	// B: campaign order — all pre-productions, then round-robin rounds.
	screens := make([]*CPUScreen, len(serials))
	for i, sn := range serials {
		screens[i] = simB.NewCPUScreen(sn, "M8")
		screens[i].PreProduction()
	}
	for r := 0; r < simB.cfg.RegularRounds; r++ {
		for _, cs := range screens {
			cs.RegularRound()
		}
	}
	for i, sn := range serials {
		cs := screens[i]
		got := fmt.Sprintf("%v/%v/%s", cs.Detected, cs.Stage, cs.TestcaseID)
		if got != outA[sn] {
			t.Errorf("%s: interleaved %s, sequential %s", sn, got, outA[sn])
		}
	}
}

// TestCPUScreenDetectedRoundsAreNoOps: once detected, further rounds draw
// nothing and change nothing.
func TestCPUScreenDetectedRoundsAreNoOps(t *testing.T) {
	sim := newSim(t, smallConfig(23))
	// Find a serial detected during pre-production.
	for i := 0; i < 200; i++ {
		serial := fmt.Sprintf("M8-flt-%05d", i)
		cs := sim.NewCPUScreen(serial, "M8")
		if !cs.PreProduction() {
			continue
		}
		stage, tcID, rounds := cs.Stage, cs.TestcaseID, cs.Rounds
		before := cs.rng.Uint64() // sentinel: next value the stream would produce
		cs2 := sim.NewCPUScreen(serial, "M8")
		cs2.PreProduction()
		cs2.RegularRound()
		cs2.RegularRound()
		if cs2.Stage != stage || cs2.TestcaseID != tcID || cs2.Rounds != rounds {
			t.Fatalf("%s: post-detection rounds mutated state", serial)
		}
		if got := cs2.rng.Uint64(); got != before {
			t.Fatalf("%s: post-detection rounds consumed randomness", serial)
		}
		return
	}
	t.Skip("no pre-production detection in 200 serials")
}

// TestRegularStage returns the configured regular profile and reports
// absence when the pipeline has none.
func TestRegularStage(t *testing.T) {
	sim := newSim(t, smallConfig(24))
	sp, ok := sim.RegularStage()
	if !ok || sp.Stage != model.StageRegular {
		t.Fatalf("RegularStage = %+v, %v", sp, ok)
	}
	cfg := smallConfig(24)
	cfg.Stages = []StageProfile{{model.StageFactory, 0.02, 51, 3}}
	sim2 := newSim(t, cfg)
	if _, ok := sim2.RegularStage(); ok {
		t.Error("RegularStage reported a regular stage in a pipeline without one")
	}
}

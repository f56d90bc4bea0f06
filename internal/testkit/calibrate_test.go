package testkit

import (
	"testing"
	"time"

	"farron/internal/defect"
	"farron/internal/model"
	"farron/internal/simrand"
)

func TestCalibrateLibraryHitsTable3(t *testing.T) {
	rng := simrand.New(2001)
	suite := NewSuite(rng)
	lib := defect.Library(rng)
	for _, p := range lib {
		got := suite.CalibrateProfile(p)
		// Calibration must land on the Table 3 error count, allowing
		// +2 for unavoidable overshoot when one variant spans several
		// testcases.
		if got < p.TargetErrCount || got > p.TargetErrCount+2 {
			t.Errorf("%s: calibrated #err = %d, want %d(+2)", p.CPUID, got, p.TargetErrCount)
		}
		// Recount independently.
		if recount := len(suite.FailingTestcases(p)); recount != got {
			t.Errorf("%s: recount %d != calibrated %d", p.CPUID, recount, got)
		}
	}
}

func TestCalibratePreservesSeeds(t *testing.T) {
	rng := simrand.New(2002)
	suite := NewSuite(rng)
	lib := defect.Library(rng)
	suspect := model.InstrID{Class: model.InstrFPTrig, Variant: 17}
	for _, p := range lib {
		suite.CalibrateProfile(p)
		if p.CPUID == "FPU1" || p.CPUID == "FPU2" {
			if !p.Defects[0].AffectedInstrs.Has(suspect) {
				t.Errorf("%s lost its arctangent seed", p.CPUID)
			}
		}
	}
}

func TestCalibrateIdempotentWhenSatisfied(t *testing.T) {
	rng := simrand.New(2003)
	suite := NewSuite(rng)
	p := defect.Library(rng)[0]
	first := suite.CalibrateProfile(p)
	size := p.Defects[0].AffectedInstrs.Len()
	second := suite.CalibrateProfile(p)
	if second != first {
		t.Errorf("second calibration changed count %d -> %d", first, second)
	}
	if p.Defects[0].AffectedInstrs.Len() != size {
		t.Error("second calibration grew the instruction set")
	}
}

func TestCalibrateAll(t *testing.T) {
	rng := simrand.New(2004)
	suite := NewSuite(rng)
	lib := defect.Library(rng)
	counts := suite.CalibrateAll(lib)
	if len(counts) != len(lib) {
		t.Fatalf("counts for %d profiles, want %d", len(counts), len(lib))
	}
	for _, p := range lib {
		if counts[p.CPUID] < p.TargetErrCount {
			t.Errorf("%s under target: %d < %d", p.CPUID, counts[p.CPUID], p.TargetErrCount)
		}
	}
}

func TestObservation11MostTestcasesIneffective(t *testing.T) {
	// Observation 11 is measured on "a production environment with tens
	// of thousands of CPUs" — at a 3.61-per-10k rate, roughly a dozen
	// faulty processors — and finds 560/633 testcases detected nothing.
	// Fleet defects cluster on arch-vulnerable instructions (Section 6.1:
	// a batch is vulnerable in the same way), so the effective set stays
	// small.
	rng := simrand.New(2005)
	suite := NewSuite(rng)
	effective := map[string]bool{}
	// A 30k-CPU environment dominated by three arch batches.
	archs := []model.MicroArch{"M8", "M1", "M6"}
	gen := defect.NewFleetGenerator(rng)
	for i := 0; i < 14; i++ {
		p := gen.Faulty(settingID(i), archs[i%len(archs)])
		for _, tc := range suite.FailingTestcases(p) {
			effective[tc.ID] = true
		}
	}
	ineffective := SuiteSize - len(effective)
	if ineffective < 500 {
		t.Errorf("ineffective testcases = %d/633, want the large majority (paper: 560)", ineffective)
	}
	if ineffective == SuiteSize {
		t.Error("no testcase is effective; detection is broken")
	}
}

func settingID(i int) string {
	return "fleet-cpu-" + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

func TestAttributeSuspectsFindsArctangent(t *testing.T) {
	// Reproduce the Section 4.1 result: running all FPU testcases on
	// FPU1 and attributing suspects statistically should surface the
	// arctangent variant.
	f := newFixture(t)
	r := f.runner(t, "FPU1")
	var results []RunResult
	hot := 60.0
	for _, tc := range f.suite.ByFeature(model.FeatureFPU) {
		// Clone: accumulated results must survive later runs' arena
		// resets.
		results = append(results, r.Run(tc, RunOpts{
			Core: 0, Duration: 3 * time.Minute, FixedTempC: &hot,
		}).Clone())
	}
	rep := AttributeSuspects(results)
	if rep.FailingCount == 0 {
		t.Fatal("no failing runs")
	}
	suspect := model.InstrID{Class: model.InstrFPTrig, Variant: 17}
	found := false
	for _, id := range append(rep.Suspects, rep.WeakSuspects...) {
		if id == suspect {
			found = true
		}
	}
	if !found {
		t.Errorf("arctangent suspect not attributed; suspects=%v weak=%v",
			rep.Suspects, rep.WeakSuspects)
	}
}

func TestAttributeSuspectsEmptyOnNoFailures(t *testing.T) {
	rep := AttributeSuspects([]RunResult{
		{Failed: false, InstrCounts: map[model.InstrID]float64{{Class: model.InstrBranch, Variant: 1}: 10}},
	})
	if len(rep.Suspects) != 0 || rep.FailingCount != 0 || rep.PassingCount != 1 {
		t.Errorf("unexpected report %+v", rep)
	}
}

func TestUsageRatio(t *testing.T) {
	id := model.InstrID{Class: model.InstrFPTrig, Variant: 17}
	results := []RunResult{
		{Failed: true, InstrCounts: map[model.InstrID]float64{id: 1000}},
		{Failed: true, InstrCounts: map[model.InstrID]float64{id: 3000}},
		{Failed: false, InstrCounts: map[model.InstrID]float64{id: 2}},
	}
	f, p := UsageRatio(results, id)
	if f != 2000 || p != 2 {
		t.Errorf("UsageRatio = %v/%v", f, p)
	}
}

package experiments

import (
	"strings"
	"testing"

	"farron/internal/model"
)

func TestSeparationUtilizationEffect(t *testing.T) {
	res, err := Separation(sharedCtx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("%d points", len(res.Points))
	}
	// Frequency must rise with utilization at constant temperature
	// (Section 5's counter-intuitive finding, separated from heat).
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if last.FreqPerMin <= first.FreqPerMin {
		t.Errorf("freq at util %.2f (%v/min) not above util %.2f (%v/min)",
			last.MeanUtil, last.FreqPerMin, first.MeanUtil, first.FreqPerMin)
	}
	if res.UtilFreqCorrelation < 0.7 {
		t.Errorf("util/freq correlation = %v, want strong", res.UtilFreqCorrelation)
	}
	if !strings.Contains(res.Render(), "pinned") {
		t.Error("render malformed")
	}
}

func TestAttributionFindsSuspects(t *testing.T) {
	res := Attribution(sharedCtx)
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if !row.Hit {
			t.Errorf("%s: attribution missed all true defective instructions (ranked %v, truth %v)",
				row.ProcessorID, row.Ranked, row.TrueDefective)
		}
	}
	// FPU1's arctangent variant is the canonical Section 4.1 result.
	fpu1 := res.Rows[0]
	suspect := model.InstrID{Class: model.InstrFPTrig, Variant: 17}
	found := false
	for _, s := range fpu1.Ranked {
		if s.ID == suspect {
			found = true
		}
	}
	if !found {
		t.Error("FPU1 attribution did not surface the arctangent suspect")
	}
	// Observation 10: failing testcases use the instruction far more
	// heavily than passing ones that also touch it.
	if fpu1.FailingUsage > 0 && fpu1.FailingUsage/(fpu1.PassingUsage+1) < 10 {
		t.Errorf("usage ratio = %.1f, want orders of magnitude",
			fpu1.FailingUsage/(fpu1.PassingUsage+1))
	}
	if !strings.Contains(res.Render(), "FPU1") {
		t.Error("render malformed")
	}
}

// At seed 127 no single-threaded testcase can sweep FPU2's defect. The
// entry must say so instead of failing the registry.
func TestSeparationWithoutProbe(t *testing.T) {
	res, err := Separation(NewContext(127))
	if err != nil {
		t.Fatal(err)
	}
	if !res.NoProbe || len(res.Points) != 0 {
		t.Fatalf("NoProbe = %v with %d points, want a plain no-probe result", res.NoProbe, len(res.Points))
	}
	if out := res.Render(); !strings.Contains(out, "not run at this seed") {
		t.Errorf("render does not say the experiment did not run:\n%s", out)
	}
}

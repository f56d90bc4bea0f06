package testkit

import (
	"testing"
	"time"

	"farron/internal/model"
)

func iidOf(c model.InstrClass, v int) model.InstrID { return model.InstrID{Class: c, Variant: v} }

func TestRankSuspectsPrefersSharedFailingInstr(t *testing.T) {
	shared := iidOf(model.InstrFPTrig, 17)
	privA := iidOf(model.InstrBranch, 3)
	privB := iidOf(model.InstrBranch, 40)
	popular := iidOf(model.InstrFPArith, 1)
	results := []RunResult{
		{Failed: true, InstrCounts: map[model.InstrID]float64{shared: 1e6, privA: 5e7, popular: 1e5}},
		{Failed: true, InstrCounts: map[model.InstrID]float64{shared: 2e6, privB: 8e7, popular: 2e5}},
		{Failed: false, InstrCounts: map[model.InstrID]float64{popular: 3e5}},
		{Failed: false, InstrCounts: map[model.InstrID]float64{popular: 1e5, shared: 10}},
	}
	ranked := RankSuspects(results, 3)
	if len(ranked) == 0 {
		t.Fatal("no suspects")
	}
	if ranked[0].ID != shared {
		t.Errorf("top suspect = %v, want the instruction shared by all failing runs", ranked[0].ID)
	}
	if ranked[0].FailingRuns != 2 {
		t.Errorf("failing runs = %d", ranked[0].FailingRuns)
	}
	if ranked[0].FailingMean != 1.5e6 {
		t.Errorf("failing mean = %v", ranked[0].FailingMean)
	}
}

func TestRankSuspectsNoFailures(t *testing.T) {
	results := []RunResult{
		{Failed: false, InstrCounts: map[model.InstrID]float64{iidOf(model.InstrBranch, 1): 5}},
	}
	if got := RankSuspects(results, 5); got != nil {
		t.Errorf("expected nil, got %v", got)
	}
}

func TestRankSuspectsTopK(t *testing.T) {
	counts := map[model.InstrID]float64{}
	for v := 0; v < 10; v++ {
		counts[iidOf(model.InstrIntArith, v)] = float64(v + 1)
	}
	results := []RunResult{{Failed: true, InstrCounts: counts}}
	if got := RankSuspects(results, 4); len(got) != 4 {
		t.Errorf("topK = %d results", len(got))
	}
	if got := RankSuspects(results, 0); len(got) != 10 {
		t.Errorf("topK=0 should return all, got %d", len(got))
	}
}

func TestContextSuspects(t *testing.T) {
	a := iidOf(model.InstrVecMulAdd, 9)
	b := iidOf(model.InstrVecMulAdd, 30)
	results := []RunResult{
		{Records: []model.SDCRecord{
			{HasContext: true, ContextInstr: a},
			{HasContext: true, ContextInstr: a},
			{HasContext: true, ContextInstr: b},
			{HasContext: false},
		}},
	}
	got := ContextSuspects(results)
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Errorf("ContextSuspects = %v", got)
	}
	if got := ContextSuspects(nil); len(got) != 0 {
		t.Errorf("empty input = %v", got)
	}
}

// TestContextSuspectsColumnarMatchesRows runs the compiled path (which
// carries both row and columnar record forms) and checks the columnar
// ContextSuspects branch agrees with the row walk on the same result.
func TestContextSuspectsColumnarMatchesRows(t *testing.T) {
	f := newFixture(t)
	r := f.runner(t, "SIMD1")
	failing := f.suite.FailingTestcases(f.profiles["SIMD1"])
	hot := 60.0
	res := r.Run(failing[0], RunOpts{Core: 5, Duration: 10 * time.Minute, FixedTempC: &hot})
	if res.Columns == nil || res.Columns.Len() == 0 {
		t.Fatal("compiled run produced no columns")
	}
	viaCols := ContextSuspects([]RunResult{res})
	rows := res
	rows.Columns = nil
	viaRows := ContextSuspects([]RunResult{rows})
	if len(viaCols) != len(viaRows) {
		t.Fatalf("columnar %v vs rows %v", viaCols, viaRows)
	}
	for i := range viaCols {
		if viaCols[i] != viaRows[i] {
			t.Fatalf("columnar %v vs rows %v", viaCols, viaRows)
		}
	}
	if len(viaCols) == 0 {
		t.Error("no context suspects from a SIMD1 run")
	}
}

func TestContextRecordsProduced(t *testing.T) {
	// SIMD1 has ContextProb 0.9: most of its records must carry the
	// incorrect-instruction context, and the context must be a truly
	// defective instruction used by the testcase.
	f := newFixture(t)
	r := f.runner(t, "SIMD1")
	d := f.profiles["SIMD1"].Defects[0]
	failing := f.suite.FailingTestcases(f.profiles["SIMD1"])
	hot := 60.0
	res := r.Run(failing[0], RunOpts{Core: 5, Duration: 10 * time.Minute, FixedTempC: &hot})
	if len(res.Records) == 0 {
		t.Fatal("no records")
	}
	withCtx := 0
	for _, rec := range res.Records {
		if rec.HasContext {
			withCtx++
			if !d.AffectedInstrs.Has(rec.ContextInstr) {
				t.Fatalf("context instruction %v not defective", rec.ContextInstr)
			}
			tc := f.suite.ByID(rec.TestcaseID)
			if !tc.UsesInstr(rec.ContextInstr) {
				t.Fatalf("context instruction %v not used by %s", rec.ContextInstr, rec.TestcaseID)
			}
		}
	}
	frac := float64(withCtx) / float64(len(res.Records))
	if frac < 0.8 {
		t.Errorf("context fraction = %.2f, want ~0.9", frac)
	}
}

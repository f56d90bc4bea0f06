// Hot-path compilation, fleet side (see DESIGN.md "Hot-path compilation"):
// the per-CPU detection plan. A faulty processor's pipeline outcome is a
// walk over its (testcase, defect) settings once per stage round; every
// temperature-independent factor of the analytic detection probability is
// a pure function of the profile, so screen compiles them into a flat
// entry list once and each round only draws the stage temperature and
// evaluates the per-entry rate.

package fleet

import (
	"math"

	"farron/internal/defect"
	"farron/internal/simrand"
	"farron/internal/testkit"
)

// planEntry is one (testcase, defect) setting that can consume a detection
// draw: positive stress and a positive multiplier on the defect's best
// core. bm is BaseFreqPerMin·CoreMultiplier(bestCore) — the leading factor
// of Defect.RatePerMin in its exact association — and curve is the
// defect's pure rate curve, so compiled rates are bit-identical to the
// naive ones. The curve carries no memo: plans are frozen and silifuzz
// corpus plans are read concurrently.
type planEntry struct {
	tcID   string
	bm     float64
	stress float64
	curve  defect.RateCurve
}

// detectionPlan is a faulty CPU's compiled screening plan, in the naive
// iteration order (profile defects outer, failing testcases inner).
//
//sdclint:frozen read-only once compilePlan returns
type detectionPlan struct {
	entries []planEntry
}

// compilePlan builds the detection plan for one faulty processor. The
// simrand draw sequence is untouched: every dropped setting had an
// identically-zero rate at any temperature, and stageDetect never drew for
// zero rates.
func (s *Simulator) compilePlan(p *defect.Profile, failing []*testkit.Testcase) detectionPlan {
	entries := make([]planEntry, 0, len(failing))
	for _, d := range p.Defects {
		core := bestCore(d, p.TotalPCores)
		m := d.CoreMultiplier(core)
		if m == 0 {
			continue
		}
		bm := d.BaseFreqPerMin * m
		curve := d.RateCurve()
		for _, tc := range failing {
			if !testkit.DetectableBy(tc, d) {
				continue
			}
			stress := testkit.SettingStress(tc, d)
			if stress <= 0 {
				continue
			}
			entries = append(entries, planEntry{
				tcID: tc.ID, bm: bm, stress: stress, curve: curve,
			})
		}
	}
	return detectionPlan{entries: entries}
}

// detect evaluates one stage round over the plan: draw the achieved
// temperature, then for each entry evaluate 1−exp(−λ·t) and draw, exactly
// the stageDetect draws in the stageDetect order.
func (pl detectionPlan) detect(rng *simrand.Source, sp StageProfile) (string, bool) {
	temp := rng.Norm(sp.MeanTempC, sp.TempSpreadC)
	for i := range pl.entries {
		e := &pl.entries[i]
		rate := e.curve.Rate(e.bm, temp, e.stress)
		if rate <= 0 {
			continue
		}
		pDetect := 1 - math.Exp(-rate*sp.PerTestcaseMin)
		if rng.Bool(pDetect) {
			return e.tcID, true
		}
	}
	return "", false
}

// The ITHICA-style strategy: no dedicated test rounds at all. Every
// duplicable instruction of the production stream executes twice inside
// the same thread and the results are compared, so a defect that fires
// during real work is caught at its first miscompare. The model follows
// the paper's framing: detection happens at *production* operating
// conditions (an inline checker cannot heat the package to a burn-in
// profile or force adversarial data patterns), continuously over the whole
// period between campaign boundaries, at a large always-on throughput
// overhead derived analytically below instead of by golden recompute.
//
// What inline duplication structurally cannot catch: consistency-class
// defects. Re-executing an instruction in the same thread reproduces the
// same cache-coherence interleaving, so a cross-thread consistency
// violation compares equal — only computation-class defects are checkable.
// High-MinTempC defects also escape, because production silicon never
// reaches the triggering temperature a re-installation burn-in would.

package fleet

import (
	"math"

	"farron/internal/defect"
	"farron/internal/model"
	"farron/internal/testkit"
)

// The overhead coefficient: overhead = δ · (1 + c) · (1 − η).
const (
	// ithicaDupFraction (δ) is the duplicable fraction of the dynamic
	// instruction stream — loads, stores and serializing operations
	// cannot be re-executed in place.
	ithicaDupFraction = 0.85
	// ithicaCheckCost (c) is the extra compare-and-branch work per
	// duplicated instruction.
	ithicaCheckCost = 0.25
	// ithicaAbsorb (η) is the share of duplicate micro-ops absorbed by
	// spare superscalar issue slots — duplicated work that costs no
	// wall time because the pipeline had idle bandwidth anyway.
	ithicaAbsorb = 0.65
)

// Production operating conditions the inline checker runs under.
const (
	// ithicaProdTempC / ithicaProdSpreadC model the per-period mean core
	// temperature of production service — well below every test stage's
	// burn-in profile.
	ithicaProdTempC   = 52.0
	ithicaProdSpreadC = 4.0
	// ithicaDuty is the fleet's production utilization: the fraction of
	// the period a CPU spends executing checked work.
	ithicaDuty = 0.70
	// ithicaStressScale scales a defect's dedicated-test stress down to
	// what ordinary production instruction mixes exercise: test kits
	// concentrate adversarial patterns on the defective unit; production
	// code touches it incidentally.
	ithicaStressScale = 0.05
)

// ITHICAOverhead returns the modeled always-on throughput overhead of
// inline duplicate execution: δ·(1+c)·(1−η) ≈ 0.37 — the strategy's whole
// cost story. Exported so the strategy-sweep table and DESIGN.md quote the
// same number.
func ITHICAOverhead() float64 {
	return ithicaDupFraction * (1 + ithicaCheckCost) * (1 - ithicaAbsorb)
}

// ithicaCheck is one compiled inline-check setting: a checkable defect,
// its best defective core, and the production-mix stress it is exercised
// at.
type ithicaCheck struct {
	d      *defect.Defect
	core   int
	stress float64
}

type ithicaScreener struct {
	sim *Simulator
	// prodSP is the synthetic production-conditions stage profile every
	// round detects under: the production temperature distribution in
	// place of a burn-in profile, and the period's checked machine time
	// (period × duty × δ) in place of a per-testcase slice. Every factor
	// is a config or model constant, so it is compiled once here — the
	// old per-round exposure recomputation was loop-invariant waste.
	prodSP StageProfile
}

func newITHICAScreener(s *Simulator) *ithicaScreener {
	return &ithicaScreener{sim: s, prodSP: StageProfile{
		Stage:          model.StageRegular,
		PerTestcaseMin: s.cfg.RegularPeriodMin * ithicaDuty * ithicaDupFraction,
		MeanTempC:      ithicaProdTempC,
		TempSpreadC:    ithicaProdSpreadC,
	}}
}

func (t *ithicaScreener) Strategy() string { return StrategyITHICA }

func (t *ithicaScreener) NewScreen(serial string, arch model.MicroArch) Screen {
	p := t.sim.gen.Faulty(serial, arch)
	cs := t.sim.newScreenState(serial, arch, p, t.sim.screenRng(StrategyITHICA, serial))
	is := &ithicaScreen{CPUScreen: cs, scr: t}
	// Compile the checkable settings once per CPU, like the detection
	// plan: computation-class defects only, at the mean production-mix
	// stress over the testcases that exercise the defect (the proxy for
	// how often production code touches the defective unit).
	for _, d := range p.Defects {
		if d.Class != model.ClassComputation {
			continue
		}
		sum, n := 0.0, 0
		for _, tc := range cs.failing {
			if !testkit.DetectableBy(tc, d) {
				continue
			}
			sum += testkit.SettingStress(tc, d)
			n++
		}
		if n == 0 {
			continue
		}
		is.checks = append(is.checks, ithicaCheck{
			d:      d,
			core:   bestCore(d, p.TotalPCores),
			stress: sum / float64(n) * ithicaStressScale,
		})
	}
	// Compiled suites further lower the checks into detection-plan entry
	// form so a round is one detectionPlan.detect walk. Dropped checks —
	// zero best-core multiplier, non-positive production stress — had an
	// identically-zero naive rate, so the draw sequence is untouched. The
	// tcID stays empty: a hit is a duplicate-execution miscompare, not a
	// testcase.
	if !t.sim.suite.Reference() {
		entries := make([]planEntry, 0, len(is.checks))
		for _, ck := range is.checks {
			m := ck.d.CoreMultiplier(ck.core)
			if m == 0 || ck.stress <= 0 {
				continue
			}
			entries = append(entries, planEntry{
				bm: ck.d.BaseFreqPerMin * m, stress: ck.stress,
				curve: ck.d.RateCurve(),
			})
		}
		is.plan = detectionPlan{entries: entries}
	}
	return is
}

func (t *ithicaScreener) Observe(Detection) {}
func (t *ithicaScreener) EndRound(int)      {}

func (t *ithicaScreener) Cost() CostModel {
	return CostModel{AlwaysOnOverhead: ITHICAOverhead()}
}

// ithicaScreen is one CPU under inline checking. Pre-production runs the
// standard kit gates through the embedded CPUScreen (the manufacturing
// pipeline is strategy-independent); a "regular round" models the whole
// production period since the last campaign boundary under continuous
// duplicate execution.
type ithicaScreen struct {
	*CPUScreen
	scr    *ithicaScreener
	checks []ithicaCheck
	// plan is the checks lowered into detection-plan entries (compiled
	// suites only); the retained naive walk over checks serves reference
	// suites.
	plan detectionPlan
}

// RegularRound draws the period's mean production temperature, then one
// detection draw per checkable defect over the period's checked machine
// time (period × duty × δ). TestcaseID stays empty on detection: the
// signal is a duplicate-execution miscompare, not a testcase.
func (is *ithicaScreen) RegularRound() bool {
	cs := is.CPUScreen
	if cs.Detected {
		return false
	}
	if _, ok := cs.sim.RegularStage(); !ok {
		return false
	}
	cs.Rounds++
	if cs.sim.suite.Reference() {
		return is.naiveRound()
	}
	if _, hit := is.plan.detect(cs.rng, is.scr.prodSP); hit {
		cs.Detected = true
		cs.Stage = model.StageRegular
		return true
	}
	return false
}

// naiveRound is the retained reference-suite round: the per-check
// RatePerMin walk the compiled plan reproduces draw-for-draw.
func (is *ithicaScreen) naiveRound() bool {
	cs := is.CPUScreen
	temp := cs.rng.Norm(ithicaProdTempC, ithicaProdSpreadC)
	for i := range is.checks {
		ck := &is.checks[i]
		rate := ck.d.RatePerMin(ck.core, temp, ck.stress)
		if rate <= 0 {
			continue
		}
		pDetect := 1 - math.Exp(-rate*is.scr.prodSP.PerTestcaseMin)
		if cs.rng.Bool(pDetect) {
			cs.Detected = true
			cs.Stage = model.StageRegular
			return true
		}
	}
	return false
}

package experiments

import (
	"fmt"
	"math"
	"time"

	"farron/internal/engine"
	"farron/internal/model"
	"farron/internal/report"
	"farron/internal/stats"
	"farron/internal/testkit"
)

// SeparationPoint is one utilization measurement at pinned temperature.
type SeparationPoint struct {
	BusyCores  int
	MeanUtil   float64
	FreqPerMin float64
}

// SeparationResult reproduces the Section 5 stress/temperature separation
// experiment: stress other cores with the stress toolchain while testing
// the target core at a pinned temperature — occurrence frequency rises with
// CPU utilization even though temperature is unchanged.
type SeparationResult struct {
	ProcessorID string
	Core        int
	TestcaseID  string
	TempC       float64
	// NoProbe reports that the seed's suite has no single-threaded
	// testcase that can sweep the defect, so the experiment did not run.
	NoProbe bool
	Points  []SeparationPoint
	// UtilFreqCorrelation is Pearson r between utilization and
	// frequency.
	UtilFreqCorrelation float64
}

// Separation runs the experiment on FPU2's defective core.
func Separation(ctx *Context) (*SeparationResult, error) {
	const id = "FPU2"
	p := ctx.Profile(id)
	if p == nil {
		return nil, fmt.Errorf("experiments: profile %s missing", id)
	}
	d := p.Defects[0]
	core := 8
	// The probe must be single-threaded: a multi-threaded testcase
	// occupies every core itself, leaving no utilization contrast.
	var tc *testkit.Testcase
	bestScore := math.Inf(1)
	for _, cand := range ctx.Failing(p) {
		if cand.MultiThreaded || !testkit.DetectableBy(cand, d) {
			continue
		}
		s := testkit.SettingStress(cand, d)
		tmin := d.ObservedMinTemp(core, s)
		if math.IsInf(tmin, 0) || tmin > 80 {
			continue
		}
		if score := math.Abs(tmin - 55); score < bestScore {
			bestScore = score
			tc = cand
		}
	}
	if tc == nil {
		return &SeparationResult{ProcessorID: id, Core: core, NoProbe: true}, nil
	}
	stress := testkit.SettingStress(tc, d)
	// A temperature comfortably above the setting's threshold so the
	// base frequency is measurable.
	temp := d.ObservedMinTemp(core, stress) + 8

	out := &SeparationResult{ProcessorID: id, Core: core, TestcaseID: tc.ID, TempC: temp}
	runner := newRunnerFor(ctx, id, "separation")
	var utils, freqs []float64
	for _, busy := range []int{0, 4, 8, 16, 23} {
		// Long enough for a solid count at the base rate.
		base := d.RatePerMin(core, temp, stress)
		dur := 30 * time.Minute
		if base > 0 {
			dur = time.Duration(300 / base * float64(time.Minute))
		}
		if dur < 30*time.Minute {
			dur = 30 * time.Minute
		}
		if dur > 240*time.Hour {
			dur = 240 * time.Hour
		}
		res := runner.Run(tc, testkit.RunOpts{
			Core:             core,
			Duration:         dur,
			FixedTempC:       &temp,
			ExtraStressCores: busy,
		})
		util := (1.0 + float64(busy)) / float64(p.TotalPCores)
		freq := float64(len(res.Records)) / dur.Minutes()
		out.Points = append(out.Points, SeparationPoint{
			BusyCores: busy, MeanUtil: util, FreqPerMin: freq,
		})
		utils = append(utils, util)
		freqs = append(freqs, freq)
	}
	r, err := stats.Pearson(utils, freqs)
	if err != nil {
		return nil, err
	}
	out.UtilFreqCorrelation = r
	return out, nil
}

// Render draws the separation table.
func (r *SeparationResult) Render() string {
	if r.NoProbe {
		return fmt.Sprintf("Section 5 separation — %s pcore%d: not run at this seed\n"+
			"no single-threaded failing testcase detects %s's defect with an observed trigger at or below 80 degC,\n"+
			"so no probe can hold temperature while other cores add utilization\n",
			r.ProcessorID, r.Core, r.ProcessorID)
	}
	t := report.NewTable(
		fmt.Sprintf("Section 5 separation — %s pcore%d %s at pinned %.0f degC",
			r.ProcessorID, r.Core, r.TestcaseID, r.TempC),
		"busy cores", "pkg util", "freq/min")
	for _, pt := range r.Points {
		t.AddRow(fmt.Sprintf("%d", pt.BusyCores),
			fmt.Sprintf("%.2f", pt.MeanUtil),
			fmt.Sprintf("%.4f", pt.FreqPerMin))
	}
	return t.String() + fmt.Sprintf(
		"utilization/frequency correlation r = %.3f (temperature held constant)\n",
		r.UtilFreqCorrelation)
}

// AttributionRow is one processor's Section 4.1 suspect-analysis outcome.
type AttributionRow struct {
	ProcessorID string
	// Ranked is the statistical suspicion ranking (top candidates).
	Ranked []testkit.SuspectScore
	// TrueDefective is the defect's actual instruction set.
	TrueDefective []model.InstrID
	// Hit reports whether a truly defective instruction ranks in the
	// top candidates.
	Hit bool
	// FailingUsage/PassingUsage come from the top-ranked true hit
	// (Observation 10's orders-of-magnitude usage gap).
	FailingUsage, PassingUsage float64
}

// AttributionResult reproduces the Section 4.1 statistical
// instruction-attribution study.
type AttributionResult struct {
	Rows []AttributionRow
}

// Attribution instruments the toolchain (Pin-style) against three named
// processors: FPU1 and CNST2 via statistical ranking, SIMD1 via the
// toolchain's preserved context (Section 4.1 reports exactly this split).
func Attribution(ctx *Context) *AttributionResult {
	hot := 68.0
	probes := []struct {
		id      string
		core    int
		feature model.Feature
		context bool
	}{
		{"FPU1", 0, model.FeatureFPU, false},
		{"SIMD1", 5, model.FeatureVecUnit, true},
		{"CNST2", 2, model.FeatureTrxMem, false},
	}
	// The probes run against separate runners with per-id substreams —
	// three independent shards merged in probe order.
	rows := engine.MapPlain(ctx.Pool(), len(probes), func(i int) AttributionRow {
		probe := probes[i]
		p := ctx.Profile(probe.id)
		d := p.Defects[0]
		runner := newRunnerFor(ctx, probe.id, "attrib")
		var results []testkit.RunResult
		for _, tc := range ctx.Suite.ByFeature(probe.feature) {
			// Clone: results are read after later runs reset the
			// runner's arena.
			results = append(results, runner.Run(tc, testkit.RunOpts{
				Core: probe.core, Duration: 8 * time.Minute, FixedTempC: &hot,
			}).Clone())
		}
		row := AttributionRow{
			ProcessorID:   probe.id,
			TrueDefective: d.SortedInstrs(),
		}
		truth := map[model.InstrID]bool{}
		for _, iid := range row.TrueDefective {
			truth[iid] = true
		}
		if probe.context {
			// The toolchain preserved context: read the reported
			// instruction straight from the records.
			for _, id := range testkit.ContextSuspects(results) {
				row.Ranked = append(row.Ranked, testkit.SuspectScore{ID: id})
				if truth[id] {
					row.Hit = true
				}
			}
		} else {
			row.Ranked = testkit.RankSuspects(results, 5)
			for _, s := range row.Ranked {
				if truth[s.ID] {
					row.Hit = true
					if row.FailingUsage == 0 {
						row.FailingUsage, row.PassingUsage = s.FailingMean, s.PassingMean
					}
				}
			}
		}
		return row
	})
	return &AttributionResult{Rows: rows}
}

// Render draws the attribution table.
func (r *AttributionResult) Render() string {
	t := report.NewTable("Section 4.1 — statistical instruction attribution (Pin-style)",
		"CPU", "hit", "top suspect", "usage failing/passing")
	for _, row := range r.Rows {
		ratio := "-"
		if row.FailingUsage > 0 {
			ratio = fmt.Sprintf("%.0fx", row.FailingUsage/math.Max(row.PassingUsage, 1))
		}
		top := "-"
		if len(row.Ranked) > 0 {
			top = row.Ranked[0].ID.String()
		}
		t.AddRow(row.ProcessorID,
			fmt.Sprintf("%v", row.Hit),
			top,
			ratio)
	}
	return t.String()
}

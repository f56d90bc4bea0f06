package experiments

import (
	"fmt"

	"farron/internal/defect"
	"time"

	"farron/internal/core"
	"farron/internal/engine"
	"farron/internal/report"
	"farron/internal/testkit"
)

// AblationRow is one Farron variant's measurement on one processor.
type AblationRow struct {
	Variant  string
	CPUID    string
	Coverage float64
	Duration time.Duration
}

// AblationResult isolates the contribution of each Farron design choice
// (Section 7.1): testcase prioritization, the burn-in testing environment,
// and the equal-duration strawman at Farron's budget.
type AblationResult struct {
	Rows []AblationRow
}

// ablationProcessors keeps the ablation fast but representative: one
// multi-feature all-core defect, one pinpoint defect, one consistency
// defect.
func ablationProcessors() []string { return []string{"MIX1", "FPU2", "CNST1"} }

// Ablation measures one regular round per variant per processor. The three
// processors are independent shards (per-(id, salt) runner substreams),
// merged in processor order.
func Ablation(ctx *Context) *AblationResult {
	active := fleetActiveIDs(ctx)
	ids := ablationProcessors()
	perProc := engine.MapPlain(ctx.Pool(), len(ids), func(i int) []AblationRow {
		id := ids[i]
		known := ctx.KnownErrs(id)
		p := ctx.Profile(id)

		var rows []AblationRow
		record := func(variant string, rep *core.RoundReport) {
			rows = append(rows, AblationRow{
				Variant:  variant,
				CPUID:    id,
				Coverage: rep.Coverage(known),
				Duration: rep.Duration,
			})
		}

		rFull := newRunnerFor(ctx, id, "abl-full")
		far := core.New(core.DefaultConfig(), rFull, p.Features(), active)
		record("full", far.RegularRound())

		// Burn-in ablated: the same prioritized plan, but each testcase
		// visits cores one at a time with its duration split across
		// them — the package never reaches production temperatures.
		rCold := newRunnerFor(ctx, id, "abl-cold")
		record("no-burn-in", coldPrioritizedRound(rCold, p, active))

		rEq := newRunnerFor(ctx, id, "abl-eq")
		record("no-prioritization", equalDurationRound(rEq, core.DefaultConfig()))
		return rows
	})
	out := &AblationResult{}
	for _, rows := range perProc {
		out.Rows = append(out.Rows, rows...)
	}
	return out
}

// coldPrioritizedRound runs Farron's prioritized plan without the burn-in
// environment: each testcase's duration is split across cores tested one at
// a time, so the package stays near single-core temperatures (the
// pre-Farron testing style).
func coldPrioritizedRound(r *testkit.Runner, p *defect.Profile, active []string) *core.RoundReport {
	planner := core.NewPlanner(core.DefaultPlannerConfig(), r.Suite(), p.Features())
	for _, id := range active {
		planner.MarkActive(id)
	}
	rep := core.NewRoundReport()
	cores := r.Processor().ActiveCores()
	for _, alloc := range planner.Plan(1) {
		per := alloc.Duration / time.Duration(len(cores))
		if per <= 0 {
			per = time.Second
		}
		for _, c := range cores {
			rep.Absorb(r.Run(alloc.Testcase, testkit.RunOpts{Core: c, Duration: per}))
		}
	}
	return rep
}

// equalDurationRound spends roughly Farron's one-hour budget spread equally
// over all 633 testcases with burn-in — prioritization ablated, everything
// else kept.
func equalDurationRound(r *testkit.Runner, cfg core.Config) *core.RoundReport {
	rep := core.NewRoundReport()
	per := time.Hour / time.Duration(testkit.SuiteSize)
	cores := r.Processor().ActiveCores()
	for _, tc := range r.Suite().Testcases {
		rep.Absorb(r.RunParallel(tc, cores, testkit.RunOpts{
			Duration: per,
			BurnIn:   !cfg.DisableBurnIn,
		}))
	}
	return rep
}

// CoverageOf returns a variant's mean coverage across processors.
func (r *AblationResult) CoverageOf(variant string) float64 {
	var sum float64
	n := 0
	for _, row := range r.Rows {
		if row.Variant == variant {
			sum += row.Coverage
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Render draws the ablation table.
func (r *AblationResult) Render() string {
	t := report.NewTable("Ablation — contribution of Farron's design choices (one regular round)",
		"variant", "CPU", "coverage", "round")
	for _, row := range r.Rows {
		t.AddRow(row.Variant, row.CPUID,
			fmt.Sprintf("%.2f", row.Coverage),
			row.Duration.Round(time.Minute).String())
	}
	return t.String() + fmt.Sprintf(
		"mean coverage: full %.2f, no-burn-in %.2f, no-prioritization %.2f\n",
		r.CoverageOf("full"), r.CoverageOf("no-burn-in"), r.CoverageOf("no-prioritization"))
}

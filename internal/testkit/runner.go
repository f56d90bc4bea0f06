package testkit

import (
	"maps"
	"time"

	"farron/internal/cpu"
	"farron/internal/defect"
	"farron/internal/inject"
	"farron/internal/model"
	"farron/internal/simrand"
	"farron/internal/thermal"
)

// RunOpts controls one testcase execution.
type RunOpts struct {
	// Core is the physical core under test.
	Core int
	// Duration is the test length.
	Duration time.Duration
	// BurnIn loads every core during the test to raise temperature
	// (Farron's testing-environment emphasis, Section 7.1).
	BurnIn bool
	// FixedTempC, when non-nil, pins the core temperature (the
	// stress-preheat methodology of Section 5 for temperature sweeps).
	FixedTempC *float64
	// ExtraStressCores loads this many other cores at full utilization
	// without testing them (the stress-vs-temperature separation
	// experiment of Section 5).
	ExtraStressCores int
}

// RunResult is the outcome of one testcase execution.
//
// Results of the compiled paths (Run/RunParallel on a non-reference suite)
// alias the Runner's arena: Records, Columns and InstrCounts are valid
// until the next Run/RunParallel call on the same Runner. Callers that
// retain results across runs must Clone them first. Reference-suite
// results are freshly allocated and never invalidated.
type RunResult struct {
	TestcaseID string
	Core       int
	Records    []model.SDCRecord
	// Columns is the columnar (structure-of-arrays) form of Records,
	// built natively by the compiled run paths for the stats pipeline.
	// It is nil on the reference paths, which stay row-oriented.
	Columns *model.RecordColumns
	// Failed is true when at least one SDC was observed.
	Failed bool
	// MeanTempC and MaxTempC summarize the core temperature during the
	// run.
	MeanTempC, MaxTempC float64
	Duration            time.Duration
	// InstrCounts is the Pin-style instrumentation: executions per
	// virtual instruction during the run (Section 4.1).
	InstrCounts map[model.InstrID]float64
}

// Clone returns a deep copy that stays valid after the owning Runner's
// arena is reset by its next run.
func (res RunResult) Clone() RunResult {
	if res.Records != nil {
		res.Records = append([]model.SDCRecord(nil), res.Records...)
	}
	res.InstrCounts = maps.Clone(res.InstrCounts)
	res.Columns = res.Columns.Clone()
	return res
}

// Runner executes testcases on a processor with a thermal model.
type Runner struct {
	suite *Suite
	proc  *cpu.Processor
	pkg   *thermal.Package
	now   time.Duration
	// scratch is the reusable substream the compiled run paths derive
	// into (one derivation per run, no allocation). A Runner is owned by
	// one goroutine, so reuse is safe.
	scratch simrand.Source
	// plans caches the per-testcase compiled defect plans (everything
	// about a (testcase, defect) pair that is independent of run options
	// and package utilization). Keyed by testcase pointer: suite
	// testcases are frozen after construction.
	plans map[*Testcase]*tcPlan
	// arena is the reusable per-run storage (see runArena).
	arena runArena
}

// NewRunner creates a runner. The thermal package must have at least as
// many cores as the processor.
func NewRunner(suite *Suite, proc *cpu.Processor, pkg *thermal.Package) *Runner {
	if pkg.NCores() < proc.PhysCores {
		panic("testkit: thermal package smaller than processor")
	}
	return &Runner{suite: suite, proc: proc, pkg: pkg, plans: map[*Testcase]*tcPlan{}}
}

// Suite returns the runner's testcase suite.
func (r *Runner) Suite() *Suite { return r.suite }

// Processor returns the processor under test.
func (r *Runner) Processor() *cpu.Processor { return r.proc }

// Thermal returns the thermal package.
func (r *Runner) Thermal() *thermal.Package { return r.pkg }

// Now returns accumulated simulated test time.
func (r *Runner) Now() time.Duration { return r.now }

// stepSlice is the simulation granularity of a test run.
const stepSlice = 5 * time.Second

// DetectableBy reports whether the defect is in-principle detectable by the
// testcase: their instruction sets overlap, and — for computation defects —
// the testcase validates one of the corrupted datatypes, while consistency
// defects additionally need a multi-threaded testcase (Section 4.1).
// Suite testcases answer from the flattened mix; testcases of a reference
// suite scan the maps naively.
func DetectableBy(tc *Testcase, d *defect.Defect) bool {
	if tc.flatMix != nil {
		return detectableFlat(tc, d)
	}
	if d.Class == model.ClassConsistency && !tc.MultiThreaded {
		return false
	}
	var buf [16]model.InstrID
	overlap := false
	for _, id := range d.AffectedInstrs.AppendIDs(buf[:0]) {
		if tc.UsesInstr(id) {
			overlap = true
			break
		}
	}
	if !overlap {
		return false
	}
	if d.Class == model.ClassComputation {
		for _, dt := range tc.DataTypes {
			if d.AffectsDataType(dt) {
				return true
			}
		}
		return false
	}
	return true
}

// SettingStress returns the testcase's usage stress for the defect.
func SettingStress(tc *Testcase, d *defect.Defect) float64 {
	if tc.flatMix != nil {
		return settingStressFlat(tc, d)
	}
	return d.Stress(tc.Mix, NominalUsage)
}

// commonDataTypes returns datatypes both the testcase checks and the defect
// corrupts, in display order.
func commonDataTypes(tc *Testcase, d *defect.Defect) []model.DataType {
	var out []model.DataType
	for _, dt := range tc.DataTypes {
		if d.AffectsDataType(dt) {
			out = append(out, dt)
		}
	}
	return out
}

// runDefect is one compiled per-run defect entry: the defects that can
// consume a draw this run (detectable by the testcase, positive effective
// stress, a positive core multiplier on some processor core), with the
// temperature-independent rate factors and the per-record lookups
// (common datatypes, context instructions, the setting's pattern
// probability) hoisted out of the step loop. bms[c] is
// BaseFreqPerMin·CoreMultiplier(c) indexed by physical core id — the
// leading factor of Defect.RatePerMin in its exact association — and rate
// is the defect's memoized kernel, so compiled rates are bit-identical to
// naive ones. The kernel's memo lives in the arena's copy, one per run.
type runDefect struct {
	d         *defect.Defect
	bms       []float64
	stress    float64
	rate      defect.RateKernel
	dts       []model.DataType
	ctxInstrs []model.InstrID
	patProb   float64
}

// tcDefect is the cached, utilization-independent part of a runDefect:
// everything determined by the (testcase, defect) pair alone. The
// per-run compileRun pass only folds in the package utilization.
type tcDefect struct {
	d          *defect.Defect
	bms        []float64 // BaseFreqPerMin·CoreMultiplier(c) per phys core
	baseStress float64   // SettingStress(tc, d), before the util factor
	utilGain   float64
	rate       defect.RateKernel // fresh memo, copied into each run
	dts        []model.DataType
	ctxInstrs  []model.InstrID
	patProb    float64
}

// tcPlan is the per-testcase compiled defect plan a Runner caches across
// runs.
type tcPlan struct {
	defects []tcDefect
}

// planFor returns the cached compiled plan for tc, building it on first
// use. Dropped defects can never consume a draw for this testcase on this
// processor: not detectable, identically-zero setting stress, or a zero
// core multiplier on every physical core — the naive loop never drew for
// their zero rates (Poisson(0) consumes nothing), so caching is
// draw-sequence-neutral.
//
// Caching also fixes a shardkey-adjacent waste: the old per-run compile
// re-derived the ("setting-patprob", defect, testcase) substream on every
// run even though its keys — and therefore its value — are loop-invariant
// across runs (derivation never advances the parent stream).
// TestPatternProbMemoized pins the hoisted value against a fresh
// derivation.
func (r *Runner) planFor(tc *Testcase) *tcPlan {
	if p, ok := r.plans[tc]; ok {
		return p
	}
	defects := r.proc.Defects()
	p := &tcPlan{defects: make([]tcDefect, 0, len(defects))}
	for _, d := range defects {
		if !DetectableBy(tc, d) {
			continue
		}
		base := SettingStress(tc, d)
		if base == 0 {
			continue
		}
		bms := make([]float64, r.proc.PhysCores)
		detectableCore := false
		for c := 0; c < r.proc.PhysCores; c++ {
			if m := d.CoreMultiplier(c); m > 0 {
				bms[c] = d.BaseFreqPerMin * m
				detectableCore = true
			}
		}
		if !detectableCore {
			continue
		}
		e := tcDefect{
			d: d, bms: bms, baseStress: base, utilGain: d.UtilGain,
			rate:    d.RateKernel(),
			patProb: d.SettingPatternProb(tc.ID, r.suite.rng),
		}
		if d.Class == model.ClassComputation {
			e.dts = commonDataTypes(tc, d)
		}
		if d.ContextProb > 0 {
			for _, id := range d.SortedInstrs() {
				if tc.UsesInstr(id) {
					e.ctxInstrs = append(e.ctxInstrs, id)
				}
			}
		}
		p.defects = append(p.defects, e)
	}
	r.plans[tc] = p
	return p
}

// compileRun builds the run's defect plan in the arena from the cached
// per-testcase plan: only the effective stress depends on the run, via the
// package utilization — constant for the whole run, since loads are
// configured before the step loop and only cleared after it. Entries whose
// effective stress is non-positive are skipped exactly as the naive loop
// skips their zero rates.
func (r *Runner) compileRun(tc *Testcase) []runDefect {
	p := r.planFor(tc)
	util := r.pkg.MeanUtil()
	plan := r.arena.plan[:0]
	for i := range p.defects {
		e := &p.defects[i]
		stress := e.baseStress * (1 + e.utilGain*util)
		if stress <= 0 {
			continue
		}
		plan = append(plan, runDefect{
			d: e.d, bms: e.bms, stress: stress, rate: e.rate,
			dts: e.dts, ctxInstrs: e.ctxInstrs, patProb: e.patProb,
		})
	}
	r.arena.plan = plan
	return plan
}

// sampleEvents draws the step's SDC event count for one compiled defect on
// one physical core — Poisson at the exact naive rate, no draw when the
// rate is zero (temperature below the trigger, or this core not
// defective).
func (rd *runDefect) sampleEvents(rng *simrand.Source, core int, coreTemp, minutes float64) int {
	return rng.Poisson(rd.rate.Rate(rd.bms[core], coreTemp, rd.stress) * minutes)
}

// Run executes the testcase under the given options and returns the result.
// The thermal package's state carries over between runs (remaining heat,
// Observation 10), as it does on real hardware.
//
// This is the compiled fast path: the per-step map ranges and per-record
// derivations of the naive loop are hoisted into a flat mix walk and a
// compiled defect plan, draw-for-draw identical to runReference (the
// retained naive implementation a reference suite pins).
func (r *Runner) Run(tc *Testcase, opts RunOpts) RunResult {
	if r.suite.reference {
		return r.runReference(tc, opts)
	}
	if opts.Duration <= 0 {
		opts.Duration = time.Minute
	}
	res := RunResult{
		TestcaseID: tc.ID,
		Core:       opts.Core,
		Duration:   opts.Duration,
	}
	a := &r.arena
	rng := &r.scratch
	// Distinct runs of the same setting must differ: key on the virtual
	// clock, formatted into the arena (byte-identical to the stdlib
	// Duration string the naive path hashes).
	a.keyBuf = appendDuration(a.keyBuf[:0], r.now)
	r.suite.rng.DeriveIntoBytes(rng, a.keyBuf, "run", r.proc.ID, tc.ID)
	if a.rngBuf == nil {
		a.rngBuf = make([]uint64, runRNGBlock)
	}
	rng.SetBlock(a.rngBuf)

	r.pkg.ClearLoads()
	r.pkg.SetLoad(opts.Core, 1, tc.HeatIntensity)
	if tc.MultiThreaded || opts.BurnIn {
		for c := 0; c < r.proc.PhysCores; c++ {
			r.pkg.SetLoad(c, 1, tc.HeatIntensity)
		}
	}
	for c, loaded := 0, 0; c < r.proc.PhysCores && loaded < opts.ExtraStressCores; c++ {
		if c == opts.Core {
			continue
		}
		r.pkg.SetLoad(c, 1, 1.3)
		loaded++
	}

	flat := tc.FlatMix()
	counts := a.floatCounts(len(flat))
	plan := r.compileRun(tc)
	a.cols.Reset()
	a.rows = a.rows[:0]

	var tempSum float64
	steps := 0
	for elapsed := time.Duration(0); elapsed < opts.Duration; elapsed += stepSlice {
		slice := stepSlice
		if rem := opts.Duration - elapsed; rem < slice {
			slice = rem
		}
		var coreTemp float64
		if opts.FixedTempC != nil {
			coreTemp = *opts.FixedTempC
			r.pkg.ForceTemp(*opts.FixedTempC)
		} else {
			r.pkg.Step(slice)
			coreTemp = r.pkg.CoreTempC(opts.Core)
		}
		tempSum += coreTemp
		steps++
		if coreTemp > res.MaxTempC {
			res.MaxTempC = coreTemp
		}

		// Instrumentation accounting over the flattened mix.
		iters := tc.IterPerSec * slice.Seconds()
		for i := range flat {
			counts[i] += flat[i].Usage * iters
		}

		// SDC event sampling over the compiled defect plan.
		minutes := slice.Minutes()
		for pi := range plan {
			rd := &plan[pi]
			n := rd.sampleEvents(rng, opts.Core, coreTemp, minutes)
			for i := 0; i < n; i++ {
				rec := r.makeRecordFast(rng, tc, rd, opts.Core, coreTemp, r.now+elapsed)
				a.cols.Append(&rec)
				a.rows = append(a.rows, rec)
			}
		}
	}
	r.pkg.ClearLoads()
	r.now += opts.Duration
	if steps > 0 {
		res.MeanTempC = tempSum / float64(steps)
	}
	res.InstrCounts = a.instrCounts(flat, counts)
	if len(a.rows) > 0 {
		res.Records = a.rows
	}
	res.Columns = &a.cols
	res.Failed = len(res.Records) > 0
	return res
}

// runReference is the retained naive Run implementation (reference suites
// pin it): per-step map ranges and per-record derivations, the behavior
// the compiled path must reproduce draw-for-draw.
func (r *Runner) runReference(tc *Testcase, opts RunOpts) RunResult {
	if opts.Duration <= 0 {
		opts.Duration = time.Minute
	}
	res := RunResult{
		TestcaseID:  tc.ID,
		Core:        opts.Core,
		Duration:    opts.Duration,
		InstrCounts: map[model.InstrID]float64{},
	}
	rng := r.suite.rng.Derive("run", r.proc.ID, tc.ID,
		// Distinct runs of the same setting must differ.
		time.Duration(r.now).String())

	// Configure thermal load: the tested core runs the testcase; a
	// multi-threaded testcase occupies every core; burn-in loads all
	// cores regardless.
	r.pkg.ClearLoads()
	r.pkg.SetLoad(opts.Core, 1, tc.HeatIntensity)
	if tc.MultiThreaded || opts.BurnIn {
		for c := 0; c < r.proc.PhysCores; c++ {
			r.pkg.SetLoad(c, 1, tc.HeatIntensity)
		}
	}
	for c, loaded := 0, 0; c < r.proc.PhysCores && loaded < opts.ExtraStressCores; c++ {
		if c == opts.Core {
			continue
		}
		r.pkg.SetLoad(c, 1, 1.3)
		loaded++
	}

	var tempSum float64
	steps := 0
	for elapsed := time.Duration(0); elapsed < opts.Duration; elapsed += stepSlice {
		slice := stepSlice
		if rem := opts.Duration - elapsed; rem < slice {
			slice = rem
		}
		var coreTemp float64
		if opts.FixedTempC != nil {
			coreTemp = *opts.FixedTempC
			r.pkg.ForceTemp(*opts.FixedTempC)
		} else {
			r.pkg.Step(slice)
			coreTemp = r.pkg.CoreTempC(opts.Core)
		}
		tempSum += coreTemp
		steps++
		if coreTemp > res.MaxTempC {
			res.MaxTempC = coreTemp
		}

		// Instrumentation accounting.
		iters := tc.IterPerSec * slice.Seconds()
		for id, usage := range tc.Mix {
			res.InstrCounts[id] += usage * iters
		}

		// SDC event sampling per defect.
		minutes := slice.Minutes()
		for _, d := range r.proc.Defects() {
			if !DetectableBy(tc, d) {
				continue
			}
			// Instruction-usage stress scaled by package utilization
			// (the Section 5 separation experiment: frequency rises
			// with CPU utilization even at constant temperature).
			stress := SettingStress(tc, d) * (1 + d.UtilGain*r.pkg.MeanUtil())
			rate := d.RatePerMin(opts.Core, coreTemp, stress)
			n := rng.Poisson(rate * minutes)
			for i := 0; i < n; i++ {
				res.Records = append(res.Records,
					r.makeRecord(rng, tc, d, opts.Core, coreTemp, r.now+elapsed))
			}
		}
	}
	r.pkg.ClearLoads()
	r.now += opts.Duration
	if steps > 0 {
		res.MeanTempC = tempSum / float64(steps)
	}
	res.Failed = len(res.Records) > 0
	return res
}

// makeRecordFast is makeRecord over a compiled runDefect: the context
// instruction list, common datatypes and setting pattern probability come
// from the plan instead of being re-derived per record. The rng draws are
// the same calls with the same arguments in the same order as makeRecord.
func (r *Runner) makeRecordFast(rng *simrand.Source, tc *Testcase, rd *runDefect, core int, tempC float64, when time.Duration) model.SDCRecord {
	d := rd.d
	rec := model.SDCRecord{
		ProcessorID: r.proc.ID,
		Core:        core,
		TestcaseID:  tc.ID,
		Temperature: tempC,
		When:        when,
	}
	// The toolchain sometimes preserves context and points at the
	// incorrect instruction (Section 4.1).
	if d.ContextProb > 0 && rng.Bool(d.ContextProb) {
		if len(rd.ctxInstrs) > 0 {
			rec.HasContext = true
			rec.ContextInstr = rd.ctxInstrs[rng.Intn(len(rd.ctxInstrs))]
		}
	}
	if d.Class == model.ClassConsistency {
		rec.Consistency = true
		return rec
	}
	dt := rd.dts[rng.Intn(len(rd.dts))]
	rec.DataType = dt

	corr := d.Corruptor(dt, r.suite.rng)
	expLo, expHi := inject.RandomValue(rng, dt)
	actLo, actHi := corr.CorruptWithProb(rng, rd.patProb, expLo, expHi)
	rec.Expected, rec.ExpectedHi = expLo, expHi
	rec.Actual, rec.ActualHi = actLo, actHi
	return rec
}

// makeRecord produces one SDC record for a (testcase, defect) event.
func (r *Runner) makeRecord(rng *simrand.Source, tc *Testcase, d *defect.Defect, core int, tempC float64, when time.Duration) model.SDCRecord {
	rec := model.SDCRecord{
		ProcessorID: r.proc.ID,
		Core:        core,
		TestcaseID:  tc.ID,
		Temperature: tempC,
		When:        when,
	}
	// The toolchain sometimes preserves context and points at the
	// incorrect instruction (Section 4.1).
	if d.ContextProb > 0 && rng.Bool(d.ContextProb) {
		var used []model.InstrID
		for _, id := range d.SortedInstrs() {
			if tc.UsesInstr(id) {
				used = append(used, id)
			}
		}
		if len(used) > 0 {
			rec.HasContext = true
			rec.ContextInstr = used[rng.Intn(len(used))]
		}
	}
	if d.Class == model.ClassConsistency {
		rec.Consistency = true
		return rec
	}
	dts := commonDataTypes(tc, d)
	dt := dts[rng.Intn(len(dts))]
	rec.DataType = dt

	corr := d.Corruptor(dt, r.suite.rng)
	expLo, expHi := inject.RandomValue(rng, dt)
	prob := d.SettingPatternProb(tc.ID, r.suite.rng)
	actLo, actHi := corr.CorruptWithProb(rng, prob, expLo, expHi)
	rec.Expected, rec.ExpectedHi = expLo, expHi
	rec.Actual, rec.ActualHi = actLo, actHi
	return rec
}

// RunParallel executes the testcase simultaneously on every listed core
// (one thread per core, the way datacenter diagnostics like OpenDCDiag
// fan a testcase across the machine). All listed cores are loaded for the
// full duration; SDC events are sampled per core at its own temperature.
// The result aggregates records across cores; Failed is true when any core
// failed. Temperatures summarize the hottest listed core.
//
// Like Run, this is the compiled fast path; a reference suite pins the
// retained naive runParallelReference.
func (r *Runner) RunParallel(tc *Testcase, cores []int, opts RunOpts) RunResult {
	if r.suite.reference {
		return r.runParallelReference(tc, cores, opts)
	}
	if len(cores) == 0 {
		panic("testkit: RunParallel with no cores")
	}
	if opts.Duration <= 0 {
		opts.Duration = time.Minute
	}
	res := RunResult{
		TestcaseID: tc.ID,
		Core:       cores[0],
		Duration:   opts.Duration,
	}
	a := &r.arena
	rng := &r.scratch
	a.keyBuf = appendDuration(a.keyBuf[:0], r.now)
	r.suite.rng.DeriveIntoBytes(rng, a.keyBuf, "runp", r.proc.ID, tc.ID)
	if a.rngBuf == nil {
		a.rngBuf = make([]uint64, runRNGBlock)
	}
	rng.SetBlock(a.rngBuf)

	r.pkg.ClearLoads()
	for _, c := range cores {
		r.pkg.SetLoad(c, 1, tc.HeatIntensity)
	}
	if opts.BurnIn {
		for c := 0; c < r.proc.PhysCores; c++ {
			r.pkg.SetLoad(c, 1, tc.HeatIntensity)
		}
	}

	flat := tc.FlatMix()
	counts := a.floatCounts(len(flat))
	plan := r.compileRun(tc)
	a.cols.Reset()
	a.rows = a.rows[:0]

	var tempSum float64
	steps := 0
	for elapsed := time.Duration(0); elapsed < opts.Duration; elapsed += stepSlice {
		slice := stepSlice
		if rem := opts.Duration - elapsed; rem < slice {
			slice = rem
		}
		if opts.FixedTempC != nil {
			r.pkg.ForceTemp(*opts.FixedTempC)
		} else {
			r.pkg.Step(slice)
		}
		var hottest float64
		minutes := slice.Minutes()
		for _, c := range cores {
			coreTemp := r.pkg.CoreTempC(c)
			if opts.FixedTempC != nil {
				coreTemp = *opts.FixedTempC
			}
			if coreTemp > hottest {
				hottest = coreTemp
			}
			for pi := range plan {
				rd := &plan[pi]
				n := rd.sampleEvents(rng, c, coreTemp, minutes)
				for i := 0; i < n; i++ {
					rec := r.makeRecordFast(rng, tc, rd, c, coreTemp, r.now+elapsed)
					a.cols.Append(&rec)
					a.rows = append(a.rows, rec)
				}
			}
		}
		tempSum += hottest
		steps++
		if hottest > res.MaxTempC {
			res.MaxTempC = hottest
		}
		iters := tc.IterPerSec * slice.Seconds() * float64(len(cores))
		for i := range flat {
			counts[i] += flat[i].Usage * iters
		}
	}
	r.pkg.ClearLoads()
	r.now += opts.Duration
	if steps > 0 {
		res.MeanTempC = tempSum / float64(steps)
	}
	res.InstrCounts = a.instrCounts(flat, counts)
	if len(a.rows) > 0 {
		res.Records = a.rows
	}
	res.Columns = &a.cols
	res.Failed = len(res.Records) > 0
	return res
}

// runParallelReference is the retained naive RunParallel implementation
// (reference suites pin it).
func (r *Runner) runParallelReference(tc *Testcase, cores []int, opts RunOpts) RunResult {
	if len(cores) == 0 {
		panic("testkit: RunParallel with no cores")
	}
	if opts.Duration <= 0 {
		opts.Duration = time.Minute
	}
	res := RunResult{
		TestcaseID:  tc.ID,
		Core:        cores[0],
		Duration:    opts.Duration,
		InstrCounts: map[model.InstrID]float64{},
	}
	rng := r.suite.rng.Derive("runp", r.proc.ID, tc.ID, time.Duration(r.now).String())

	r.pkg.ClearLoads()
	for _, c := range cores {
		r.pkg.SetLoad(c, 1, tc.HeatIntensity)
	}
	if opts.BurnIn {
		for c := 0; c < r.proc.PhysCores; c++ {
			r.pkg.SetLoad(c, 1, tc.HeatIntensity)
		}
	}

	var tempSum float64
	steps := 0
	for elapsed := time.Duration(0); elapsed < opts.Duration; elapsed += stepSlice {
		slice := stepSlice
		if rem := opts.Duration - elapsed; rem < slice {
			slice = rem
		}
		if opts.FixedTempC != nil {
			r.pkg.ForceTemp(*opts.FixedTempC)
		} else {
			r.pkg.Step(slice)
		}
		var hottest float64
		minutes := slice.Minutes()
		for _, c := range cores {
			coreTemp := r.pkg.CoreTempC(c)
			if opts.FixedTempC != nil {
				coreTemp = *opts.FixedTempC
			}
			if coreTemp > hottest {
				hottest = coreTemp
			}
			for _, d := range r.proc.Defects() {
				if !DetectableBy(tc, d) {
					continue
				}
				stress := SettingStress(tc, d) * (1 + d.UtilGain*r.pkg.MeanUtil())
				rate := d.RatePerMin(c, coreTemp, stress)
				n := rng.Poisson(rate * minutes)
				for i := 0; i < n; i++ {
					res.Records = append(res.Records,
						r.makeRecord(rng, tc, d, c, coreTemp, r.now+elapsed))
				}
			}
		}
		tempSum += hottest
		steps++
		if hottest > res.MaxTempC {
			res.MaxTempC = hottest
		}
		iters := tc.IterPerSec * slice.Seconds() * float64(len(cores))
		for id, usage := range tc.Mix {
			res.InstrCounts[id] += usage * iters
		}
	}
	r.pkg.ClearLoads()
	r.now += opts.Duration
	if steps > 0 {
		res.MeanTempC = tempSum / float64(steps)
	}
	res.Failed = len(res.Records) > 0
	return res
}

// RunAll executes every testcase in the suite sequentially on the given
// core with equal duration each — the baseline large-scale test procedure
// of Section 2.4. It returns all results.
func (r *Runner) RunAll(core int, perTestcase time.Duration, burnIn bool) []RunResult {
	results := make([]RunResult, 0, len(r.suite.Testcases))
	for _, tc := range r.suite.Testcases {
		// Clone: each result must survive the arena reset of the next run.
		results = append(results, r.Run(tc, RunOpts{
			Core: core, Duration: perTestcase, BurnIn: burnIn,
		}).Clone())
	}
	return results
}

// FailedTestcases extracts the IDs of failed testcases from results.
func FailedTestcases(results []RunResult) []string {
	var out []string
	seen := map[string]bool{}
	for _, res := range results {
		if res.Failed && !seen[res.TestcaseID] {
			seen[res.TestcaseID] = true
			out = append(out, res.TestcaseID)
		}
	}
	return out
}

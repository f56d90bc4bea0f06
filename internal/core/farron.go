package core

import (
	"time"

	"farron/internal/defect"
	"farron/internal/model"
	"farron/internal/simrand"
	"farron/internal/testkit"
)

// State is a processor's position in the Farron workflow (Figure 10).
type State int

const (
	// StatePreProduction: adequate testing before service.
	StatePreProduction State = iota
	// StateOnline: serving applications under triggering-condition
	// control, with regular tests.
	StateOnline
	// StateSuspected: a regular test failed; targeted in-depth testing
	// decides decommission scope.
	StateSuspected
	// StateDeprecated: the processor is out of service.
	StateDeprecated
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StatePreProduction:
		return "pre-production"
	case StateOnline:
		return "online"
	case StateSuspected:
		return "suspected"
	case StateDeprecated:
		return "deprecated"
	default:
		return "unknown"
	}
}

// Config parameterizes Farron.
type Config struct {
	Boundary BoundaryConfig
	Planner  PlannerConfig
	// RegularPeriod is the interval between regular test rounds (both
	// Farron and the baseline test every three months).
	RegularPeriod time.Duration
	// PreProdPerTestcase is the adequate pre-production duration per
	// testcase.
	PreProdPerTestcase time.Duration
	// TargetedPerTestcase is the per-testcase duration of in-depth
	// suspected-state validation runs.
	TargetedPerTestcase time.Duration
	// DisableBurnIn turns off the burn-in testing environment (ablation
	// knob: Section 7.1 argues burn-in is needed to cover the
	// application execution temperature).
	DisableBurnIn bool
}

// DefaultConfig returns the evaluation configuration.
func DefaultConfig() Config {
	return Config{
		Boundary:            DefaultBoundaryConfig(),
		Planner:             DefaultPlannerConfig(),
		RegularPeriod:       90 * 24 * time.Hour,
		PreProdPerTestcase:  2 * time.Minute,
		TargetedPerTestcase: 2 * time.Minute,
	}
}

// RoundReport summarizes one test round (pre-production, regular or
// targeted).
type RoundReport struct {
	// DetectedTestcases are testcase IDs that observed at least one SDC.
	DetectedTestcases map[string]bool
	// FailedCores are physical cores that produced SDCs.
	FailedCores map[int]bool
	// Duration is total test time consumed.
	Duration time.Duration
	// MaxTempC is the hottest core temperature reached while testing.
	MaxTempC float64
	// SDCs counts the SDC records the round's runs produced.
	SDCs int
}

// NewRoundReport returns an empty round report ready to Absorb runs.
func NewRoundReport() *RoundReport {
	return &RoundReport{
		DetectedTestcases: map[string]bool{},
		FailedCores:       map[int]bool{},
	}
}

// Absorb folds one run into the report. It reads the run's records in
// place and keeps only counts, so it copies nothing out of the runner's
// arena.
func (r *RoundReport) Absorb(res testkit.RunResult) {
	r.Duration += res.Duration
	if res.MaxTempC > r.MaxTempC {
		r.MaxTempC = res.MaxTempC
	}
	if res.Failed {
		r.DetectedTestcases[res.TestcaseID] = true
		// Compiled runs expose the columnar form: scan the contiguous
		// core column instead of striding through row structs.
		if cols := res.Columns; cols != nil {
			for _, c := range cols.Core {
				r.FailedCores[c] = true
			}
		} else {
			for _, rec := range res.Records {
				r.FailedCores[rec.Core] = true
			}
		}
	}
	r.SDCs += len(res.Records)
}

// Coverage returns the fraction of known errors (failing testcases) the
// round detected — Figure 11's metric: "the ratio of detected errors to the
// total known errors in the faulty processor".
func (r *RoundReport) Coverage(knownErrs []string) float64 {
	if len(knownErrs) == 0 {
		return 1
	}
	hit := 0
	for _, id := range knownErrs {
		if r.DetectedTestcases[id] {
			hit++
		}
	}
	return float64(hit) / float64(len(knownErrs))
}

// TestOverhead converts a round duration into Table 4's testing overhead:
// round duration over the regular period.
func TestOverhead(round, period time.Duration) float64 {
	if period <= 0 {
		return 0
	}
	return round.Seconds() / period.Seconds()
}

// Farron orchestrates mitigation for one processor.
type Farron struct {
	cfg      Config
	runner   *testkit.Runner
	planner  *Planner
	boundary *Boundary
	pool     *ReliablePool
	entry    *PoolEntry
	state    State
}

// New creates a Farron instance for the runner's processor. appFeatures
// lists the protected application's processor features; fleetActive seeds
// the active-priority testcases from fleet history (Observation 11's
// lesson: history should guide testing).
func New(cfg Config, runner *testkit.Runner, appFeatures []model.Feature, fleetActive []string) *Farron {
	f := &Farron{
		cfg:      cfg,
		runner:   runner,
		planner:  NewPlanner(cfg.Planner, runner.Suite(), appFeatures),
		boundary: NewBoundary(cfg.Boundary),
		pool:     NewReliablePool(),
		state:    StatePreProduction,
	}
	f.entry = f.pool.Admit(runner.Processor())
	for _, id := range fleetActive {
		f.planner.MarkActive(id)
	}
	return f
}

// State returns the workflow state.
func (f *Farron) State() State { return f.state }

// Planner exposes the testcase planner (for inspection).
func (f *Farron) Planner() *Planner { return f.planner }

// Boundary exposes the adaptive temperature boundary.
func (f *Farron) Boundary() *Boundary { return f.boundary }

// Entry exposes the processor's reliable-pool entry.
func (f *Farron) Entry() *PoolEntry { return f.entry }

// PreProduction runs the adequate pre-production tests: every testcase,
// full duration, all cores simultaneously with burn-in heat. Detected
// testcases become suspected; failing cores go through the decommission
// policy. The processor transitions to Online (or Deprecated).
func (f *Farron) PreProduction() *RoundReport {
	rep := NewRoundReport()
	cores := f.entry.ReliableCores()
	if len(cores) == 0 {
		f.state = StateDeprecated
		return rep
	}
	for _, tc := range f.runner.Suite().Testcases {
		res := f.runner.RunParallel(tc, f.entry.ReliableCores(), testkit.RunOpts{
			Duration: f.cfg.PreProdPerTestcase,
			BurnIn:   true,
		})
		rep.Absorb(res)
		if res.Failed {
			f.planner.MarkSuspected(tc.ID)
		}
	}
	f.applyCoreFailures(rep)
	if f.entry.Deprecated() {
		f.state = StateDeprecated
	} else {
		f.state = StateOnline
	}
	return rep
}

// RegularRound runs one prioritized regular test round (Section 7.1):
// burn-in testing environment, suspected+active testcases at full duration
// (scaled by the adaptive boundary), the rest best-effort. A detection
// moves the workflow to Suspected.
func (f *Farron) RegularRound() *RoundReport {
	rep := NewRoundReport()
	cores := f.entry.ReliableCores()
	if len(cores) == 0 {
		f.state = StateDeprecated
		return rep
	}
	for _, alloc := range f.planner.Plan(f.boundary.TestDurationScale()) {
		res := f.runner.RunParallel(alloc.Testcase, f.entry.ReliableCores(), testkit.RunOpts{
			Duration: alloc.Duration,
			BurnIn:   !f.cfg.DisableBurnIn,
		})
		rep.Absorb(res)
		if res.Failed {
			f.planner.MarkSuspected(alloc.Testcase.ID)
		}
	}
	if len(rep.DetectedTestcases) > 0 {
		f.state = StateSuspected
	}
	return rep
}

// TargetedValidation is the Suspected-state in-depth pass: accumulated
// suspected testcases run per core at adequate duration, validating each
// remaining core cheaply (Observation 4: sibling cores fail the same
// testcases). Failing cores are masked or the processor deprecated; the
// survivor returns Online.
func (f *Farron) TargetedValidation() *RoundReport {
	rep := NewRoundReport()
	suspected := f.planner.SuspectedIDs()
	for _, core := range f.entry.ReliableCores() {
		for _, id := range suspected {
			tc := f.runner.Suite().ByID(id)
			res := f.runner.RunParallel(tc, []int{core}, testkit.RunOpts{
				Duration: f.cfg.TargetedPerTestcase,
				BurnIn:   true,
			})
			rep.Absorb(res)
		}
	}
	f.applyCoreFailures(rep)
	validated := map[int]bool{}
	for _, core := range f.entry.ReliableCores() {
		if !rep.FailedCores[core] {
			validated[core] = true
			f.entry.RecordCoreValidated(core)
		}
	}
	if f.entry.Deprecated() {
		f.state = StateDeprecated
	} else {
		f.state = StateOnline
	}
	return rep
}

// applyCoreFailures pushes a report's failed cores through the
// decommission policy.
func (f *Farron) applyCoreFailures(rep *RoundReport) {
	for core := range rep.FailedCores {
		if f.entry.Deprecated() {
			return
		}
		if !f.entry.FailedCores[core] {
			f.entry.RecordCoreFailure(core)
		}
	}
}

// AppProfile describes the protected application's execution behaviour for
// the online simulation.
type AppProfile struct {
	// BaseUtil and BurstUtil are steady and burst core utilizations.
	BaseUtil, BurstUtil float64
	// BurstProb is the per-sample probability a burst episode starts;
	// BurstTicks is its length in samples.
	BurstProb  float64
	BurstTicks int
	// Intensity is the workload's heat intensity.
	Intensity float64
	// Stress is the application's usage stress on defective instructions
	// (how hard it leans on the vulnerable feature).
	Stress float64
	// Cores is how many reliable cores the application occupies
	// (0 = all). Production services are provisioned per-core; the
	// evaluation workload runs on a handful.
	Cores int
}

// DefaultAppProfile models the toolchain-simulated impacted workload of the
// evaluation: moderate sustained load with occasional hot bursts.
func DefaultAppProfile() AppProfile {
	return AppProfile{
		BaseUtil:   0.6,
		BurstUtil:  1.0,
		BurstProb:  0.00008,
		BurstTicks: 12,
		Intensity:  1.0,
		Stress:     0.5,
		Cores:      4,
	}
}

// OnlineReport summarizes an online-operation simulation.
type OnlineReport struct {
	Backoff BackoffStats
	// SDCs is the number of silent corruptions the application
	// experienced.
	SDCs int
	// BoundaryFinalC is the adaptive boundary after the run.
	BoundaryFinalC float64
	// BoundaryRaises counts adaptations.
	BoundaryRaises int
}

// onlineTick is the monitoring sample interval.
const onlineTick = 10 * time.Second

// Online simulates serving the application for the given wall time on the
// processor's reliable cores, with Farron's temperature control active
// (protect=true) or disabled (protect=false, the unprotected comparison).
// It returns backoff accounting and the SDC count the application absorbed.
func (f *Farron) Online(dur time.Duration, app AppProfile, protect bool, rng *simrand.Source) OnlineReport {
	var rep OnlineReport
	cores := f.appCores(app)
	if len(cores) == 0 {
		return rep
	}
	pkg := f.runner.Thermal()

	// Compile the SDC exposure walk once: one rate entry per (defect,
	// app core) pair in the naive order, defects outer. Pairs with a zero
	// core multiplier are dropped — their rate is identically zero and
	// Poisson(0) consumes no draw — and each entry owns its kernel memo.
	type exposure struct {
		core int // index into cores and temps
		bm   float64
		rate defect.RateKernel
	}
	defects := f.runner.Processor().Defects()
	exps := make([]exposure, 0, len(defects)*len(cores))
	for _, d := range defects {
		k := d.RateKernel()
		for i, c := range cores {
			if m := d.CoreMultiplier(c); m != 0 {
				exps = append(exps, exposure{core: i, bm: d.BaseFreqPerMin * m, rate: k})
			}
		}
	}
	temps := make([]float64, len(cores))
	minutes := onlineTick.Minutes()
	pkg.ClearLoads()

	burstLeft := 0
	backingOff := false
	for elapsed := time.Duration(0); elapsed < dur; elapsed += onlineTick {
		// Decide this tick's utilization.
		util := app.BaseUtil
		if burstLeft > 0 {
			util = app.BurstUtil
			burstLeft--
		} else if rng.Bool(app.BurstProb) {
			burstLeft = app.BurstTicks
			util = app.BurstUtil
		}
		if backingOff {
			// Workload backoff: throttle hard until the
			// temperature drops below the boundary.
			util *= 0.1
		}
		for _, c := range cores {
			pkg.SetLoad(c, util, app.Intensity)
		}
		pkg.Step(onlineTick)

		// Hottest reliable core drives the controller.
		var temp float64
		for i, c := range cores {
			temps[i] = pkg.CoreTempC(c)
			if temps[i] > temp {
				temp = temps[i]
			}
		}
		action := ActionNone
		if protect {
			action = f.boundary.Record(temp)
			backingOff = action == ActionBackoff || action == ActionCooling
		}
		rep.Backoff.Observe(action, onlineTick, temp)

		// SDC exposure: each defect on a reliable core fires at its
		// rate under the application's stress and the current
		// temperature.
		stress := app.Stress * util
		for i := range exps {
			e := &exps[i]
			rep.SDCs += rng.Poisson(e.rate.Rate(e.bm, temps[e.core], stress) * minutes)
		}
	}
	pkg.ClearLoads()
	rep.BoundaryFinalC = f.boundary.Current()
	rep.BoundaryRaises = f.boundary.Raises()
	return rep
}

// appCores returns the reliable cores the application occupies.
func (f *Farron) appCores(app AppProfile) []int {
	cores := f.entry.ReliableCores()
	if app.Cores <= 0 || app.Cores >= len(cores) {
		return cores
	}
	// Prefer placing the app on defective-but-undetected cores: the
	// adversarial case temperature control must protect.
	proc := f.runner.Processor()
	chosen := make([]int, 0, app.Cores)
	for _, c := range cores {
		if proc.CoreDefective(c) {
			chosen = append(chosen, c)
		}
	}
	for _, c := range cores {
		if len(chosen) >= app.Cores {
			break
		}
		if !proc.CoreDefective(c) {
			chosen = append(chosen, c)
		}
	}
	return chosen[:app.Cores]
}

// Baseline is the existing Alibaba Cloud strategy (Section 7): every three
// months, all 633 testcases sequentially with equal resources — the
// per-testcase minute is divided across cores, tested one core at a time,
// with no burn-in — and any detection deprecates the whole processor.
type Baseline struct {
	runner *testkit.Runner
	// PerTestcase is the equal allocation (60 s in the evaluation, i.e.
	// a 10.55 h round).
	PerTestcase time.Duration
}

// NewBaseline creates the baseline strategy.
func NewBaseline(runner *testkit.Runner, perTestcase time.Duration) *Baseline {
	return &Baseline{runner: runner, PerTestcase: perTestcase}
}

// RegularRound runs one baseline round and reports detections. Any
// detection means the processor is deprecated whole.
func (b *Baseline) RegularRound() *RoundReport {
	rep := NewRoundReport()
	proc := b.runner.Processor()
	nCores := proc.PhysCores
	perCore := b.PerTestcase / time.Duration(nCores)
	if perCore <= 0 {
		perCore = time.Second
	}
	for _, tc := range b.runner.Suite().Testcases {
		for c := 0; c < nCores; c++ {
			res := b.runner.Run(tc, testkit.RunOpts{
				Core:     c,
				Duration: perCore,
			})
			rep.Absorb(res)
		}
	}
	if len(rep.DetectedTestcases) > 0 {
		proc.Deprecate()
	}
	return rep
}

// Package fleet models the production CPU population and the test-timing
// pipeline of Figure 1: factory delivery → datacenter delivery → system
// re-installation → regular in-production testing.
//
// The population reproduces Table 2's per-micro-architecture failure rates
// (0.082‱ … 9.29‱, fleet average 3.61‱) and the pipeline's stage
// detection split reproduces Table 1 (factory 0.776‱, datacenter 0.18‱,
// re-install 2.306‱, regular 0.348‱).
//
// Simulating a million CPUs with full per-testcase thermal runs would be
// needlessly slow: healthy processors never fail, so they are counted, not
// executed. Each faulty processor gets an analytic per-stage detection
// probability derived from its defect parameters and the stage's test
// duration and temperature profile — the same quantities the full runner
// integrates, collapsed in closed form.
package fleet

import (
	"fmt"
	"math"
	"strconv"

	"farron/internal/defect"
	"farron/internal/engine"
	"farron/internal/model"
	"farron/internal/simrand"
	"farron/internal/testkit"
)

// ArchShare describes one micro-architecture's slice of the population.
type ArchShare struct {
	Arch model.MicroArch
	// Share is the fraction of the fleet (shares sum to 1).
	Share float64
	// FaultyRate is the fraction of this arch's CPUs that are faulty
	// (Table 2, expressed as a plain fraction, not ‱).
	FaultyRate float64
}

// DefaultMix returns the fleet composition calibrated so the share-weighted
// mean failure rate is 3.61‱ with the per-arch rates of Table 2.
func DefaultMix() []ArchShare {
	return []ArchShare{
		{"M1", 0.13, 4.619e-4},
		{"M2", 0.09, 0.352e-4},
		{"M3", 0.12, 2.649e-4},
		{"M4", 0.06, 0.082e-4},
		{"M5", 0.12, 0.759e-4},
		{"M6", 0.10, 3.251e-4},
		{"M7", 0.10, 1.599e-4},
		{"M8", 0.17, 9.290e-4},
		{"M9", 0.11, 4.646e-4},
	}
}

// StageProfile describes the testing conditions of one pipeline stage.
type StageProfile struct {
	Stage model.Stage
	// PerTestcaseMin is the duration allocated per testcase, in minutes
	// (equal allocation, Section 2.4).
	PerTestcaseMin float64
	// MeanTempC is the typical core temperature reached while testing
	// at this stage (burn-in style testing runs hot; short screens run
	// cooler).
	MeanTempC float64
	// TempSpreadC is the random spread of the achieved temperature.
	TempSpreadC float64
}

// DefaultStages returns stage profiles calibrated against Table 1's
// detection split. Re-installation testing is the long, hot, thorough gate
// (it catches ~64% of all faulty CPUs); factory and datacenter screens are
// brief; regular tests are periodic and moderate.
func DefaultStages() []StageProfile {
	return []StageProfile{
		{model.StageFactory, 0.02, 51, 3},
		{model.StageDatacenter, 0.015, 52, 3},
		{model.StageReinstall, 5, 66, 3},
		{model.StageRegular, 1, 62, 5},
	}
}

// DefaultTrueFaultScale converts Table 2's *detected* failure rates into
// true underlying fault rates: the pipeline's measured end-to-end detection
// probability is ~0.65 (tricky defects with triggering temperatures above
// what any stage reaches escape every screen — exactly why the paper's
// production incidents of Section 2.2 happened despite all that testing).
const DefaultTrueFaultScale = 1.55

// Config configures a fleet simulation.
type Config struct {
	// Processors is the population size (paper: >1,000,000).
	Processors int
	// Mix is the micro-architecture composition.
	Mix []ArchShare
	// Stages is the pipeline.
	Stages []StageProfile
	// RegularRounds is how many regular-test rounds run after the
	// pre-production stages (the study spans 32 months ≈ 10 quarterly
	// rounds).
	RegularRounds int
	// TrueFaultScale multiplies Mix fault rates to convert detected
	// rates (what Table 2 reports) into true underlying rates.
	TrueFaultScale float64
	// Strategy selects the screening strategy for the regular
	// in-production rounds (one of Strategies; "" means StrategyFarron).
	// Pre-production gates are strategy-independent.
	Strategy string
	// RegularPeriodMin is the production time between regular rounds in
	// minutes (values <= 0 mean DefaultRegularPeriodMin, the quarterly
	// cadence). It scales always-on strategies' detection exposure and
	// converts round costs into Table 4 overhead fractions.
	RegularPeriodMin float64
	// Seed drives all randomness.
	Seed uint64
	// Workers bounds the screening goroutines. Results are identical at
	// any worker count: each faulty CPU owns a serial-keyed substream and
	// outcomes merge in serial order. Values < 1 mean serial.
	Workers int
}

// DefaultRegularPeriodMin is the quarterly regular-testing cadence in
// minutes (90 days — the study's ~10 rounds over 32 months).
const DefaultRegularPeriodMin = 90 * 24 * 60

// DefaultConfig returns the paper-scale configuration.
func DefaultConfig() Config {
	return Config{
		Processors:       1_000_000,
		Mix:              DefaultMix(),
		Stages:           DefaultStages(),
		RegularRounds:    10,
		TrueFaultScale:   DefaultTrueFaultScale,
		Strategy:         StrategyFarron,
		RegularPeriodMin: DefaultRegularPeriodMin,
		Seed:             1,
	}
}

// Result summarizes a fleet simulation.
type Result struct {
	// Population is the simulated processor count.
	Population int
	// Strategy is the screening strategy the fleet ran under.
	Strategy string
	// FaultyTotal is how many processors carry defects.
	FaultyTotal int
	// DetectedByStage counts first detections per stage.
	DetectedByStage [model.NumStages]int
	// Escaped counts faulty processors never detected in any stage.
	Escaped int
	// ByArch aggregates per micro-architecture.
	ByArch map[model.MicroArch]*ArchResult
	// FaultyProfiles holds the generated profiles of detected faulty
	// processors (inputs for deeper study).
	FaultyProfiles []*defect.Profile
	// EffectiveTestcases is the set of testcase IDs that detected at
	// least one fault anywhere in the fleet (Observation 11).
	EffectiveTestcases map[string]bool
}

// ArchResult is the per-architecture aggregate.
type ArchResult struct {
	Population int
	Faulty     int
	Detected   int
}

// FailureRate returns detected faulty CPUs over population.
func (a *ArchResult) FailureRate() float64 {
	if a.Population == 0 {
		return 0
	}
	return float64(a.Detected) / float64(a.Population)
}

// DetectedTotal sums detections across stages.
func (r *Result) DetectedTotal() int {
	t := 0
	for _, n := range r.DetectedByStage {
		t += n
	}
	return t
}

// OverallRate returns total detected over population.
func (r *Result) OverallRate() float64 {
	if r.Population == 0 {
		return 0
	}
	return float64(r.DetectedTotal()) / float64(r.Population)
}

// StageRate returns a stage's detections over population.
func (r *Result) StageRate(s model.Stage) float64 {
	if r.Population == 0 {
		return 0
	}
	return float64(r.DetectedByStage[s]) / float64(r.Population)
}

// Simulator runs fleet-scale screening.
type Simulator struct {
	cfg   Config
	suite *testkit.Suite
	rng   *simrand.Source
	scr   Screener
	// gen generates every faulty CPU's profile; frozen, it is shared by
	// the whole screening pool.
	gen *defect.FleetGenerator
	// regularSP caches the regular-testing stage profile (hasRegular
	// false when none is configured): every screen consults it every
	// round, and cfg.Stages is frozen after NewSimulator, so the
	// per-round linear scan is hoisted here.
	regularSP  StageProfile
	hasRegular bool
}

// NewSimulator builds a simulator; the suite is used to derive per-defect
// detectability (how many testcases can catch it and at what stress).
func NewSimulator(cfg Config, suite *testkit.Suite) (*Simulator, error) {
	if cfg.Processors <= 0 {
		return nil, fmt.Errorf("fleet: non-positive population")
	}
	total := 0.0
	for _, m := range cfg.Mix {
		if m.Share < 0 || m.FaultyRate < 0 {
			return nil, fmt.Errorf("fleet: negative share or rate for %s", m.Arch)
		}
		total += m.Share
	}
	if math.Abs(total-1) > 1e-9 {
		return nil, fmt.Errorf("fleet: shares sum to %v, want 1", total)
	}
	if len(cfg.Stages) == 0 {
		return nil, fmt.Errorf("fleet: no stages")
	}
	cfg.Strategy = NormalizeStrategy(cfg.Strategy)
	if cfg.RegularPeriodMin <= 0 {
		cfg.RegularPeriodMin = DefaultRegularPeriodMin
	}
	s := &Simulator{cfg: cfg, suite: suite, rng: simrand.New(cfg.Seed).Derive("fleet")}
	s.gen = defect.NewFleetGenerator(s.rng)
	for _, sp := range cfg.Stages {
		if sp.Stage == model.StageRegular {
			s.regularSP, s.hasRegular = sp, true
			break
		}
	}
	scr, err := newScreener(s, cfg.Strategy)
	if err != nil {
		return nil, err
	}
	s.scr = scr
	return s, nil
}

// Screener returns the simulator's screening strategy.
func (s *Simulator) Screener() Screener { return s.scr }

// Run executes the simulation. Faulty-CPU screening is sharded per CPU:
// each processor's profile and pipeline randomness derive from its serial,
// so the result is identical at any Workers value. Healthy processors are
// counted, never executed.
//
// The loop is round-major so feedback-driven strategies work: screens are
// built and pre-produced in parallel, then each regular round sweeps the
// whole fleet in parallel, feeds the round's detections to the screener in
// serial merge order, and lets it evolve (EndRound) before the next round
// begins. For per-CPU-substream strategies this draws the exact sequence
// the old CPU-major loop drew, so the default strategy's results are
// byte-identical to the pre-interface simulator.
func (s *Simulator) Run() *Result {
	res := &Result{
		Population:         s.cfg.Processors,
		Strategy:           s.scr.Strategy(),
		ByArch:             map[model.MicroArch]*ArchResult{},
		EffectiveTestcases: map[string]bool{},
	}
	for _, m := range s.cfg.Mix {
		res.ByArch[m.Arch] = &ArchResult{}
	}

	// Allocate population counts per arch (largest-remainder rounding).
	counts := apportion(s.cfg.Processors, s.cfg.Mix)

	// Serial prologue: per-arch faulty-CPU counts (one cheap Poisson draw
	// per arch), then the flat shard list of every faulty CPU — counted
	// first so the list is allocated once at its final size.
	type job struct {
		archIdx int
		serial  string
	}
	faulty := make([]int, len(s.cfg.Mix))
	for i, m := range s.cfg.Mix {
		ar := res.ByArch[m.Arch]
		ar.Population = counts[i]
		// Draw the number of faulty CPUs binomially via Poisson
		// approximation (rate ≤ 1e-3, population ~1e5: excellent).
		arng := s.rng.Derive("arch", string(m.Arch))
		scale := s.cfg.TrueFaultScale
		if scale <= 0 {
			scale = 1
		}
		nFaulty := arng.Poisson(float64(counts[i]) * m.FaultyRate * scale)
		faulty[i] = nFaulty
		ar.Faulty = nFaulty
		res.FaultyTotal += nFaulty
	}
	jobs := make([]job, 0, res.FaultyTotal)
	for i, m := range s.cfg.Mix {
		for f := 0; f < faulty[i]; f++ {
			jobs = append(jobs, job{i, faultySerial(m.Arch, f)})
		}
	}

	// Parallel screen construction and pre-production: the CPU's serial
	// keys both its generated profile and its screening substream.
	pool := engine.NewPool(s.cfg.Workers)
	screens := engine.MapPlain(pool, len(jobs), func(j int) Screen {
		return s.scr.NewScreen(jobs[j].serial, s.cfg.Mix[jobs[j].archIdx].Arch)
	})
	pool.Run(len(screens), func(j int) { screens[j].PreProduction() })

	// Regular rounds, fleet-wide: parallel sweep, then the round's
	// detections to the screener in serial merge order (arch order, then
	// serial), then the strategy's evolution step. Detected screens'
	// later RegularRound calls are draw-free no-ops. The hit vector is
	// allocated once and rewritten per round (every slot is assigned
	// every round, so no clearing is needed).
	hits := make([]bool, len(screens))
	for round := 0; round < s.cfg.RegularRounds; round++ {
		pool.Run(len(screens), func(j int) {
			hits[j] = screens[j].RegularRound()
		})
		for j, hit := range hits {
			if !hit {
				continue
			}
			o := screens[j].Outcome()
			s.scr.Observe(Detection{
				Serial:     jobs[j].serial,
				Arch:       s.cfg.Mix[jobs[j].archIdx].Arch,
				Stage:      o.Stage,
				TestcaseID: o.TestcaseID,
				Round:      round,
			})
		}
		s.scr.EndRound(round)
	}

	// Deterministic merge in serial order.
	for j := range screens {
		o := screens[j].Outcome()
		if !o.Detected {
			res.Escaped++
			continue
		}
		res.DetectedByStage[o.Stage]++
		res.ByArch[s.cfg.Mix[jobs[j].archIdx].Arch].Detected++
		res.FaultyProfiles = append(res.FaultyProfiles, o.Profile)
		if o.TestcaseID != "" {
			res.EffectiveTestcases[o.TestcaseID] = true
		}
	}
	return res
}

// faultySerial formats a faulty CPU's serial ("M1-flt-00042"). It matches
// the original "%s-flt-%05d" byte for byte at every index width — five
// digits zero-padded, wider indexes printed in full — without fmt's
// interface boxing on the hot prologue path.
func faultySerial(arch model.MicroArch, f int) string {
	buf := make([]byte, 0, len(arch)+16)
	buf = append(buf, arch...)
	buf = append(buf, "-flt-"...)
	for pow := int64(10_000); int64(f) < pow && pow >= 10; pow /= 10 {
		buf = append(buf, '0')
	}
	buf = strconv.AppendInt(buf, int64(f), 10)
	return string(buf)
}

// screen pushes one faulty processor through the whole pipeline and returns
// the first detecting stage and testcase. It is the one-shot expression of
// the resumable CPUScreen state machine (campaign.go): stages run in
// configured order, the regular stage for RegularRounds rounds, drawing
// from the same serial-keyed substream a campaign-stepped screen would —
// so batch results are byte-identical to a screen resumed round by round.
func (s *Simulator) screen(rng *simrand.Source, p *defect.Profile) (model.Stage, string, bool) {
	cs := s.newScreenState("", "", p, rng)
	for _, sp := range s.cfg.Stages {
		rounds := 1
		if sp.Stage == model.StageRegular {
			rounds = s.cfg.RegularRounds
		}
		for round := 0; round < rounds; round++ {
			if cs.round(sp) {
				return cs.Stage, cs.TestcaseID, true
			}
		}
	}
	return 0, "", false
}

// stageDetect computes whether one stage's test round catches the
// processor: for each (testcase, defect) setting it evaluates the analytic
// detection probability 1−exp(−λ·t) at the stage's achieved temperature,
// using the defect's most detectable core.
func (s *Simulator) stageDetect(rng *simrand.Source, p *defect.Profile, failing []*testkit.Testcase, sp StageProfile) (string, bool) {
	temp := rng.Norm(sp.MeanTempC, sp.TempSpreadC)
	for _, d := range p.Defects {
		core := bestCore(d, p.TotalPCores)
		for _, tc := range failing {
			if !testkit.DetectableBy(tc, d) {
				continue
			}
			stress := testkit.SettingStress(tc, d)
			rate := d.RatePerMin(core, temp, stress)
			if rate <= 0 {
				continue
			}
			pDetect := 1 - math.Exp(-rate*sp.PerTestcaseMin)
			if rng.Bool(pDetect) {
				return tc.ID, true
			}
		}
	}
	return "", false
}

// bestCore returns the defective core with the highest rate multiplier,
// the lowest-numbered one on a tie (the first in DefectiveCores order).
func bestCore(d *defect.Defect, totalCores int) int {
	best, bestM := -1, 0.0
	if d.AllCores {
		for c := 0; c < totalCores; c++ {
			if m := d.CoreMultiplier(c); m > bestM {
				best, bestM = c, m
			}
		}
	} else {
		for _, c := range d.Cores {
			if m := d.CoreMultiplier(c); m > bestM || (m == bestM && m > 0 && c < best) {
				best, bestM = c, m
			}
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// apportion distributes n across shares with largest-remainder rounding.
func apportion(n int, mix []ArchShare) []int {
	counts := make([]int, len(mix))
	type rem struct {
		idx  int
		frac float64
	}
	var rems []rem
	assigned := 0
	for i, m := range mix {
		exact := float64(n) * m.Share
		counts[i] = int(exact)
		assigned += counts[i]
		rems = append(rems, rem{i, exact - float64(counts[i])})
	}
	// Hand out remaining units to the largest fractional parts.
	for assigned < n {
		best := 0
		for i := 1; i < len(rems); i++ {
			if rems[i].frac > rems[best].frac {
				best = i
			}
		}
		counts[rems[best].idx]++
		rems[best].frac = -1
		assigned++
	}
	return counts
}

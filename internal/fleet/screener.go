// The pluggable screening layer. The paper's evaluation compares exactly
// two fixed tools — Farron and the manufacturer's toolchain baseline — but
// the related work proposes structurally different strategies: SiliFuzz
// evolves its testcase corpus from detection feedback instead of running a
// fixed kit, and ITHICA checks every instruction inline by duplicate
// execution instead of running dedicated test rounds at all. Screener is
// the seam that lets one fleet simulation run any of them: a strategy owns
// per-CPU screen construction, sees every regular-round detection in merge
// order, and may evolve its suite between rounds — under the same
// determinism contract as everything else (all randomness from keyed
// simrand substreams, corpus mutation only at serial round boundaries), so
// every strategy is byte-identical at a fixed seed across -workers,
// -fanout and -hosts.
package fleet

import (
	"fmt"

	"farron/internal/defect"
	"farron/internal/engine"
	"farron/internal/model"
	"farron/internal/simrand"
	"farron/internal/testkit"
)

// Strategy names. StrategyFarron is the default (engine.DefaultStrategy)
// and reproduces the pre-interface behavior draw for draw.
const (
	StrategyFarron   = engine.DefaultStrategy
	StrategyBaseline = "baseline"
	StrategySiliFuzz = "silifuzz"
	StrategyITHICA   = "ithica"
)

// Strategies lists every screening strategy in its canonical order (a
// slice, not a map: iteration order is part of rendered output).
func Strategies() []string {
	return []string{StrategyFarron, StrategyBaseline, StrategySiliFuzz, StrategyITHICA}
}

// NormalizeStrategy maps the empty string to the default strategy and
// returns every other name unchanged (validity is checked by NewSimulator).
func NormalizeStrategy(s string) string {
	if s == "" {
		return StrategyFarron
	}
	return s
}

// ValidStrategy reports whether s names a known strategy ("" counts as the
// default).
func ValidStrategy(s string) bool {
	s = NormalizeStrategy(s)
	for _, k := range Strategies() {
		if k == s {
			return true
		}
	}
	return false
}

// Outcome is a screen's pipeline outcome so far: whether (and where) the
// processor was caught, how many regular rounds it has consumed, and the
// generated profile it was screened against. TestcaseID is empty for
// strategies that do not detect through a testcase (ITHICA's inline
// duplicate-execution miscompares).
type Outcome struct {
	Detected   bool
	Stage      model.Stage
	TestcaseID string
	Rounds     int
	Profile    *defect.Profile
}

// Screen is one faulty processor's resumable screening state under some
// strategy. The call discipline mirrors CPUScreen (its reference
// implementation): pre-production once at birth, then one RegularRound per
// campaign; a detected screen consumes no further randomness.
type Screen interface {
	// PreProduction consumes the pre-production stages (factory,
	// datacenter, re-installation) once, reporting detection.
	PreProduction() bool
	// PassPreProduction marks pre-production consumed without drawing —
	// a defect that develops in the field.
	PassPreProduction()
	// RegularRound consumes one regular in-production round, reporting
	// whether this round detected the processor.
	RegularRound() bool
	// Outcome reports the screen's state so far.
	Outcome() Outcome
}

// Detection is one regular-round detection event, fed back to the strategy
// in deterministic merge order (fleet serial order within a round).
type Detection struct {
	Serial     string
	Arch       model.MicroArch
	Stage      model.Stage
	TestcaseID string
	// Round is the regular-round index the detection happened in.
	Round int
}

// CostModel is a strategy's screening cost in machine time.
type CostModel struct {
	// RoundMinutes is the dedicated test time per CPU per regular round
	// (zero for inline checkers — they have no dedicated rounds).
	RoundMinutes float64
	// AlwaysOnOverhead is the fraction of all production compute the
	// strategy consumes continuously (inline duplicate execution); zero
	// for dedicated-round strategies.
	AlwaysOnOverhead float64
}

// OverheadFraction converts the cost model into the paper's Table 4
// metric — the fraction of fleet machine time spent screening — for a
// given production period between regular rounds.
func (c CostModel) OverheadFraction(periodMinutes float64) float64 {
	frac := c.AlwaysOnOverhead
	if periodMinutes > 0 {
		frac += c.RoundMinutes / periodMinutes
	}
	return frac
}

// Screener is a pluggable screening strategy. NewScreen may run
// concurrently across CPUs; Observe and EndRound are called serially
// between rounds (detections in merge order), which is the only window
// where a strategy may mutate shared state such as an evolving corpus —
// during a round the corpus must be read-only so parallel screens see one
// consistent suite.
type Screener interface {
	// Strategy returns the strategy name (one of Strategies).
	Strategy() string
	// NewScreen generates the faulty processor keyed by serial and
	// returns its screening state under this strategy.
	NewScreen(serial string, arch model.MicroArch) Screen
	// Observe feeds one regular-round detection back to the strategy.
	Observe(d Detection)
	// EndRound marks the end of regular round `round`; feedback-driven
	// strategies evolve their suite here, from substreams keyed on the
	// round index so evolution is independent of worker scheduling.
	EndRound(round int)
	// Cost returns the strategy's screening cost model.
	Cost() CostModel
}

// newScreener builds the named strategy for a simulator. The farron
// screener draws from the legacy "screen"/serial substream so the default
// strategy is byte-identical to the pre-interface simulator; every other
// strategy salts its substreams with its name, screening the *same*
// generated defect population (profiles derive from the unsalted stream)
// with independent detection randomness.
func newScreener(s *Simulator, strategy string) (Screener, error) {
	switch NormalizeStrategy(strategy) {
	case StrategyFarron:
		return &kitScreener{sim: s, name: StrategyFarron, salt: "",
			roundMinutes: s.KitRoundMinutes() * FarronRoundShare}, nil
	case StrategyBaseline:
		return &kitScreener{sim: s, name: StrategyBaseline, salt: StrategyBaseline,
			roundMinutes: s.KitRoundMinutes()}, nil
	case StrategySiliFuzz:
		return newSiliFuzzScreener(s), nil
	case StrategyITHICA:
		return newITHICAScreener(s), nil
	default:
		return nil, fmt.Errorf("fleet: unknown screening strategy %q (want one of %v)", strategy, Strategies())
	}
}

// FarronRoundShare is Farron's regular-round duration relative to the
// toolchain baseline's equal-allocation round: the paper's Figure 11 cost
// comparison (1.02 h per round against 10.55 h) — right-sized, prioritized
// test selection covering the same defect space in roughly a tenth of the
// machine time.
const FarronRoundShare = 1.02 / 10.55

// KitRoundMinutes is the machine time of one full equal-allocation kit
// round: every suite testcase at the regular stage's per-testcase budget
// (633 testcases × 1 min = 10.55 h — the paper's baseline round).
func (s *Simulator) KitRoundMinutes() float64 {
	sp, ok := s.RegularStage()
	if !ok {
		return 0
	}
	return float64(len(s.suite.Testcases)) * sp.PerTestcaseMin
}

// screenRng returns the per-CPU screening substream for a strategy salt.
// The empty salt is the legacy farron stream; named salts give each
// strategy an independent detection draw sequence for the same CPU.
func (s *Simulator) screenRng(salt, serial string) *simrand.Source {
	if salt == "" {
		return s.rng.Derive("screen", serial)
	}
	return s.rng.Derive("screen", salt, serial)
}

// kitScreener runs the fixed 633-case kit through the CPUScreen state
// machine — both reference strategies. Farron and the baseline share the
// detection engine (the paper's claim is precisely that Farron reaches
// comparable coverage, Figure 11) and differ in cost: the baseline spends
// the full equal-allocation round, farron a tenth of it.
type kitScreener struct {
	sim          *Simulator
	name         string
	salt         string
	roundMinutes float64
}

func (k *kitScreener) Strategy() string { return k.name }

func (k *kitScreener) NewScreen(serial string, arch model.MicroArch) Screen {
	p := k.sim.gen.Faulty(serial, arch)
	return k.sim.newScreenState(serial, arch, p, k.sim.screenRng(k.salt, serial))
}

func (k *kitScreener) Observe(Detection) {}
func (k *kitScreener) EndRound(int)      {}

func (k *kitScreener) Cost() CostModel { return CostModel{RoundMinutes: k.roundMinutes} }

// Outcome makes CPUScreen satisfy Screen.
func (cs *CPUScreen) Outcome() Outcome {
	return Outcome{
		Detected:   cs.Detected,
		Stage:      cs.Stage,
		TestcaseID: cs.TestcaseID,
		Rounds:     cs.Rounds,
		Profile:    cs.Profile,
	}
}

// suiteTestcases exposes the suite's testcase list to strategy
// implementations in this package.
func (s *Simulator) suiteTestcases() []*testkit.Testcase { return s.suite.Testcases }

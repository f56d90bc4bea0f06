// Resumable screening state. The one-shot Simulator.Run pushes every faulty
// CPU through the whole Figure 1 pipeline in a single call; the continuous
// screening service (internal/serve) instead needs to run pre-production at
// a CPU's birth and then one regular round per campaign, against a fleet
// that churns between campaigns. CPUScreen is that split: the per-CPU
// pipeline state — profile, compiled detection plan and the serial-keyed
// substream — packaged so screening can stop and resume at any round
// boundary. The one-shot path is expressed through the same state machine
// (see Simulator.screen), so batch and campaign-stepped screening share one
// draw discipline.
package fleet

import (
	"farron/internal/defect"
	"farron/internal/model"
	"farron/internal/simrand"
	"farron/internal/testkit"
)

// CPUScreen is one faulty processor's resumable screening state: which
// pipeline stages it has consumed, whether (and where) it was detected, and
// the substream the remaining rounds will draw from. All randomness derives
// from the CPU's serial, so a screen advanced campaign-by-campaign draws
// the same sequence regardless of how many campaigns separate the rounds.
type CPUScreen struct {
	// Serial is the CPU's fleet serial (also its substream key).
	Serial string
	// Arch is the micro-architecture the profile was generated for.
	Arch model.MicroArch
	// Profile is the generated defect profile.
	Profile *defect.Profile

	// Detected reports whether any consumed round caught the processor;
	// Stage and TestcaseID identify the first detection.
	Detected   bool
	Stage      model.Stage
	TestcaseID string
	// Rounds counts regular rounds consumed so far.
	Rounds int
	// PreProduced reports whether the pre-production stages have run.
	PreProduced bool

	sim     *Simulator
	rng     *simrand.Source
	plan    detectionPlan
	failing []*testkit.Testcase // reference-suite path only
}

// NewCPUScreen generates the faulty processor keyed by serial and returns
// its resumable screening state. Profile and substream derive from the
// serial exactly as the one-shot Run derives them, so a serve-driven fleet
// and a batch fleet generate identical processors for identical serials.
func (s *Simulator) NewCPUScreen(serial string, arch model.MicroArch) *CPUScreen {
	p := s.gen.Faulty(serial, arch)
	return s.newScreenState(serial, arch, p, s.rng.Derive("screen", serial))
}

// newScreenState wires an existing profile and substream into screening
// state; the failing set and compiled plan are pure functions of the
// profile, built once for the CPU's whole pipeline.
func (s *Simulator) newScreenState(serial string, arch model.MicroArch, p *defect.Profile, rng *simrand.Source) *CPUScreen {
	cs := &CPUScreen{Serial: serial, Arch: arch, Profile: p, sim: s, rng: rng}
	cs.failing = s.suite.FailingTestcases(p)
	if !s.suite.Reference() {
		cs.plan = s.compilePlan(p, cs.failing)
	}
	return cs
}

// round consumes one stage round: the stage temperature draw plus one
// detection draw per live (testcase, defect) setting, via the compiled plan
// or — under a reference suite — the retained naive scan. A detected screen
// consumes no further randomness: resumed or not, the draw sequence ends at
// the detecting round.
func (cs *CPUScreen) round(sp StageProfile) bool {
	if cs.Detected {
		return false
	}
	var tcID string
	var hit bool
	if cs.sim.suite.Reference() {
		tcID, hit = cs.sim.stageDetect(cs.rng, cs.Profile, cs.failing, sp)
	} else {
		tcID, hit = cs.plan.detect(cs.rng, sp)
	}
	if hit {
		cs.Detected = true
		cs.Stage = sp.Stage
		cs.TestcaseID = tcID
	}
	return hit
}

// PreProduction consumes every pre-production stage (factory, datacenter,
// re-installation — all configured stages except regular testing) in
// pipeline order, stopping at the first detection. It runs at most once;
// repeated calls report the stored outcome without drawing.
func (cs *CPUScreen) PreProduction() bool {
	if cs.PreProduced {
		return cs.Detected
	}
	cs.PreProduced = true
	for _, sp := range cs.sim.cfg.Stages {
		if sp.Stage == model.StageRegular {
			continue
		}
		if cs.round(sp) {
			return true
		}
	}
	return false
}

// PassPreProduction marks the pre-production stages consumed without
// drawing or detecting. It models a defect that develops in the field: the
// factory, datacenter and re-installation screens all ran at birth, but
// there was nothing there yet to catch — regular in-production rounds are
// the only chance left (the paper's motivation for in-field testing).
func (cs *CPUScreen) PassPreProduction() { cs.PreProduced = true }

// RegularRound consumes one regular in-production test round. Calling it on
// an already-detected screen is a no-op (no draws), so a campaign loop may
// sweep its whole fleet without tracking detection state itself.
func (cs *CPUScreen) RegularRound() bool {
	if cs.Detected {
		return false
	}
	sp, ok := cs.sim.RegularStage()
	if !ok {
		return false
	}
	cs.Rounds++
	return cs.round(sp)
}

// RegularStage returns the configured regular-testing stage profile,
// cached at construction (stages are frozen once the simulator is built).
func (s *Simulator) RegularStage() (StageProfile, bool) {
	return s.regularSP, s.hasRegular
}

// Mix returns the simulator's micro-architecture composition.
func (s *Simulator) Mix() []ArchShare { return s.cfg.Mix }

// Config returns the simulator's configuration.
func (s *Simulator) Config() Config { return s.cfg }

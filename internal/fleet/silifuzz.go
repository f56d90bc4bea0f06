// The SiliFuzz-style strategy: instead of sweeping the fixed 633-case
// manufacturer kit every round, screening runs a small corpus of proxy
// testcases that *evolves* from detection feedback ("SiliFuzz: Fuzzing
// CPUs by proxy"). A detection promotes the catching corpus entry and
// spawns a stress-sharpened mutant of it; entries that go rounds without
// catching anything decay back into fresh random picks from the kit, so
// the corpus keeps exploring.
//
// Determinism contract (see DESIGN.md "Screening strategies"): the corpus
// is read-only while a round's screens run in parallel — every CPU in a
// round sees the same suite — and mutates only in EndRound, on the serial
// merge path, from a substream keyed on the round index. Detections arrive
// in fleet serial order regardless of worker count, so corpus evolution —
// and therefore every later round's draw sequence — is byte-identical at a
// fixed seed across -workers, -fanout and -hosts.

package fleet

import (
	"hash/fnv"
	"math"
	"strconv"

	"farron/internal/defect"
	"farron/internal/model"
	"farron/internal/testkit"
)

const (
	// siliCorpusSize is the live corpus size — SiliFuzz keeps a small
	// distilled corpus per microarchitecture, not the whole kit.
	siliCorpusSize = 64
	// siliStaleRounds is how many consecutive rounds an entry may go
	// without a detection before it decays into a fresh random pick.
	siliStaleRounds = 3
	// siliBoostLo/Hi bound the per-mutation stress sharpening; siliBoostMax
	// caps the accumulated boost (the occurrence-rate cap makes further
	// sharpening pointless anyway).
	siliBoostLo  = 1.05
	siliBoostHi  = 1.50
	siliBoostMax = 8.0
)

// siliEntry is one corpus testcase: the kit testcase it proxies, the
// stress boost accumulated through mutation, and its feedback bookkeeping.
type siliEntry struct {
	tc    *testkit.Testcase
	boost float64
	hits  int
	idle  int
}

// siliFuzzScreener holds the evolving corpus. Screens hold a pointer to
// the screener and walk f.corpus live each round, so evolution between
// rounds is visible to every screen's next round.
type siliFuzzScreener struct {
	sim *Simulator
	// corpus is read-only during a round; mutated only in EndRound.
	corpus []siliEntry
	// pending are this round's detections (testcase IDs) in merge order.
	pending []string
	// generations counts EndRound evolutions applied so far.
	generations int
	// mutations counts EndRound steps that actually changed the corpus
	// composition (a spawned mutant or a stale-decay replacement). Screens
	// key their compiled per-CPU plans on it: generations advances every
	// round, but a plan only goes stale when an entry's testcase or boost
	// changed.
	mutations int
	// perEntryMin is the test time per corpus entry per round: the
	// farron-sized round budget spread over the corpus, so silifuzz
	// competes at farron's cost point with evolved (not fixed) coverage.
	perEntryMin  float64
	roundMinutes float64
}

func newSiliFuzzScreener(s *Simulator) *siliFuzzScreener {
	f := &siliFuzzScreener{sim: s, roundMinutes: s.KitRoundMinutes() * FarronRoundShare}
	tcs := s.suiteTestcases()
	k := siliCorpusSize
	if k > len(tcs) {
		k = len(tcs)
	}
	if k > 0 {
		rng := s.rng.Derive("silifuzz", "seed")
		f.corpus = make([]siliEntry, 0, k)
		for _, idx := range rng.PickN(len(tcs), k) {
			f.corpus = append(f.corpus, siliEntry{tc: tcs[idx], boost: 1})
		}
		f.perEntryMin = f.roundMinutes / float64(k)
	}
	return f
}

func (f *siliFuzzScreener) Strategy() string { return StrategySiliFuzz }

func (f *siliFuzzScreener) NewScreen(serial string, arch model.MicroArch) Screen {
	p := f.sim.gen.Faulty(serial, arch)
	cs := f.sim.newScreenState(serial, arch, p, f.sim.screenRng(StrategySiliFuzz, serial))
	ss := &siliScreen{CPUScreen: cs, scr: f, planGen: -1}
	if !f.sim.suite.Reference() {
		ss.compileCoefs()
	}
	return ss
}

func (f *siliFuzzScreener) Observe(d Detection) {
	// Pre-production detections come from the kit gates, not the corpus;
	// only corpus catches feed evolution.
	if d.TestcaseID == "" {
		return
	}
	f.pending = append(f.pending, d.TestcaseID)
}

// EndRound applies this round's feedback: promote catching entries, spawn
// sharpened mutants over the weakest slots, then decay stale entries into
// fresh kit picks. All randomness comes from a substream keyed on the
// round index — independent of how the round's screens were scheduled.
func (f *siliFuzzScreener) EndRound(round int) {
	if len(f.corpus) == 0 {
		return
	}
	rng := f.sim.rng.Derive("silifuzz", "evolve", strconv.Itoa(round))
	for i := range f.corpus {
		f.corpus[i].idle++
	}
	for _, id := range f.pending {
		i := f.entryByID(id)
		if i < 0 {
			continue // the catching entry was already evolved away this round
		}
		f.corpus[i].hits++
		f.corpus[i].idle = 0
		child := siliEntry{
			tc:    f.corpus[i].tc,
			boost: math.Min(f.corpus[i].boost*rng.Range(siliBoostLo, siliBoostHi), siliBoostMax),
		}
		if w := f.weakest(); w >= 0 {
			f.corpus[w] = child
			f.mutations++
		}
	}
	f.pending = f.pending[:0]
	tcs := f.sim.suiteTestcases()
	for i := range f.corpus {
		if f.corpus[i].idle >= siliStaleRounds {
			f.corpus[i] = siliEntry{tc: tcs[rng.Intn(len(tcs))], boost: 1}
			f.mutations++
		}
	}
	f.generations++
}

func (f *siliFuzzScreener) Cost() CostModel { return CostModel{RoundMinutes: f.roundMinutes} }

// entryByID returns the first corpus index proxying the testcase, -1 if
// the entry has been evolved away.
func (f *siliFuzzScreener) entryByID(id string) int {
	for i := range f.corpus {
		if f.corpus[i].tc.ID == id {
			return i
		}
	}
	return -1
}

// weakest returns the replacement slot for a spawned mutant: the entry
// longest without a detection, lowest hit count breaking ties, lowest
// index breaking those — never an entry promoted or spawned this round
// (idle 0). Returns -1 when every slot is hot.
func (f *siliFuzzScreener) weakest() int {
	best := -1
	for i := range f.corpus {
		if f.corpus[i].idle == 0 {
			continue
		}
		if best < 0 ||
			f.corpus[i].idle > f.corpus[best].idle ||
			(f.corpus[i].idle == f.corpus[best].idle && f.corpus[i].hits < f.corpus[best].hits) {
			best = i
		}
	}
	return best
}

// Generations reports how many evolution steps the corpus has applied.
func (f *siliFuzzScreener) Generations() int { return f.generations }

// CorpusFingerprint hashes the corpus composition (testcase IDs, boosts,
// hit counts, in slot order) — the determinism probe the stepped-vs-batch
// tests compare.
func (f *siliFuzzScreener) CorpusFingerprint() string {
	h := fnv.New64a()
	for i := range f.corpus {
		e := &f.corpus[i]
		h.Write([]byte(e.tc.ID))
		h.Write([]byte{0})
		h.Write([]byte(strconv.FormatFloat(e.boost, 'g', -1, 64)))
		h.Write([]byte{0})
		h.Write([]byte(strconv.Itoa(e.hits)))
		h.Write([]byte{1})
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// siliScreen screens one CPU against the live corpus. Pre-production runs
// the kit gates through the embedded CPUScreen (the factory/datacenter/
// re-installation pipeline is strategy-independent); regular rounds walk
// the corpus instead of the kit.
type siliScreen struct {
	*CPUScreen
	scr *siliFuzzScreener
	// coefs are the profile's temperature-independent per-defect rate
	// coefficients (best-core leading factor and saturation), compiled
	// once per CPU so re-compiling the corpus plan after an evolution
	// never re-derives them. Compiled-suite path only.
	coefs []siliDefectCoef
	// plan is the live corpus compiled against this CPU's profile into
	// the kit detection plan's entry form (plan.go); planGen is the
	// screener mutation count it was compiled at. The corpus is frozen
	// while a round's screens run, so the plan only goes stale when
	// EndRound actually changes corpus composition — idle rounds re-walk
	// the cached entries without touching DetectableBy or SettingStress.
	plan    detectionPlan
	planGen int
}

// siliDefectCoef is one profile defect's compiled rate coefficients: bm is
// BaseFreqPerMin·CoreMultiplier(bestCore), exactly planEntry's leading
// factor.
type siliDefectCoef struct {
	d     *defect.Defect
	bm    float64
	curve defect.RateCurve
}

// compileCoefs builds the per-defect coefficient table, dropping defects
// whose best-core multiplier is zero (their naive rate is identically zero
// at any temperature and stress, so they never consumed a draw).
func (ss *siliScreen) compileCoefs() {
	p := ss.Profile
	ss.coefs = make([]siliDefectCoef, 0, len(p.Defects))
	for _, d := range p.Defects {
		m := d.CoreMultiplier(bestCore(d, p.TotalPCores))
		if m == 0 {
			continue
		}
		ss.coefs = append(ss.coefs, siliDefectCoef{
			d: d, bm: d.BaseFreqPerMin * m, curve: d.RateCurve(),
		})
	}
}

// compilePlan compiles the current corpus against the screen's profile, in
// the naive draw order (corpus slots outer, defects inner). Every dropped
// setting — undetectable pair, non-positive boosted stress — had an
// identically-zero naive rate, so the compiled walk consumes the same
// draws. prev recycles the previous compilation's backing array.
func (ss *siliScreen) compilePlan(prev []planEntry) detectionPlan {
	entries := prev[:0]
	for i := range ss.scr.corpus {
		e := &ss.scr.corpus[i]
		for _, c := range ss.coefs {
			if !testkit.DetectableBy(e.tc, c.d) {
				continue
			}
			stress := testkit.SettingStress(e.tc, c.d) * e.boost
			if stress <= 0 {
				continue
			}
			entries = append(entries, planEntry{
				tcID: e.tc.ID, bm: c.bm, stress: stress, curve: c.curve,
			})
		}
	}
	return detectionPlan{entries: entries}
}

// RegularRound executes the current corpus against the processor: one
// stage temperature draw, then per (entry, defect) setting one detection
// draw at the entry's boosted stress over the per-entry time slice. Draw
// order is corpus slot order (a fuzzing run executes its corpus in order),
// defects inner — deterministic because the corpus is frozen for the
// round. The compiled path evaluates the cached plan through
// detectionPlan.detect under a synthetic profile carrying the per-entry
// time slice; a reference suite runs the retained naive walk.
func (ss *siliScreen) RegularRound() bool {
	cs := ss.CPUScreen
	if cs.Detected {
		return false
	}
	sp, ok := cs.sim.RegularStage()
	if !ok {
		return false
	}
	cs.Rounds++
	if cs.sim.suite.Reference() {
		return ss.naiveRound(sp)
	}
	if ss.planGen != ss.scr.mutations {
		ss.plan = ss.compilePlan(ss.plan.entries)
		ss.planGen = ss.scr.mutations
	}
	tcID, hit := ss.plan.detect(cs.rng, StageProfile{
		Stage:          sp.Stage,
		PerTestcaseMin: ss.scr.perEntryMin,
		MeanTempC:      sp.MeanTempC,
		TempSpreadC:    sp.TempSpreadC,
	})
	if hit {
		cs.Detected = true
		cs.Stage = sp.Stage
		cs.TestcaseID = tcID
	}
	return hit
}

// naiveRound is the retained reference-suite round: the per-pair
// RatePerMin walk the compiled plan reproduces draw-for-draw.
func (ss *siliScreen) naiveRound(sp StageProfile) bool {
	cs := ss.CPUScreen
	temp := cs.rng.Norm(sp.MeanTempC, sp.TempSpreadC)
	for i := range ss.scr.corpus {
		e := &ss.scr.corpus[i]
		for _, d := range cs.Profile.Defects {
			if !testkit.DetectableBy(e.tc, d) {
				continue
			}
			stress := testkit.SettingStress(e.tc, d) * e.boost
			rate := d.RatePerMin(bestCore(d, cs.Profile.TotalPCores), temp, stress)
			if rate <= 0 {
				continue
			}
			pDetect := 1 - math.Exp(-rate*ss.scr.perEntryMin)
			if cs.rng.Bool(pDetect) {
				cs.Detected = true
				cs.Stage = sp.Stage
				cs.TestcaseID = e.tc.ID
				return true
			}
		}
	}
	return false
}

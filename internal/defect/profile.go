package defect

import (
	"fmt"
	"math"

	"farron/internal/model"
	"farron/internal/simrand"
)

// Profile describes one faulty processor: its hardware identity plus its
// defects. The library below reproduces the ten processors of Table 3; the
// full study set adds generated processors to reach the paper's 27
// extensively-studied faulty CPUs (19 computation + 8 consistency).
type Profile struct {
	// CPUID is the processor's anonymized name (e.g. "MIX1").
	CPUID string
	// Arch is the micro-architecture (Table 2/3 naming).
	Arch model.MicroArch
	// AgeYears is the processor age at study time (Table 3).
	AgeYears float64
	// TotalPCores is the number of physical cores in the package.
	TotalPCores int
	// ThreadsPerCore is the SMT width (logical cores per physical core).
	ThreadsPerCore int
	// DefectivePCores is Table 3's #pcore: how many physical cores are
	// defective.
	DefectivePCores int
	// TargetErrCount is Table 3's #err: how many toolchain testcases
	// fail on this processor. The testkit calibrates the defect's
	// affected-instruction set to reproduce it.
	TargetErrCount int
	// ImpactedWorkloads describes the real-world workloads affected
	// (Table 3 display text).
	ImpactedWorkloads []string
	// Defects lists the hardware defects.
	Defects []*Defect
}

// Class returns the profile's defect class (all defects of one processor
// share a class, Observation 5).
func (p *Profile) Class() model.DefectClass {
	if len(p.Defects) == 0 {
		return model.ClassComputation
	}
	return p.Defects[0].Class
}

// Features returns the union of defective features in display order.
func (p *Profile) Features() []model.Feature {
	var out []model.Feature
	for _, f := range model.AllFeatures() {
		for _, d := range p.Defects {
			if d.AffectsFeature(f) {
				out = append(out, f)
				break
			}
		}
	}
	return out
}

// DataTypes returns the union of affected datatypes in display order.
func (p *Profile) DataTypes() []model.DataType {
	var out []model.DataType
	for _, dt := range model.AllDataTypes() {
		for _, d := range p.Defects {
			if d.AffectsDataType(dt) {
				out = append(out, dt)
				break
			}
		}
	}
	return out
}

// Validate checks the profile and all its defects.
func (p *Profile) Validate() error {
	if p.CPUID == "" {
		return fmt.Errorf("profile: empty CPUID")
	}
	if p.TotalPCores <= 0 {
		return fmt.Errorf("profile %s: no cores", p.CPUID)
	}
	if len(p.Defects) == 0 {
		return fmt.Errorf("profile %s: no defects", p.CPUID)
	}
	class := p.Defects[0].Class
	defective := map[int]bool{}
	for _, d := range p.Defects {
		if err := d.Validate(); err != nil {
			return fmt.Errorf("profile %s: %w", p.CPUID, err)
		}
		if d.Class != class {
			return fmt.Errorf("profile %s: mixed defect classes (Observation 5 violated)", p.CPUID)
		}
		for _, c := range d.DefectiveCores(p.TotalPCores) {
			if c < 0 || c >= p.TotalPCores {
				return fmt.Errorf("profile %s: defect %s core %d out of range", p.CPUID, d.ID, c)
			}
			defective[c] = true
		}
	}
	if len(defective) != p.DefectivePCores {
		return fmt.Errorf("profile %s: %d defective cores, declared %d", p.CPUID, len(defective), p.DefectivePCores)
	}
	return nil
}

// SettingPatternProb returns the pattern-match probability for a specific
// testcase on this defect, spreading the defect's base PatternProb across
// settings the way Figure 6 shows (values from 0 to ~0.96). Deterministic
// per (defect, testcase).
func (d *Defect) SettingPatternProb(testcaseID string, rng *simrand.Source) float64 {
	r := rng.Derive("setting-patprob", d.ID, testcaseID)
	// A small fraction of settings exhibit no stable pattern at all
	// (zeros in Figure 6).
	if r.Bool(0.12) {
		return 0
	}
	p := d.PatternProb + r.Norm(0, 0.18)
	return math.Max(0, math.Min(p, 0.96))
}

// instrSet builds an AffectedInstrs set from explicit IDs.
func instrSet(ids ...model.InstrID) model.InstrSet {
	var s model.InstrSet
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// iid is shorthand for constructing a virtual instruction ID.
func iid(c model.InstrClass, v int) model.InstrID { return model.InstrID{Class: c, Variant: v} }

// spreadCoreMult assigns per-core rate multipliers spanning up to three
// orders of magnitude (Observation 4: same testcases fail on every core but
// at frequencies differing by orders of magnitude). Core "anchor" keeps
// multiplier 1 so the headline rates stay interpretable.
func spreadCoreMult(rng *simrand.Source, id string, nCores, anchor int) map[int]float64 {
	var r simrand.Source
	rng.DeriveInto(&r, "coremult", id)
	m := make(map[int]float64, nCores)
	for c := 0; c < nCores; c++ {
		if c == anchor {
			m[c] = 1
			continue
		}
		m[c] = math.Pow(10, -r.Range(0, 3))
	}
	return m
}

// Library returns the ten named faulty processors of Table 3, with defect
// parameters calibrated so that the downstream experiments reproduce the
// paper's figures:
//
//   - MIX1/MIX2/CNST2 are all-core defects with order-of-magnitude per-core
//     rate spreads (Observation 4);
//   - FPU1/FPU2 share a defective arctangent virtual instruction
//     (fp-trig:17) — the Section 4.1 suspect;
//   - SIMD1's defective instruction is a vector fused multiply-add
//     (vec-muladd:9), which the toolchain pinpoints directly;
//   - SIMD2 and FPU4 are "tricky" defects: high minimum triggering
//     temperature, low base frequency (Figure 9's lower-right corner);
//   - CNST1 corrupts both cache coherence and transactional memory with no
//     attributable instruction (coherence is invisible to programs).
func Library(rng *simrand.Source) []*Profile {
	return []*Profile{
		{
			CPUID: "MIX1", Arch: "M2", AgeYears: 1.75,
			TotalPCores: 16, ThreadsPerCore: 2, DefectivePCores: 16, TargetErrCount: 25,
			ImpactedWorkloads: []string{
				"matrix calculation", "checksum calculation",
				"string manipulation", "large integer arithmetic",
			},
			Defects: []*Defect{{
				ID:    "MIX1-d0",
				Class: model.ClassComputation,
				Features: []model.Feature{
					model.FeatureALU, model.FeatureVecUnit, model.FeatureFPU,
				},
				DataTypes: []model.DataType{
					model.DTInt32, model.DTUint32, model.DTFloat32,
					model.DTFloat64, model.DTByte, model.DTBin16, model.DTBin32,
				},
				AffectedInstrs: instrSet(
					iid(model.InstrVecMulAdd, 3), iid(model.InstrIntArith, 11),
					iid(model.InstrFPArith, 21), iid(model.InstrBitOp, 7),
				),
				AllCores:       true,
				CoreMult:       spreadCoreMult(rng, "MIX1-d0", 16, 0),
				BaseFreqPerMin: 8, MinTempC: 46, TempSlope: 0.13, SatDecades: 3.2, UtilGain: 1.2,
				PatternProb: 0.62,
			}},
		},
		{
			CPUID: "MIX2", Arch: "M2", AgeYears: 0.92,
			TotalPCores: 16, ThreadsPerCore: 2, DefectivePCores: 16, TargetErrCount: 24,
			ImpactedWorkloads: []string{
				"matrix calculation", "checksum calculation",
				"bit operations", "hashing",
			},
			Defects: []*Defect{{
				ID:    "MIX2-d0",
				Class: model.ClassComputation,
				Features: []model.Feature{
					model.FeatureALU, model.FeatureVecUnit, model.FeatureFPU,
				},
				DataTypes: []model.DataType{
					model.DTInt16, model.DTInt32, model.DTUint32,
					model.DTFloat32, model.DTFloat64, model.DTBit,
					model.DTByte, model.DTBin16, model.DTBin32,
				},
				AffectedInstrs: instrSet(
					iid(model.InstrVecMisc, 14), iid(model.InstrIntArith, 5),
					iid(model.InstrBitOp, 19), iid(model.InstrFPArith, 8),
				),
				AllCores:       true,
				CoreMult:       spreadCoreMult(rng, "MIX2-d0", 16, 1),
				BaseFreqPerMin: 12, MinTempC: 44, TempSlope: 0.15, SatDecades: 3.2, UtilGain: 0.9,
				PatternProb: 0.58,
			}},
		},
		{
			CPUID: "SIMD1", Arch: "M2", AgeYears: 2.33,
			TotalPCores: 16, ThreadsPerCore: 2, DefectivePCores: 1, TargetErrCount: 5,
			ImpactedWorkloads: []string{"matrix calculation"},
			Defects: []*Defect{{
				ID:        "SIMD1-d0",
				Class:     model.ClassComputation,
				Features:  []model.Feature{model.FeatureVecUnit},
				DataTypes: []model.DataType{model.DTFloat32},
				// The toolchain preserves context here: a vector
				// instruction performing simultaneous multiply+add.
				AffectedInstrs: instrSet(iid(model.InstrVecMulAdd, 9)),
				Cores:          []int{5},
				BaseFreqPerMin: 30, MinTempC: 42, TempSlope: 0.10, SatDecades: 2.8, UtilGain: 0.6, ContextProb: 0.9,
				PatternProb: 0.82,
			}},
		},
		{
			CPUID: "SIMD2", Arch: "M5", AgeYears: 0.50,
			TotalPCores: 24, ThreadsPerCore: 2, DefectivePCores: 1, TargetErrCount: 1,
			ImpactedWorkloads: []string{"matrix calculation"},
			Defects: []*Defect{{
				ID:             "SIMD2-d0",
				Class:          model.ClassComputation,
				Features:       []model.Feature{model.FeatureVecUnit},
				DataTypes:      []model.DataType{model.DTFloat64},
				AffectedInstrs: instrSet(iid(model.InstrVecMulAdd, 27)),
				Cores:          []int{2},
				BaseFreqPerMin: 0.05, MinTempC: 62, TempSlope: 0.12, SatDecades: 1.0, UtilGain: 1.5,
				PatternProb: 0.7,
			}},
		},
		{
			CPUID: "FPU1", Arch: "M5", AgeYears: 0.58,
			TotalPCores: 24, ThreadsPerCore: 2, DefectivePCores: 1, TargetErrCount: 3,
			ImpactedWorkloads: []string{"floating-point computing", "mathematical function"},
			Defects: []*Defect{{
				ID:        "FPU1-d0",
				Class:     model.ClassComputation,
				Features:  []model.Feature{model.FeatureFPU},
				DataTypes: []model.DataType{model.DTFloat64, model.DTFloat64x},
				// Section 4.1: the arctangent instruction is the
				// suspect shared by FPU1 and FPU2.
				AffectedInstrs: instrSet(iid(model.InstrFPTrig, 17)),
				Cores:          []int{0},
				BaseFreqPerMin: 2, MinTempC: 48, TempSlope: 0.11, SatDecades: 2.8, UtilGain: 0.4, ContextProb: 0.15,
				PatternProb: 0.86,
			}},
		},
		{
			CPUID: "FPU2", Arch: "M5", AgeYears: 1.83,
			TotalPCores: 24, ThreadsPerCore: 2, DefectivePCores: 1, TargetErrCount: 3,
			ImpactedWorkloads: []string{"floating-point computing", "mathematical function"},
			Defects: []*Defect{{
				ID:             "FPU2-d0",
				Class:          model.ClassComputation,
				Features:       []model.Feature{model.FeatureFPU},
				DataTypes:      []model.DataType{model.DTFloat64, model.DTFloat64x},
				AffectedInstrs: instrSet(iid(model.InstrFPTrig, 17)),
				Cores:          []int{8},
				BaseFreqPerMin: 1.5, MinTempC: 47, TempSlope: 0.125, SatDecades: 3.2, UtilGain: 0.5, ContextProb: 0.15,
				PatternProb: 0.84,
			}},
		},
		{
			CPUID: "FPU3", Arch: "M3", AgeYears: 3.08,
			TotalPCores: 20, ThreadsPerCore: 2, DefectivePCores: 1, TargetErrCount: 2,
			ImpactedWorkloads: []string{"floating-point computing"},
			Defects: []*Defect{{
				ID:             "FPU3-d0",
				Class:          model.ClassComputation,
				Features:       []model.Feature{model.FeatureFPU},
				DataTypes:      []model.DataType{model.DTFloat64},
				AffectedInstrs: instrSet(iid(model.InstrFPArith, 30)),
				Cores:          []int{12},
				BaseFreqPerMin: 0.8, MinTempC: 50, TempSlope: 0.10, SatDecades: 2.8, UtilGain: 0.3,
				PatternProb: 0.75,
			}},
		},
		{
			CPUID: "FPU4", Arch: "M6", AgeYears: 1.62,
			TotalPCores: 28, ThreadsPerCore: 2, DefectivePCores: 1, TargetErrCount: 1,
			ImpactedWorkloads: []string{"floating-point computing"},
			Defects: []*Defect{{
				ID:             "FPU4-d0",
				Class:          model.ClassComputation,
				Features:       []model.Feature{model.FeatureFPU},
				DataTypes:      []model.DataType{model.DTFloat64},
				AffectedInstrs: instrSet(iid(model.InstrFPArith, 41)),
				Cores:          []int{19},
				BaseFreqPerMin: 0.02, MinTempC: 66, TempSlope: 0.15, SatDecades: 1.0, UtilGain: 1.0,
				PatternProb: 0.6,
			}},
		},
		{
			CPUID: "CNST1", Arch: "M2", AgeYears: 0.92,
			TotalPCores: 16, ThreadsPerCore: 2, DefectivePCores: 1, TargetErrCount: 9,
			ImpactedWorkloads: []string{"multi-thread lock", "transactional memory"},
			Defects: []*Defect{{
				ID:       "CNST1-d0",
				Class:    model.ClassConsistency,
				Features: []model.Feature{model.FeatureCache, model.FeatureTrxMem},
				// Cache coherence is invisible to programs; no single
				// instruction is attributable (Section 4.1). Seeds span
				// atomic and transactional traffic; calibration grows
				// the set across memory-traffic variants to Table 3's
				// error count.
				AffectedInstrs: instrSet(
					iid(model.InstrAtomic, 2), iid(model.InstrTrxRegion, 12),
				),
				Cores:          []int{3},
				BaseFreqPerMin: 5, MinTempC: 45, TempSlope: 0.10, SatDecades: 2.8, UtilGain: 1.8,
				PatternProb: 0, // consistency SDCs have no value pattern
			}},
		},
		{
			CPUID: "CNST2", Arch: "M3", AgeYears: 1.08,
			TotalPCores: 24, ThreadsPerCore: 2, DefectivePCores: 24, TargetErrCount: 8,
			ImpactedWorkloads: []string{"transactional memory"},
			Defects: []*Defect{{
				ID:       "CNST2-d0",
				Class:    model.ClassConsistency,
				Features: []model.Feature{model.FeatureTrxMem},
				// Section 4.1: instructions managing the transactional
				// region are the suspects.
				AffectedInstrs: instrSet(
					iid(model.InstrTrxRegion, 4), iid(model.InstrTrxRegion, 29),
				),
				AllCores:       true,
				CoreMult:       spreadCoreMult(rng, "CNST2-d0", 24, 2),
				BaseFreqPerMin: 1.2, MinTempC: 49, TempSlope: 0.12, SatDecades: 2.8, UtilGain: 1.4,
				PatternProb: 0,
			}},
		},
	}
}

// StudySet returns the paper's 27 extensively-studied faulty processors:
// the ten named Table 3 processors plus generated ones, preserving the
// paper's 19 computation / 8 consistency split and Figure 9's
// anti-correlation between base frequency and minimum triggering
// temperature.
func StudySet(rng *simrand.Source) []*Profile {
	out := Library(rng)
	// Named set: 8 computation + 2 consistency. Add 11 computation and
	// 6 consistency processors.
	gen := newGenerator(rng)
	for i := 0; i < 11; i++ {
		out = append(out, gen.study(fmt.Sprintf("COMP%d", i+1), model.ClassComputation))
	}
	for i := 0; i < 6; i++ {
		out = append(out, gen.study(fmt.Sprintf("CONS%d", i+1), model.ClassConsistency))
	}
	ensureDataTypeCoverage(out)
	return out
}

// ensureDataTypeCoverage guarantees the study set exercises every datatype
// the toolchain tests (Observation 6: "SDCs have been confirmed to affect
// operations on all tested data types"): any datatype not yet covered is
// added to a generated computation profile whose features can produce it.
func ensureDataTypeCoverage(profiles []*Profile) {
	covered := map[model.DataType]bool{}
	for _, p := range profiles {
		for _, dt := range p.DataTypes() {
			covered[dt] = true
		}
	}
	for _, dt := range model.AllDataTypes() {
		if covered[dt] {
			continue
		}
		// Spread the datatype across up to three capable profiles so
		// per-datatype statistics (Figures 4, 5, 7) aggregate several
		// independent defects' patterns, as the paper's do.
		added := 0
		for _, p := range profiles {
			if added >= 3 {
				break
			}
			if p.Class() != model.ClassComputation || !generated(p) {
				continue
			}
			pool, _ := datatypePool(p.Features())
			for _, cand := range pool {
				if cand == dt {
					p.Defects[0].DataTypes = append(p.Defects[0].DataTypes, dt)
					covered[dt] = true
					added++
					break
				}
			}
		}
	}
}

// generated reports whether the profile is a synthetic study profile (not
// one of the named Table 3 processors, whose datatype lists are fixed).
func generated(p *Profile) bool {
	return len(p.CPUID) > 4 && (p.CPUID[:4] == "COMP" || p.CPUID[:4] == "CONS")
}

// generator creates randomized faulty-processor profiles for the study set
// and the fleet population.
type generator struct {
	rng *simrand.Source
}

func newGenerator(rng *simrand.Source) *generator {
	return &generator{rng: rng.Derive("defect-generator")}
}

// archCores maps each micro-architecture to its core count and SMT width
// (newer architectures have more cores).
func archCores(arch model.MicroArch) (pcores, threads int) {
	switch arch {
	case "M1":
		return 8, 2
	case "M2":
		return 16, 2
	case "M3":
		return 20, 2
	case "M4":
		return 24, 2
	case "M5":
		return 24, 2
	case "M6":
		return 28, 2
	case "M7":
		return 32, 2
	case "M8":
		return 32, 2
	case "M9":
		return 36, 2
	default:
		return 16, 2
	}
}

// freqForMinTemp draws log10(λ₀) from the Figure 9 relation:
// log10 λ₀ ≈ 2.0 − 0.11·(Tmin − 40) + noise, Pearson r ≈ −0.83.
func (g *generator) freqForMinTemp(r *simrand.Source, minTemp float64) float64 {
	logf := 2.0 - 0.11*(minTemp-40) + r.Norm(0, 0.55)
	return math.Pow(10, logf)
}

// study generates one study-set profile of the given class.
func (g *generator) study(id string, class model.DefectClass) *Profile {
	p, anchor := g.draw(id, class)
	if d := p.Defects[0]; d.AllCores {
		d.CoreMult = spreadCoreMult(g.rng, d.ID, p.TotalPCores, anchor)
	}
	return p
}

// draw makes every study-profile draw but leaves an all-core defect's
// CoreMult unset, returning its anchor core instead: spreadCoreMult draws
// from its own substream, so the fleet, which re-fits cores to its own
// arch, can skip the study arch's multipliers without moving a draw.
func (g *generator) draw(id string, class model.DefectClass) (*Profile, int) {
	var rs simrand.Source
	r := &rs
	g.rng.DeriveInto(r, "study", id)
	arch := model.AllMicroArchs()[r.Intn(9)]
	pcores, threads := archCores(arch)

	minTemp := r.Range(40, 75)
	base := g.freqForMinTemp(r, minTemp)

	var features []model.Feature
	var datatypes []model.DataType
	var classBuf [4]model.InstrClass
	classes := classBuf[:0]
	if class == model.ClassComputation {
		pool := []model.Feature{model.FeatureALU, model.FeatureVecUnit, model.FeatureFPU}
		features = append(make([]model.Feature, 0, 2), pool[r.Intn(3)])
		if r.Bool(0.3) {
			f2 := pool[r.Intn(3)]
			if f2 != features[0] {
				features = append(features, f2)
			}
		}
		// Datatypes must be producible by the defective features (an
		// ALU defect corrupts integer/bit results; FPU and vector-FP
		// defects corrupt floats). Observation 6's float dominance
		// comes from the weights: FP-capable features are both more
		// common and more float-heavy.
		dtPool, weights := datatypePool(features)
		n := 1 + r.Intn(4)
		if n > len(dtPool) {
			n = len(dtPool)
		}
		datatypes = make([]model.DataType, 0, n)
		for len(datatypes) < n {
			i := r.WeightedChoice(weights)
			weights[i] = 0
			datatypes = append(datatypes, dtPool[i])
		}
		for _, f := range features {
			switch f {
			case model.FeatureALU:
				classes = append(classes, model.InstrIntArith, model.InstrBitOp)
			case model.FeatureVecUnit:
				classes = append(classes, model.InstrVecMulAdd, model.InstrVecMisc)
			case model.FeatureFPU:
				classes = append(classes, model.InstrFPArith, model.InstrFPTrig)
			}
		}
	} else {
		cache := r.Bool(0.5)
		switch {
		case r.Bool(0.25):
			features = []model.Feature{model.FeatureCache, model.FeatureTrxMem}
			classes = append(classes, model.InstrAtomic, model.InstrLoadStore, model.InstrTrxRegion)
		case cache:
			features = []model.Feature{model.FeatureCache}
			classes = append(classes, model.InstrAtomic, model.InstrLoadStore)
		default:
			features = []model.Feature{model.FeatureTrxMem}
			classes = append(classes, model.InstrTrxRegion)
		}
	}

	var instrs model.InstrSet
	for _, c := range classes {
		n := 1 + r.Intn(2)
		for _, v := range r.PickN(model.InstrVariants, n) {
			instrs.Add(model.InstrID{Class: c, Variant: v})
		}
	}

	// Apparent defects (low threshold) saturate high; tricky ones (the
	// upper-right of Figure 9) saturate low, which is what lets them
	// escape single test rounds even under burn-in heat.
	sat := r.Range(2.0, 3.5)
	if minTemp > 58 {
		sat = r.Range(0.8, 1.8)
	}
	d := &Defect{
		ID:             id + "-d0",
		Class:          class,
		Features:       features,
		DataTypes:      datatypes,
		AffectedInstrs: instrs,
		BaseFreqPerMin: base,
		MinTempC:       minTemp,
		TempSlope:      r.Range(0.08, 0.2),
		SatDecades:     sat,
		UtilGain:       r.Range(0, 2),
		PatternProb:    0,
	}
	if class == model.ClassComputation {
		d.PatternProb = r.Range(0.3, 0.9)
	}

	// Observation 4: about half of faulty processors have all cores
	// defective.
	allCores := r.Bool(0.5)
	defective, anchor := 1, 0
	if allCores {
		d.AllCores = true
		anchor = r.Intn(pcores)
		defective = pcores
	} else {
		d.Cores = []int{r.Intn(pcores)}
	}

	return &Profile{
		CPUID: id, Arch: arch,
		AgeYears:    r.Range(0.3, 3.5),
		TotalPCores: pcores, ThreadsPerCore: threads,
		DefectivePCores:   defective,
		TargetErrCount:    1 + r.Intn(10),
		ImpactedWorkloads: []string{"synthetic study workload"},
		Defects:           []*Defect{d},
	}, anchor
}

// vulnerablePoolSize is how many virtual instructions per class a given
// micro-architecture's silicon is weak in. Section 6.1 observes that "a
// specific type or batch of CPUs may be vulnerable in the same way", which
// is why most testcases never fire (Observation 11): fleet defects cluster
// on a small arch-specific set of weak instructions.
const vulnerablePoolSize = 2

// vulnPools holds one arch's weak variants for every instruction class.
type vulnPools [model.NumInstrClasses][vulnerablePoolSize]int

// vulnerablePools returns the arch's weak variants for each instruction
// class, deterministically from the generator seed.
func (g *generator) vulnerablePools(arch model.MicroArch) *vulnPools {
	var pools vulnPools
	for c := range pools {
		r := g.rng.Derive("vuln-pool", string(arch), model.InstrClass(c).String())
		copy(pools[c][:], r.PickN(model.InstrVariants, vulnerablePoolSize))
	}
	return &pools
}

// datatypePool returns the datatypes a defect with the given features can
// corrupt, with draw weights. The pools mirror the datatypes testcases of
// those features validate (testkit's feature→datatype map).
func datatypePool(features []model.Feature) (pool []model.DataType, weights []float64) {
	pool = make([]model.DataType, 0, model.NumDataTypes)
	weights = make([]float64, 0, model.NumDataTypes)
	add := func(dt model.DataType, w float64) {
		for i, p := range pool {
			if p == dt {
				if w > weights[i] {
					weights[i] = w
				}
				return
			}
		}
		pool = append(pool, dt)
		weights = append(weights, w)
	}
	for _, f := range features {
		switch f {
		case model.FeatureALU:
			add(model.DTInt16, 0.8)
			add(model.DTInt32, 1.2)
			add(model.DTUint32, 0.9)
			add(model.DTBit, 0.5)
			add(model.DTByte, 0.8)
			add(model.DTBin8, 0.5)
			add(model.DTBin16, 0.6)
			add(model.DTBin32, 0.9)
			add(model.DTBin64, 0.7)
		case model.FeatureVecUnit:
			add(model.DTFloat32, 2.6)
			add(model.DTFloat64, 3.0)
			add(model.DTInt32, 1.0)
			add(model.DTUint32, 0.8)
			add(model.DTInt16, 0.6)
			add(model.DTBin32, 0.7)
			add(model.DTBin64, 0.6)
		case model.FeatureFPU:
			add(model.DTFloat32, 2.4)
			add(model.DTFloat64, 3.0)
			add(model.DTFloat64x, 1.4)
		}
	}
	return pool, weights
}

// FleetGenerator generates the fleet population's faulty-processor
// profiles: the study-set machinery keyed by processor serial, so each
// faulty CPU in the million-CPU fleet is unique and reproducible, with
// affected instructions drawn from the arch's vulnerable pool. The pools
// are pure functions of the seed, built once here instead of per CPU.
//
//sdclint:frozen read-only after NewFleetGenerator; shared across the screening pool
type FleetGenerator struct {
	g     *generator
	pools map[model.MicroArch]*vulnPools
}

// NewFleetGenerator builds the generator for the fleet seeded by rng,
// precomputing the vulnerable pool of every AllMicroArchs arch and class.
func NewFleetGenerator(rng *simrand.Source) *FleetGenerator {
	fg := &FleetGenerator{g: newGenerator(rng), pools: map[model.MicroArch]*vulnPools{}}
	for _, arch := range model.AllMicroArchs() {
		fg.pools[arch] = fg.g.vulnerablePools(arch)
	}
	return fg
}

// Faulty generates the faulty-processor profile of the CPU with the given
// serial and arch. It is safe for concurrent use.
func (fg *FleetGenerator) Faulty(serial string, arch model.MicroArch) *Profile {
	var r simrand.Source
	return fg.faulty(&r, serial, arch)
}

// faulty is Faulty drawing the fleet-stage draws from r, which it derives
// from the serial; r is left after the last draw.
func (fg *FleetGenerator) faulty(r *simrand.Source, serial string, arch model.MicroArch) *Profile {
	fg.g.rng.DeriveInto(r, "fleet", serial)
	class := model.ClassComputation
	// Study set split 19/27 computation.
	if r.Bool(8.0 / 27.0) {
		class = model.ClassConsistency
	}
	p, _ := fg.g.draw(serial, class)
	p.Arch = arch
	pcores, threads := archCores(arch)
	p.TotalPCores, p.ThreadsPerCore = pcores, threads
	d := p.Defects[0]
	// Re-draw the affected instructions from the arch's vulnerable pools
	// (batch clustering), preserving the classes the defect touches.
	pools := fg.poolsOf(arch)
	var buf [16]model.InstrID
	var clustered model.InstrSet
	for _, id := range d.AffectedInstrs.AppendIDs(buf[:0]) {
		pool := &pools[id.Class]
		v := pool[r.Intn(len(pool))]
		clustered.Add(model.InstrID{Class: id.Class, Variant: v})
	}
	d.AffectedInstrs = clustered
	// Re-fit core scope to the arch's core count.
	if d.AllCores {
		d.CoreMult = spreadCoreMult(fg.g.rng, d.ID, pcores, r.Intn(pcores))
		p.DefectivePCores = pcores
	} else {
		d.Cores[0] = r.Intn(pcores)
		p.DefectivePCores = 1
	}
	return p
}

// poolsOf returns the arch's vulnerable pools: precomputed for the known
// archs, derived on the spot (the same draws) for any other.
func (fg *FleetGenerator) poolsOf(arch model.MicroArch) *vulnPools {
	if pools, ok := fg.pools[arch]; ok {
		return pools
	}
	return fg.g.vulnerablePools(arch)
}

// Package defect parameterizes processor hardware defects: which features,
// instructions, cores and datatypes a defect corrupts, and how its SDC
// occurrence rate responds to temperature and instruction-usage stress
// (Sections 3-5 of the paper).
//
// The central quantity is the occurrence frequency λ (errors per minute) of
// a setting — a (testcase, processor, core) combination:
//
//	λ(T, s) = 0                                       if T < MinTempC
//	        = λ₀ · 10^{TempSlope·(T−MinTempC)} · s     otherwise
//
// where T is the core temperature and s is the relative usage stress of the
// defective instructions in the running workload. λ₀ anti-correlates with
// MinTempC across defects (Figure 9): defects that need heat are also rare.
package defect

import (
	"fmt"
	"math"
	"sort"

	"farron/internal/inject"
	"farron/internal/model"
	"farron/internal/simrand"
)

// MeasurableFreqPerMin is the occurrence frequency below which a setting is
// effectively unobservable in bounded tests (used to derive a setting's
// observed minimum triggering temperature).
const MeasurableFreqPerMin = 1e-3

// MaxFreqPerMin caps the occurrence frequency. The paper observes settings
// from 0.01 up to "hundreds of times per minute" (Observation 9); the
// exponential temperature response saturates — an instruction executed a
// bounded number of times per minute can only fail that often.
const MaxFreqPerMin = 500

// Defect describes one hardware defect on a processor.
type Defect struct {
	// ID is unique within the processor (e.g. "MIX1-d0").
	ID string
	// Class is computation or consistency.
	Class model.DefectClass
	// Features lists the processor features the defect corrupts. All
	// belong to Class (Observation 5).
	Features []model.Feature
	// DataTypes lists operand datatypes whose results can be corrupted.
	// Empty for consistency defects (their records carry no value
	// pattern, Section 4.2).
	DataTypes []model.DataType
	// AffectedInstrs is the set of defective virtual instructions.
	AffectedInstrs model.InstrSet

	// AllCores reports a defect present in every physical core
	// (Observation 4: about half of faulty processors).
	AllCores bool
	// Cores lists the defective physical cores when !AllCores.
	Cores []int
	// CoreMult scales the base rate per physical core. For AllCores
	// defects the multipliers span orders of magnitude (Observation 4),
	// making some defective cores very hard to detect. A missing entry
	// means multiplier 1.
	CoreMult map[int]float64

	// BaseFreqPerMin is λ₀: errors/minute at MinTempC under unit stress.
	BaseFreqPerMin float64
	// MinTempC is the hard minimum triggering temperature.
	MinTempC float64
	// TempSlope is the exponential response, in decades per ℃
	// (Observation 10 / Figure 8).
	TempSlope float64
	// SatDecades caps the exponential growth at λ₀·10^SatDecades: a
	// defective circuit fails at most as often as it is exercised, so
	// the temperature response saturates. Tricky defects saturate low —
	// that is why they need "both high temperature and long-term
	// testing" (Section 7.2) and escape one test round even at burn-in
	// heat. Zero means the generous default of 3.5 decades.
	SatDecades float64
	// UtilGain is the package-utilization sensitivity: the Section 5
	// separation experiment shows occurrence frequency rising with CPU
	// utilization even at constant temperature (shared power-delivery /
	// contention stress). The effective rate is multiplied by
	// 1 + UtilGain·pkgUtil.
	UtilGain float64
	// ContextProb is the probability the toolchain preserves execution
	// context for an SDC and reports the incorrect instruction directly
	// (Section 4.1; high for SIMD1, where a vector multiply-add was
	// pinpointed without statistical work).
	ContextProb float64

	// PatternProb is the probability an SDC matches one of the defect's
	// fixed bitflip masks (Figure 6).
	PatternProb float64

	corruptors map[model.DataType]*inject.Corruptor
}

// Validate checks internal consistency and returns a descriptive error.
func (d *Defect) Validate() error {
	if d.ID == "" {
		return fmt.Errorf("defect: empty ID")
	}
	if len(d.Features) == 0 {
		return fmt.Errorf("defect %s: no features", d.ID)
	}
	for _, f := range d.Features {
		if model.ClassOf(f) != d.Class {
			return fmt.Errorf("defect %s: feature %v not in class %v (Observation 5 violated)", d.ID, f, d.Class)
		}
	}
	if d.Class == model.ClassComputation && len(d.DataTypes) == 0 {
		return fmt.Errorf("defect %s: computation defect without datatypes", d.ID)
	}
	if !d.AllCores && len(d.Cores) == 0 {
		return fmt.Errorf("defect %s: no cores", d.ID)
	}
	if d.BaseFreqPerMin <= 0 {
		return fmt.Errorf("defect %s: non-positive base frequency", d.ID)
	}
	if d.TempSlope < 0 {
		return fmt.Errorf("defect %s: negative temperature slope", d.ID)
	}
	if d.PatternProb < 0 || d.PatternProb > 1 {
		return fmt.Errorf("defect %s: pattern probability out of range", d.ID)
	}
	return nil
}

// AffectsCore reports whether physical core idx is defective.
func (d *Defect) AffectsCore(idx int) bool {
	if d.AllCores {
		return true
	}
	for _, c := range d.Cores {
		if c == idx {
			return true
		}
	}
	return false
}

// AffectsFeature reports whether the defect corrupts feature f.
func (d *Defect) AffectsFeature(f model.Feature) bool {
	for _, x := range d.Features {
		if x == f {
			return true
		}
	}
	return false
}

// AffectsDataType reports whether results of datatype dt can be corrupted.
func (d *Defect) AffectsDataType(dt model.DataType) bool {
	for _, x := range d.DataTypes {
		if x == dt {
			return true
		}
	}
	return false
}

// CoreMultiplier returns the rate multiplier of physical core idx (1 when
// unset, 0 when the core is not defective at all).
func (d *Defect) CoreMultiplier(idx int) float64 {
	if !d.AffectsCore(idx) {
		return 0
	}
	if m, ok := d.CoreMult[idx]; ok {
		return m
	}
	return 1
}

// RatePerMin returns the SDC occurrence frequency (errors per minute) for
// physical core idx at core temperature tempC under relative instruction
// usage stress (1 = nominal heavy usage of the defective instructions;
// several orders of magnitude lower for workloads that touch them rarely).
func (d *Defect) RatePerMin(idx int, tempC, stress float64) float64 {
	// Below the trigger the rate is zero on every core: skip the lookup.
	if tempC < d.MinTempC || stress <= 0 {
		return 0
	}
	c := d.RateCurve()
	return c.Rate(d.BaseFreqPerMin*d.CoreMultiplier(idx), tempC, stress)
}

// RateCurve is the temperature response of λ(T, stress) with the defect's
// constants hoisted: the one formula RatePerMin, the compiled hot paths and
// the detection plans all evaluate. It is pure and safe to share.
type RateCurve struct {
	minTempC, slope, sat float64
}

// RateCurve compiles the defect's temperature response.
func (d *Defect) RateCurve() RateCurve {
	return RateCurve{minTempC: d.MinTempC, slope: d.TempSlope, sat: d.satDecades()}
}

// Rate returns RatePerMin's value for a core whose leading factor is
// bm = BaseFreqPerMin·CoreMultiplier(core). It evaluates
// ((bm·10^expo)·stress) in RatePerMin's association, so the result is
// bit-identical, not just mathematically equal.
func (c *RateCurve) Rate(bm, tempC, stress float64) float64 {
	if tempC < c.minTempC || stress <= 0 || bm == 0 {
		return 0
	}
	return min(bm*math.Pow(10, c.exponent(tempC))*stress, MaxFreqPerMin)
}

// exponent returns the saturated decades above the trigger at tempC.
func (c *RateCurve) exponent(tempC float64) float64 {
	return min(c.slope*(tempC-c.minTempC), c.sat)
}

// RateKernel is a RateCurve with a one-entry memo of the 10^expo factor:
// a hot loop whose temperature saturates or repeats skips math.Pow. A hit
// needs an equal exponent and returns the bits Pow returned for it, so
// Rate stays bit-identical to RateCurve.Rate. The memo makes a kernel
// mutable: keep one per goroutine (a runner arena, a loop-local slice),
// never in shared or frozen state.
type RateKernel struct {
	curve RateCurve
	// expo and pow are the memo, pow == math.Pow(10, expo). The initial
	// entry is exact because math.Pow(10, 0) == 1.
	expo, pow float64
}

// RateKernel compiles the defect's memoized rate kernel.
func (d *Defect) RateKernel() RateKernel {
	return RateKernel{curve: d.RateCurve(), pow: 1}
}

// Rate is RateCurve.Rate through the memo.
func (k *RateKernel) Rate(bm, tempC, stress float64) float64 {
	if tempC < k.curve.minTempC || stress <= 0 || bm == 0 {
		return 0
	}
	if expo := k.curve.exponent(tempC); expo != k.expo {
		k.expo, k.pow = expo, math.Pow(10, expo)
	}
	return min(bm*k.pow*stress, MaxFreqPerMin)
}

// satDecades returns the effective saturation (default 3.5 decades).
func (d *Defect) satDecades() float64 {
	if d.SatDecades > 0 {
		return d.SatDecades
	}
	return 3.5
}

// ObservedMinTemp returns the setting-level minimum triggering temperature:
// the lowest core temperature at which the setting's occurrence frequency
// reaches MeasurableFreqPerMin. Low-stress settings therefore show a higher
// observed threshold than the defect's physical MinTempC — the mechanism
// behind the per-setting spread of Figure 9.
func (d *Defect) ObservedMinTemp(idx int, stress float64) float64 {
	base := d.BaseFreqPerMin * d.CoreMultiplier(idx) * stress
	if base <= 0 {
		return math.Inf(1)
	}
	if base >= MeasurableFreqPerMin {
		return d.MinTempC
	}
	if d.TempSlope == 0 {
		return math.Inf(1)
	}
	// Solve base·10^{slope·(T-Tmin)} = measurable, respecting the
	// saturation ceiling: a setting whose saturated rate never reaches
	// the measurable threshold is unobservable at any temperature.
	decades := math.Log10(MeasurableFreqPerMin / base)
	if decades > d.satDecades() {
		return math.Inf(1)
	}
	return d.MinTempC + decades/d.TempSlope
}

// Stress computes the relative usage stress of the defect's instructions in
// a workload described by its instruction mix (usage count per loop
// iteration per virtual instruction), normalized by nominalUsage — the
// per-iteration usage a dedicated stress testcase would have.
func (d *Defect) Stress(mix map[model.InstrID]float64, nominalUsage float64) float64 {
	if nominalUsage <= 0 {
		return 0
	}
	total := 0.0
	for id, usage := range mix {
		if d.AffectedInstrs.Has(id) {
			total += usage
		}
	}
	return total / nominalUsage
}

// Corruptor returns (building lazily) the corruptor for datatype dt, or nil
// if the defect does not affect dt. Masks are derived deterministically
// from the defect ID so a defect's bitflip patterns are stable across runs
// (Observation 8).
func (d *Defect) Corruptor(dt model.DataType, rng *simrand.Source) *inject.Corruptor {
	if !d.AffectsDataType(dt) {
		return nil
	}
	if d.corruptors == nil {
		d.corruptors = map[model.DataType]*inject.Corruptor{}
	}
	if c, ok := d.corruptors[dt]; ok {
		return c
	}
	mrng := rng.Derive("defect-masks", d.ID, dt.String())
	nPatterns := 1 + mrng.Intn(3)
	if !dt.Numeric() {
		// Non-numerical blobs accumulate more distinct patterns (one
		// per corrupted instruction combination, Observation 8), which
		// is what makes Figure 5's position distribution flat.
		nPatterns += dt.Bits() / 16
	}
	masks := make([]inject.Mask, 0, nPatterns)
	for i := 0; i < nPatterns; i++ {
		// Observation 8 / Figure 7: mostly single-bit masks, some
		// double, occasionally more — and the multi-bit masks carry
		// less selection weight.
		nbits := 1
		weight := mrng.Range(0.8, 2)
		switch {
		case mrng.Bool(0.04):
			nbits = 3
			weight = mrng.Range(0.1, 0.5)
		case mrng.Bool(0.12):
			nbits = 2
			weight = mrng.Range(0.2, 0.8)
		}
		if nbits > dt.Bits() {
			nbits = dt.Bits()
		}
		lo, hi := inject.GenerateMask(mrng, dt, nbits)
		masks = append(masks, inject.Mask{Lo: lo, Hi: hi, Weight: weight})
	}
	c := inject.NewCorruptor(dt, masks, d.PatternProb)
	d.corruptors[dt] = c
	return c
}

// SortedInstrs returns the affected instructions in (class, variant) order.
func (d *Defect) SortedInstrs() []model.InstrID {
	return d.AffectedInstrs.AppendIDs(make([]model.InstrID, 0, d.AffectedInstrs.Len()))
}

// DefectiveCores returns the sorted list of defective physical cores given
// the processor's total core count.
func (d *Defect) DefectiveCores(totalCores int) []int {
	if d.AllCores {
		out := make([]int, totalCores)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := append([]int(nil), d.Cores...)
	sort.Ints(out)
	return out
}

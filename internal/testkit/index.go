// Hot-path compilation, suite side (see DESIGN.md "Hot-path compilation"):
// the suite-build-time indexes that turn the screening and runner inner
// loops from map scans into slice walks. Everything here is precomputed
// once in NewSuite and read-only afterwards, so it rides on the suite's
// immutability contract; a suite built by NewReferenceSuite skips the
// indexes entirely and every consumer falls back to the retained naive
// scan, which is what the compiled-vs-reference determinism test diffs
// against.

package testkit

import (
	"sort"

	"farron/internal/defect"
	"farron/internal/model"
)

// InstrUsage is one entry of a testcase's flattened instruction mix: a
// virtual instruction and its per-iteration usage count.
type InstrUsage struct {
	Instr model.InstrID
	Usage float64
}

// flattenMix flattens a usage-mix map into a slice sorted by instruction
// (class, then variant). The fixed order is what lets flat-mix consumers
// iterate without the map-order hazards the naive paths dodge per call.
func flattenMix(mix map[model.InstrID]float64) []InstrUsage {
	out := make([]InstrUsage, 0, len(mix))
	for id, usage := range mix {
		out = append(out, InstrUsage{Instr: id, Usage: usage})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Instr.Class != out[j].Instr.Class {
			return out[i].Instr.Class < out[j].Instr.Class
		}
		return out[i].Instr.Variant < out[j].Instr.Variant
	})
	return out
}

// FlatMix returns the testcase's mix flattened into a slice sorted by
// instruction. For suite testcases the slice is built once at construction
// and shared — callers must not mutate it.
func (tc *Testcase) FlatMix() []InstrUsage {
	if tc.flatMix != nil {
		return tc.flatMix
	}
	return flattenMix(tc.Mix)
}

// buildIndex precomputes the suite's query indexes after generation: each
// testcase's flattened mix and suite position, the instruction → users
// inverted index behind InstrUsers and FailingTestcases, and the feature →
// testcases index behind ByFeature. NewReferenceSuite skips this.
func (s *Suite) buildIndex() {
	s.instrUsers = make([][]*Testcase, model.NumInstrs)
	s.byFeature = map[model.Feature][]*Testcase{}
	for i, tc := range s.Testcases {
		tc.ord = i
		tc.flatMix = flattenMix(tc.Mix)
		s.byFeature[tc.Feature] = append(s.byFeature[tc.Feature], tc)
		for _, u := range tc.flatMix {
			if i, ok := u.Instr.Index(); ok && u.Usage > 0 {
				s.instrUsers[i] = append(s.instrUsers[i], tc)
				tc.uses.Add(u.Instr)
			}
		}
	}
}

// detectableFlat is DetectableBy over the suite index: identical result,
// no map iteration — the overlap test intersects the testcase's used-
// instruction set with the defect's affected set, word by word.
func detectableFlat(tc *Testcase, d *defect.Defect) bool {
	if d.Class == model.ClassConsistency && !tc.MultiThreaded {
		return false
	}
	if !tc.uses.Intersects(&d.AffectedInstrs) {
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

// settingStressFlat is Defect.Stress over the flattened mix. The affected
// usages are summed in the flat (sorted) order; the committed golden
// outputs and the cross-process fan-out equality pin that the sum is
// order-insensitive for every setting in play, and the compiled-vs-
// reference determinism test re-checks it against the map-order sum.
func settingStressFlat(tc *Testcase, d *defect.Defect) float64 {
	total := 0.0
	for i := range tc.flatMix {
		if d.AffectedInstrs.Has(tc.flatMix[i].Instr) {
			total += tc.flatMix[i].Usage
		}
	}
	return total / NominalUsage
}

package testkit

import (
	"math/bits"
	"sort"

	"farron/internal/defect"
	"farron/internal/model"
)

// FailingTestcases returns the testcases that can detect at least one of
// the profile's defects (the processor's #err set of Table 3), in suite
// order. With the suite's inverted instruction index it marks only the
// testcases sharing an instruction with some defect, in a stack bitset
// over suite positions, and confirms those; a reference suite falls back
// to the full 633×defects scan.
func (s *Suite) FailingTestcases(p *defect.Profile) []*Testcase {
	if s.instrUsers == nil {
		return s.failingTestcasesScan(p)
	}
	var marks [(SuiteSize + 63) / 64]uint64
	var buf [16]model.InstrID
	n := 0
	for _, d := range p.Defects {
		for _, id := range d.AffectedInstrs.AppendIDs(buf[:0]) {
			i, _ := id.Index() // AppendIDs yields in-range IDs only
			for _, tc := range s.instrUsers[i] {
				w, bit := tc.ord/64, uint64(1)<<(tc.ord%64)
				if marks[w]&bit == 0 {
					marks[w] |= bit
					n++
				}
			}
		}
	}
	out := make([]*Testcase, 0, n)
	for w, word := range marks {
		for word != 0 {
			tc := s.Testcases[w*64+bits.TrailingZeros64(word)]
			word &= word - 1
			for _, d := range p.Defects {
				if DetectableBy(tc, d) {
					out = append(out, tc)
					break
				}
			}
		}
	}
	return out
}

// failingTestcasesScan is the retained naive FailingTestcases: a full scan
// of the suite against every defect.
func (s *Suite) failingTestcasesScan(p *defect.Profile) []*Testcase {
	var out []*Testcase
	for _, tc := range s.Testcases {
		for _, d := range p.Defects {
			if DetectableBy(tc, d) {
				out = append(out, tc)
				break
			}
		}
	}
	return out
}

// CalibrateProfile grows the profile's affected-instruction sets until the
// number of failing testcases reaches the profile's TargetErrCount
// (Table 3's #err). Seed instructions (e.g. FPU1/FPU2's shared arctangent
// variant) are preserved; additional variants are chosen greedily from the
// classes the defect already touches, preferring additions that close the
// remaining gap without overshooting. It returns the resulting failing
// count.
//
// Table 3's error counts are measurements of real silicon; calibration is
// how the simulation encodes those measurements so every downstream
// experiment (coverage, prioritization, suspect attribution) sees the same
// testcase-failure structure the paper saw.
func (s *Suite) CalibrateProfile(p *defect.Profile) int {
	count := len(s.FailingTestcases(p))
	if count >= p.TargetErrCount {
		return count
	}
	d := primaryDefect(p)
	classes := defectClasses(d)
	for count < p.TargetErrCount {
		gap := p.TargetErrCount - count
		id, gain := s.bestVariant(p, d, classes, gap)
		if gain == 0 {
			break // no variant adds coverage
		}
		d.AffectedInstrs.Add(id)
		count += gain
		if gain > gap {
			break // minimal overshoot accepted
		}
	}
	return count
}

// primaryDefect returns the defect calibration extends (profiles in this
// study carry one defect; with several, the first is grown).
func primaryDefect(p *defect.Profile) *defect.Defect { return p.Defects[0] }

// defectClasses lists the instruction classes the defect's current
// affected set touches (its plausible physical blast radius).
func defectClasses(d *defect.Defect) []model.InstrClass {
	seen := map[model.InstrClass]bool{}
	var out []model.InstrClass
	for _, id := range d.SortedInstrs() {
		if !seen[id.Class] {
			seen[id.Class] = true
			out = append(out, id.Class)
		}
	}
	return out
}

// bestVariant finds the unaffected variant whose addition yields the most
// new failing testcases without exceeding gap; if every candidate
// overshoots, the smallest-gain one is returned. gain 0 means no candidate
// helps.
func (s *Suite) bestVariant(p *defect.Profile, d *defect.Defect, classes []model.InstrClass, gap int) (model.InstrID, int) {
	type cand struct {
		id   model.InstrID
		gain int
	}
	var cands []cand
	for _, cl := range classes {
		for v := 0; v < model.InstrVariants; v++ {
			id := model.InstrID{Class: cl, Variant: v}
			if d.AffectedInstrs.Has(id) {
				continue
			}
			g := s.gainOf(p, d, id)
			if g > 0 {
				cands = append(cands, cand{id, g})
			}
		}
	}
	if len(cands) == 0 {
		return model.InstrID{}, 0
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].gain != cands[j].gain {
			return cands[i].gain > cands[j].gain
		}
		if cands[i].id.Class != cands[j].id.Class {
			return cands[i].id.Class < cands[j].id.Class
		}
		return cands[i].id.Variant < cands[j].id.Variant
	})
	// Best candidate fitting inside the gap, else the overall smallest.
	for _, c := range cands {
		if c.gain <= gap {
			return c.id, c.gain
		}
	}
	smallest := cands[len(cands)-1]
	return smallest.id, smallest.gain
}

// gainOf counts testcases that would newly fail if id were added to d.
func (s *Suite) gainOf(p *defect.Profile, d *defect.Defect, id model.InstrID) int {
	failing := map[string]bool{}
	for _, tc := range s.FailingTestcases(p) {
		failing[tc.ID] = true
	}
	gain := 0
	for _, tc := range s.InstrUsers(id) {
		if failing[tc.ID] {
			continue
		}
		// Would this testcase detect d with the variant added?
		if d.Class == model.ClassConsistency && !tc.MultiThreaded {
			continue
		}
		if d.Class == model.ClassComputation {
			ok := false
			for _, dt := range tc.DataTypes {
				if d.AffectsDataType(dt) {
					ok = true
					break
				}
			}
			if !ok {
				continue
			}
		}
		gain++
	}
	return gain
}

// CalibrateAll calibrates every profile and returns achieved counts by
// CPUID.
func (s *Suite) CalibrateAll(profiles []*defect.Profile) map[string]int {
	out := make(map[string]int, len(profiles))
	for _, p := range profiles {
		out[p.CPUID] = s.CalibrateProfile(p)
	}
	return out
}

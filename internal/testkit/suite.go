// Package testkit implements the SDC detection toolchain of Section 2.3: a
// suite of 633 testcases plus a framework that selects testcases, controls
// their execution order and resource allocation, runs them against a
// processor on a thermal model, and checks for SDC occurrences.
//
// Testcases simulate cloud workloads at three complexity tiers (instruction
// loops, library calls, application logic). Each carries a per-virtual-
// instruction usage mix; a defect is detectable by a testcase when their
// instruction sets overlap — and the usage magnitude sets the setting's
// occurrence frequency (the "instruction usage stress" triggering condition
// of Observation 10).
package testkit

import (
	"fmt"
	"sort"

	"farron/internal/model"
	"farron/internal/simrand"
)

// SuiteSize is the number of testcases in the manufacturer's toolchain.
const SuiteSize = 633

// NominalUsage is the per-iteration usage count of a dedicated stress
// testcase's primary instruction; stress values are relative to it.
const NominalUsage = 300

// Complexity tiers of Section 2.3.
const (
	// ComplexityLoop executes a specific instruction within a loop.
	ComplexityLoop = 1
	// ComplexityLibrary calls functions in libraries.
	ComplexityLibrary = 2
	// ComplexityApp invokes application logics.
	ComplexityApp = 3
)

// Testcase is one toolchain workload.
//
//sdclint:frozen written only during suite generation and buildIndex
type Testcase struct {
	// ID is the stable identifier ("tc-001".."tc-633").
	ID string
	// Name is a human-readable description.
	Name string
	// Feature is the processor feature the testcase targets.
	Feature model.Feature
	// DataTypes are the operand datatypes whose results the testcase
	// checks (empty for pure consistency testcases).
	DataTypes []model.DataType
	// Mix is usage count per loop iteration per virtual instruction.
	Mix map[model.InstrID]float64
	// HeatIntensity scales the testcase's power draw (thermal model).
	HeatIntensity float64
	// MultiThreaded testcases run threads on several cores and can
	// detect consistency defects (Section 4.1: consistency SDCs need
	// multi-threaded tests).
	MultiThreaded bool
	// Complexity is the tier (loop / library / application).
	Complexity int
	// IterPerSec is loop iterations per second (instrumentation counts).
	IterPerSec float64

	// flatMix is Mix flattened into a slice sorted by instruction, built
	// once by Suite.buildIndex (nil in a reference suite); uses is the set
	// of instructions it uses (positive usage) and ord the testcase's
	// position in Suite.Testcases. All are hot-path indexes, invisible to
	// Fingerprint and the cache keys derived from it.
	flatMix []InstrUsage
	uses    model.InstrSet
	ord     int
}

// UsesInstr reports whether the testcase exercises the virtual instruction.
func (tc *Testcase) UsesInstr(id model.InstrID) bool { return tc.Mix[id] > 0 }

// ChecksDataType reports whether the testcase validates results of dt.
func (tc *Testcase) ChecksDataType(dt model.DataType) bool {
	for _, d := range tc.DataTypes {
		if d == dt {
			return true
		}
	}
	return false
}

// Suite is the full toolchain testcase collection.
//
// A Suite is immutable once NewSuite returns: generation and index
// construction (buildIndex) are the only phases that write Testcases, byID,
// the testcases' fields or the query indexes. Calibration
// (CalibrateProfile) and queries (FailingTestcases, ByFeature, InstrUsers)
// mutate profiles, allocate fresh slices or return shared read-only index
// slices, never writing the suite — the parallel engine shares one Suite
// across every shard of a run without copies or locks on the strength of
// this contract, and the immutability test (immutability_test.go) pins it.
//
//sdclint:frozen immutable after NewSuite; shared lock-free across shards
type Suite struct {
	Testcases []*Testcase
	byID      map[string]*Testcase
	rng       *simrand.Source

	// instrUsers and byFeature are the buildIndex query indexes (nil in a
	// reference suite); instrUsers is indexed by InstrID.Index. reference
	// marks a NewReferenceSuite construction, which pins every consumer to
	// the retained naive scan paths.
	instrUsers [][]*Testcase
	byFeature  map[model.Feature][]*Testcase
	reference  bool
}

// featurePlan is the per-feature testcase allocation (sums to SuiteSize).
var featurePlan = []struct {
	feature model.Feature
	count   int
}{
	{model.FeatureALU, 140},
	{model.FeatureVecUnit, 120},
	{model.FeatureFPU, 150},
	{model.FeatureCache, 120},
	{model.FeatureTrxMem, 103},
}

// classesFor maps a feature to the instruction classes its testcases draw
// their primary instructions from.
func classesFor(f model.Feature) []model.InstrClass {
	switch f {
	case model.FeatureALU:
		return []model.InstrClass{model.InstrIntArith, model.InstrBitOp}
	case model.FeatureVecUnit:
		return []model.InstrClass{model.InstrVecMulAdd, model.InstrVecMisc}
	case model.FeatureFPU:
		return []model.InstrClass{model.InstrFPArith, model.InstrFPTrig}
	case model.FeatureCache:
		return []model.InstrClass{model.InstrLoadStore, model.InstrAtomic}
	case model.FeatureTrxMem:
		return []model.InstrClass{model.InstrTrxRegion, model.InstrAtomic}
	default:
		return nil
	}
}

// datatypesFor maps a feature to the datatype pool its testcases validate.
func datatypesFor(f model.Feature) []model.DataType {
	switch f {
	case model.FeatureALU:
		return []model.DataType{
			model.DTInt16, model.DTInt32, model.DTUint32, model.DTBit,
			model.DTByte, model.DTBin8, model.DTBin16, model.DTBin32, model.DTBin64,
		}
	case model.FeatureVecUnit:
		return []model.DataType{
			model.DTFloat32, model.DTFloat64, model.DTInt32, model.DTUint32,
			model.DTBin32, model.DTBin64, model.DTInt16,
		}
	case model.FeatureFPU:
		return []model.DataType{model.DTFloat32, model.DTFloat64, model.DTFloat64x}
	default:
		return nil
	}
}

// NewSuite generates the deterministic 633-testcase suite from a seed.
func NewSuite(rng *simrand.Source) *Suite {
	return newSuite(rng, false)
}

// NewReferenceSuite is NewSuite with the compiled hot-path indexes left
// unbuilt: every query and run over the returned suite takes the naive
// scan implementations the indexes replaced, byte-for-byte the pre-
// compilation behavior. The compiled-vs-reference determinism test diffs
// full-registry output across the two constructions; production code
// always uses NewSuite.
func NewReferenceSuite(rng *simrand.Source) *Suite {
	return newSuite(rng, true)
}

func newSuite(rng *simrand.Source, reference bool) *Suite {
	s := &Suite{byID: map[string]*Testcase{}, rng: rng.Derive("testkit-suite"), reference: reference}
	n := 0
	for _, fp := range featurePlan {
		for i := 0; i < fp.count; i++ {
			n++
			tc := s.generate(n, fp.feature)
			s.Testcases = append(s.Testcases, tc)
			s.byID[tc.ID] = tc
		}
	}
	if len(s.Testcases) != SuiteSize {
		panic(fmt.Sprintf("testkit: generated %d testcases, want %d", len(s.Testcases), SuiteSize))
	}
	if !reference {
		s.buildIndex()
	}
	return s
}

// Reference reports whether the suite was built by NewReferenceSuite and
// therefore pins the naive scan paths.
func (s *Suite) Reference() bool { return s.reference }

// generate builds testcase number n for the feature.
func (s *Suite) generate(n int, f model.Feature) *Testcase {
	id := fmt.Sprintf("tc-%03d", n)
	r := s.rng.Derive("tc", id)

	complexity := 1 + r.Intn(3)
	classes := classesFor(f)

	mix := map[model.InstrID]float64{}
	// Primary instructions: a few variants of the feature's classes with
	// heavy usage; deeper-tier testcases touch more variants with more
	// spread-out usage.
	nPrimary := 1 + r.Intn(2+complexity)
	for i := 0; i < nPrimary; i++ {
		id := model.InstrID{
			Class:   classes[r.Intn(len(classes))],
			Variant: r.Intn(model.InstrVariants),
		}
		// Usage spans many orders of magnitude across testcases — the
		// "instruction usage stress" spread of Observation 10: failed
		// testcases use a defective instruction several orders of
		// magnitude more than other testcases that merely touch it,
		// and the low-usage settings are the ones with raised observed
		// triggering temperatures (MIX1's testcase C needed 59 ℃).
		mix[id] += r.LogUniform(1e-4, float64(NominalUsage)*2)
	}
	// Background control-flow traffic every testcase executes but never
	// validates. Confined to the branch class so a defect in a compute
	// or memory feature cannot alias into an unrelated testcase.
	mix[model.InstrID{Class: model.InstrBranch, Variant: r.Intn(model.InstrVariants)}] = r.Range(10, 80)
	if complexity >= ComplexityLibrary {
		bg := model.InstrID{Class: model.InstrBranch, Variant: r.Intn(model.InstrVariants)}
		mix[bg] += r.Range(5, 40)
	}

	dtPool := datatypesFor(f)
	var dts []model.DataType
	if len(dtPool) > 0 {
		k := 1 + r.Intn(3)
		if k > len(dtPool) {
			k = len(dtPool)
		}
		for _, i := range r.PickN(len(dtPool), k) {
			dts = append(dts, dtPool[i])
		}
	}

	multi := f == model.FeatureCache || f == model.FeatureTrxMem || r.Bool(0.2)

	name := fmt.Sprintf("%s-%s-%d", f, tierName(complexity), n)
	return &Testcase{
		ID: id, Name: name, Feature: f,
		DataTypes:     dts,
		Mix:           mix,
		HeatIntensity: r.Range(0.5, 1.3),
		MultiThreaded: multi,
		Complexity:    complexity,
		IterPerSec:    r.LogUniform(1e3, 1e6) / float64(complexity),
	}
}

func tierName(c int) string {
	switch c {
	case ComplexityLoop:
		return "loop"
	case ComplexityLibrary:
		return "lib"
	default:
		return "app"
	}
}

// ByID returns a testcase by its ID, or nil.
func (s *Suite) ByID(id string) *Testcase { return s.byID[id] }

// ByFeature returns the testcases targeting feature f, in suite order.
// The returned slice is an index shared across callers — do not mutate.
func (s *Suite) ByFeature(f model.Feature) []*Testcase {
	if s.byFeature != nil {
		return s.byFeature[f]
	}
	var out []*Testcase
	for _, tc := range s.Testcases {
		if tc.Feature == f {
			out = append(out, tc)
		}
	}
	return out
}

// InstrUsers returns the testcases whose mix includes the virtual
// instruction, in suite order. The returned slice is an index shared
// across callers — do not mutate.
func (s *Suite) InstrUsers(id model.InstrID) []*Testcase {
	if s.instrUsers != nil {
		if i, ok := id.Index(); ok {
			return s.instrUsers[i]
		}
		return nil
	}
	var out []*Testcase
	for _, tc := range s.Testcases {
		if tc.UsesInstr(id) {
			out = append(out, tc)
		}
	}
	return out
}

// Rng exposes the suite's derived random source for components (the runner,
// corruptor masks) that must stay consistent with the suite's seed.
func (s *Suite) Rng() *simrand.Source { return s.rng }

// SortedIDs returns all testcase IDs sorted.
func (s *Suite) SortedIDs() []string {
	ids := make([]string, len(s.Testcases))
	for i, tc := range s.Testcases {
		ids[i] = tc.ID
	}
	sort.Strings(ids)
	return ids
}

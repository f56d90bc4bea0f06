package fleet

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"farron/internal/defect"
	"farron/internal/model"
	"farron/internal/simrand"
	"farron/internal/testkit"
)

// fleetGolden pins one Simulator.Run at 5M CPUs. The values were produced
// by the fleet generator as it stood before profile generation was
// compiled (per-call profiles, map-keyed affected-instruction sets), so the
// test holds every later optimization to the same draw sequence.
type fleetGolden struct {
	seed      uint64
	strategy  string
	faulty    int
	stages    [model.NumStages]int
	escaped   int
	effective int
	profiles  uint64
}

var fleetGoldens = []fleetGolden{
	{1, "farron", 2792, [model.NumStages]int{389, 98, 1155, 139}, 1011, 167, 0x2c65dafecf12d623},
	{1, "baseline", 2792, [model.NumStages]int{384, 103, 1135, 143}, 1027, 171, 0x73f7ecac5ebef85a},
	{1, "silifuzz", 2792, [model.NumStages]int{399, 100, 1135, 35}, 1123, 173, 0x10255f15f3a7b962},
	{1, "ithica", 2792, [model.NumStages]int{397, 81, 1142, 63}, 1109, 169, 0x28fcc7cbf2112101},
	{2, "farron", 2838, [model.NumStages]int{507, 107, 1223, 159}, 842, 186, 0x2e5fb9ebbb1d3e35},
	{2, "baseline", 2838, [model.NumStages]int{515, 99, 1220, 171}, 833, 180, 0x61d0b48f0f69e738},
	{2, "silifuzz", 2838, [model.NumStages]int{517, 97, 1198, 62}, 964, 183, 0x78e4cd7b13e0289},
	{2, "ithica", 2838, [model.NumStages]int{495, 116, 1215, 52}, 960, 173, 0x5aff9b5ace1a44d6},
}

// hashProfiles is an FNV-1a digest of every field of the detected profiles
// that generation sets, in result order.
func hashProfiles(ps []*defect.Profile) uint64 {
	h := fnv.New64a()
	for _, p := range ps {
		hashStr(h, p.CPUID)
		hashStr(h, string(p.Arch))
		hashU64(h, math.Float64bits(p.AgeYears))
		hashU64(h, uint64(p.TotalPCores), uint64(p.ThreadsPerCore), uint64(p.DefectivePCores), uint64(p.TargetErrCount))
		for _, d := range p.Defects {
			hashStr(h, d.ID)
			hashU64(h, uint64(d.Class), uint64(len(d.Features)))
			for _, f := range d.Features {
				hashU64(h, uint64(f))
			}
			hashU64(h, uint64(len(d.DataTypes)))
			for _, dt := range d.DataTypes {
				hashU64(h, uint64(dt))
			}
			for _, id := range d.SortedInstrs() {
				hashU64(h, uint64(id.Class), uint64(id.Variant))
			}
			all := uint64(0)
			if d.AllCores {
				all = 1
			}
			hashU64(h, all, uint64(len(d.Cores)))
			for _, c := range d.Cores {
				hashU64(h, uint64(c))
			}
			cores := make([]int, 0, len(d.CoreMult))
			for c := range d.CoreMult {
				cores = append(cores, c)
			}
			sort.Ints(cores)
			for _, c := range cores {
				hashU64(h, uint64(c), math.Float64bits(d.CoreMult[c]))
			}
			for _, f := range []float64{d.BaseFreqPerMin, d.MinTempC, d.TempSlope, d.SatDecades, d.UtilGain, d.ContextProb, d.PatternProb} {
				hashU64(h, math.Float64bits(f))
			}
		}
	}
	return h.Sum64()
}

func hashStr(h hash.Hash64, s string) {
	hashU64(h, uint64(len(s)))
	h.Write([]byte(s))
}

func hashU64(h hash.Hash64, vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}

// TestFleetGolden5M runs the fleet at 5M CPUs, seeds 1 and 2, for every
// strategy at Workers 2, and pins the stage split, the escapes, the
// effective testcases and a digest of every detected profile.
func TestFleetGolden5M(t *testing.T) {
	suites := map[uint64]*testkit.Suite{}
	for _, want := range fleetGoldens {
		suite := suites[want.seed]
		if suite == nil {
			suite = testkit.NewSuite(simrand.New(want.seed))
			suites[want.seed] = suite
		}
		cfg := DefaultConfig()
		cfg.Processors = 5_000_000
		cfg.Seed = want.seed
		cfg.Workers = 2
		cfg.Strategy = want.strategy
		sim, err := NewSimulator(cfg, suite)
		if err != nil {
			t.Fatal(err)
		}
		res := sim.Run()
		got := fleetGolden{
			seed: want.seed, strategy: want.strategy,
			faulty: res.FaultyTotal, stages: res.DetectedByStage,
			escaped: res.Escaped, effective: len(res.EffectiveTestcases),
			profiles: hashProfiles(res.FaultyProfiles),
		}
		if got != want {
			t.Errorf("seed %d %s:\n got  %+v\n want %+v", want.seed, want.strategy, got, want)
		}
	}
}

package fleet

import (
	"math"
	"testing"

	"farron/internal/defect"
	"farron/internal/model"
	"farron/internal/simrand"
	"farron/internal/testkit"
)

// smallConfig keeps tests fast: 200k CPUs is plenty for rate shape.
func smallConfig(seed uint64) Config {
	cfg := DefaultConfig()
	cfg.Processors = 200_000
	cfg.Seed = seed
	return cfg
}

func newSim(t *testing.T, cfg Config) *Simulator {
	t.Helper()
	suite := testkit.NewSuite(simrand.New(cfg.Seed))
	sim, err := NewSimulator(cfg, suite)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestDefaultMixSumsToOne(t *testing.T) {
	total := 0.0
	weighted := 0.0
	for _, m := range DefaultMix() {
		total += m.Share
		weighted += m.Share * m.FaultyRate
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %v", total)
	}
	// Weighted mean must match the paper's 3.61 per-10k within noise.
	if math.Abs(weighted*1e4-3.61) > 0.1 {
		t.Errorf("weighted rate = %v per 10k, want ~3.61", weighted*1e4)
	}
}

func TestApportionExact(t *testing.T) {
	mix := DefaultMix()
	counts := apportion(1_000_003, mix)
	sum := 0
	for _, c := range counts {
		sum += c
	}
	if sum != 1_000_003 {
		t.Errorf("apportion total = %d", sum)
	}
	for i, c := range counts {
		want := float64(1_000_003) * mix[i].Share
		if math.Abs(float64(c)-want) > 1 {
			t.Errorf("arch %s count %d, want ~%v", mix[i].Arch, c, want)
		}
	}
}

func TestSimulatorValidation(t *testing.T) {
	suite := testkit.NewSuite(simrand.New(1))
	bad := DefaultConfig()
	bad.Processors = 0
	if _, err := NewSimulator(bad, suite); err == nil {
		t.Error("zero population accepted")
	}
	bad = DefaultConfig()
	bad.Mix = []ArchShare{{"M1", 0.5, 1e-4}}
	if _, err := NewSimulator(bad, suite); err == nil {
		t.Error("shares not summing to 1 accepted")
	}
	bad = DefaultConfig()
	bad.Stages = nil
	if _, err := NewSimulator(bad, suite); err == nil {
		t.Error("no stages accepted")
	}
}

func TestRunOverallRateNearPaper(t *testing.T) {
	sim := newSim(t, smallConfig(11))
	res := sim.Run()
	rate := res.OverallRate() * 1e4
	// Paper: 3.61 per 10k detected. Allow generous tolerance for
	// binomial noise at 200k CPUs (~72 faulty) and detection escapes.
	if rate < 2.2 || rate > 4.5 {
		t.Errorf("overall detected rate = %.3f per 10k, want ~3.61", rate)
	}
	if res.FaultyTotal < res.DetectedTotal() {
		t.Error("detected more than exist")
	}
}

func TestReinstallDominatesDetection(t *testing.T) {
	// Table 1 shape: re-install ≫ factory > regular > datacenter.
	sim := newSim(t, smallConfig(12))
	res := sim.Run()
	ri := res.DetectedByStage[model.StageReinstall]
	fa := res.DetectedByStage[model.StageFactory]
	dc := res.DetectedByStage[model.StageDatacenter]
	if ri <= fa || ri <= dc {
		t.Errorf("re-install %d not dominant (factory %d, dc %d)", ri, fa, dc)
	}
	if fa <= dc {
		t.Errorf("factory %d not above datacenter %d", fa, dc)
	}
	// Pre-production dominates overall (paper: 90.36%).
	pre := fa + dc + ri
	if total := res.DetectedTotal(); total > 0 {
		frac := float64(pre) / float64(total)
		if frac < 0.75 {
			t.Errorf("pre-production share = %.2f, want ≥ 0.75 (paper 0.90)", frac)
		}
	}
}

func TestArchOrderingPreserved(t *testing.T) {
	// Table 2 shape: M8 worst, M4 best. Compare detected rates.
	cfg := smallConfig(13)
	cfg.Processors = 400_000
	sim := newSim(t, cfg)
	res := sim.Run()
	m8 := res.ByArch["M8"].FailureRate()
	m4 := res.ByArch["M4"].FailureRate()
	m1 := res.ByArch["M1"].FailureRate()
	if m8 <= m1 || m8 <= m4 {
		t.Errorf("M8 rate %.6f not the worst (M1 %.6f, M4 %.6f)", m8, m1, m4)
	}
	if m4 >= m1 {
		t.Errorf("M4 rate %.6f not below M1 %.6f", m4, m1)
	}
}

func TestPopulationAccounting(t *testing.T) {
	sim := newSim(t, smallConfig(14))
	res := sim.Run()
	pop := 0
	faulty := 0
	for _, ar := range res.ByArch {
		pop += ar.Population
		faulty += ar.Faulty
	}
	if pop != res.Population {
		t.Errorf("arch populations sum to %d, want %d", pop, res.Population)
	}
	if faulty != res.FaultyTotal {
		t.Errorf("arch faulty sum %d != total %d", faulty, res.FaultyTotal)
	}
	if res.DetectedTotal()+res.Escaped != res.FaultyTotal {
		t.Errorf("detected %d + escaped %d != faulty %d",
			res.DetectedTotal(), res.Escaped, res.FaultyTotal)
	}
	if len(res.FaultyProfiles) != res.DetectedTotal() {
		t.Errorf("profiles %d != detected %d", len(res.FaultyProfiles), res.DetectedTotal())
	}
}

func TestEffectiveTestcasesMinority(t *testing.T) {
	// Observation 11: the vast majority of testcases never detect
	// anything.
	sim := newSim(t, smallConfig(15))
	res := sim.Run()
	eff := len(res.EffectiveTestcases)
	if eff == 0 {
		t.Fatal("no effective testcases at all")
	}
	if eff > testkit.SuiteSize/3 {
		t.Errorf("effective testcases = %d/633, want a small minority (paper 73)", eff)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := newSim(t, smallConfig(16)).Run()
	b := newSim(t, smallConfig(16)).Run()
	if a.FaultyTotal != b.FaultyTotal || a.DetectedTotal() != b.DetectedTotal() {
		t.Error("fleet simulation not deterministic")
	}
	for s := model.Stage(0); int(s) < model.NumStages; s++ {
		if a.DetectedByStage[s] != b.DetectedByStage[s] {
			t.Errorf("stage %v differs", s)
		}
	}
}

func TestBestCore(t *testing.T) {
	profiles := newSim(t, smallConfig(17)) // unused, for suite seed parity
	_ = profiles
	sim := newSim(t, smallConfig(18))
	res := sim.Run()
	for _, p := range res.FaultyProfiles {
		for _, d := range p.Defects {
			c := bestCore(d, p.TotalPCores)
			if c < 0 || c >= p.TotalPCores {
				t.Fatalf("bestCore %d out of range", c)
			}
			if d.CoreMultiplier(c) <= 0 {
				t.Fatalf("bestCore has zero multiplier")
			}
			if want := bestCoreOracle(d, p.TotalPCores); c != want {
				t.Fatalf("%s: bestCore %d, oracle %d", p.CPUID, c, want)
			}
		}
	}
	// Ties go to the lowest core, explicit core lists in any order.
	for _, tc := range []struct {
		d    *defect.Defect
		want int
	}{
		{&defect.Defect{Cores: []int{5, 2, 7}}, 2},
		{&defect.Defect{Cores: []int{7, 2, 5}, CoreMult: map[int]float64{5: 3, 2: 1, 7: 3}}, 5},
		{&defect.Defect{AllCores: true, CoreMult: map[int]float64{0: 0.1, 1: 0.1, 2: 0.5, 3: 0.5}}, 4},
		{&defect.Defect{AllCores: true, CoreMult: map[int]float64{0: 0.1, 1: 0.1, 2: 0.5, 3: 0.5, 4: 0.2, 5: 0.2}}, 2},
		{&defect.Defect{Cores: []int{4}, CoreMult: map[int]float64{4: 0}}, 0},
	} {
		if got, want := bestCore(tc.d, 6), bestCoreOracle(tc.d, 6); got != tc.want || want != tc.want {
			t.Errorf("bestCore(%+v) = %d, oracle %d, want %d", tc.d, got, want, tc.want)
		}
	}
}

// bestCoreOracle is bestCore as a scan of the sorted DefectiveCores list.
func bestCoreOracle(d *defect.Defect, totalCores int) int {
	best, bestM := -1, 0.0
	for _, c := range d.DefectiveCores(totalCores) {
		if m := d.CoreMultiplier(c); m > bestM {
			best, bestM = c, m
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

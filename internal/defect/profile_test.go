package defect

import (
	"math"
	"testing"

	"farron/internal/model"
	"farron/internal/simrand"
	"farron/internal/stats"
)

func TestLibraryMatchesTable3(t *testing.T) {
	lib := Library(simrand.New(1))
	if len(lib) != 10 {
		t.Fatalf("library has %d processors, want 10 (Table 3 subset)", len(lib))
	}
	want := map[string]struct {
		arch   model.MicroArch
		pcores int // defective
		errs   int
		class  model.DefectClass
		age    float64
	}{
		"MIX1":  {"M2", 16, 25, model.ClassComputation, 1.75},
		"MIX2":  {"M2", 16, 24, model.ClassComputation, 0.92},
		"SIMD1": {"M2", 1, 5, model.ClassComputation, 2.33},
		"SIMD2": {"M5", 1, 1, model.ClassComputation, 0.50},
		"FPU1":  {"M5", 1, 3, model.ClassComputation, 0.58},
		"FPU2":  {"M5", 1, 3, model.ClassComputation, 1.83},
		"FPU3":  {"M3", 1, 2, model.ClassComputation, 3.08},
		"FPU4":  {"M6", 1, 1, model.ClassComputation, 1.62},
		"CNST1": {"M2", 1, 9, model.ClassConsistency, 0.92},
		"CNST2": {"M3", 24, 8, model.ClassConsistency, 1.08},
	}
	for _, p := range lib {
		w, ok := want[p.CPUID]
		if !ok {
			t.Errorf("unexpected processor %s", p.CPUID)
			continue
		}
		if p.Arch != w.arch {
			t.Errorf("%s arch = %s, want %s", p.CPUID, p.Arch, w.arch)
		}
		if p.DefectivePCores != w.pcores {
			t.Errorf("%s #pcore = %d, want %d", p.CPUID, p.DefectivePCores, w.pcores)
		}
		if p.TargetErrCount != w.errs {
			t.Errorf("%s #err = %d, want %d", p.CPUID, p.TargetErrCount, w.errs)
		}
		if p.Class() != w.class {
			t.Errorf("%s class = %v, want %v", p.CPUID, p.Class(), w.class)
		}
		if p.AgeYears != w.age {
			t.Errorf("%s age = %v, want %v", p.CPUID, p.AgeYears, w.age)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.CPUID, err)
		}
	}
}

func TestLibraryFPUSharedSuspect(t *testing.T) {
	// Section 4.1: FPU1 and FPU2 share the defective arctangent
	// instruction fp-trig:17.
	lib := Library(simrand.New(1))
	suspect := model.InstrID{Class: model.InstrFPTrig, Variant: 17}
	for _, id := range []string{"FPU1", "FPU2"} {
		p := find(lib, id)
		if p == nil || !p.Defects[0].AffectedInstrs.Has(suspect) {
			t.Errorf("%s missing shared arctangent suspect", id)
		}
	}
}

func find(ps []*Profile, id string) *Profile {
	for _, p := range ps {
		if p.CPUID == id {
			return p
		}
	}
	return nil
}

func TestStudySetComposition(t *testing.T) {
	set := StudySet(simrand.New(2))
	if len(set) != 27 {
		t.Fatalf("study set size %d, want 27", len(set))
	}
	comp, cons := 0, 0
	ids := map[string]bool{}
	for _, p := range set {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.CPUID, err)
		}
		if ids[p.CPUID] {
			t.Errorf("duplicate CPUID %s", p.CPUID)
		}
		ids[p.CPUID] = true
		switch p.Class() {
		case model.ClassComputation:
			comp++
		case model.ClassConsistency:
			cons++
		}
	}
	if comp != 19 || cons != 8 {
		t.Errorf("class split = %d/%d, want 19 computation / 8 consistency", comp, cons)
	}
}

func TestStudySetFig9AntiCorrelation(t *testing.T) {
	// Figure 9: log10(base frequency) vs minimum triggering temperature
	// across settings is strongly negatively correlated (paper: -0.8272).
	set := StudySet(simrand.New(3))
	var temps, logf []float64
	for _, p := range set {
		for _, d := range p.Defects {
			temps = append(temps, d.MinTempC)
			logf = append(logf, math.Log10(d.BaseFreqPerMin))
		}
	}
	r, err := stats.Pearson(temps, logf)
	if err != nil {
		t.Fatal(err)
	}
	if r > -0.6 {
		t.Errorf("Pearson(Tmin, log freq) = %v, want strongly negative (paper -0.83)", r)
	}
}

func TestStudySetDeterministic(t *testing.T) {
	a := StudySet(simrand.New(7))
	b := StudySet(simrand.New(7))
	for i := range a {
		if a[i].CPUID != b[i].CPUID || a[i].Arch != b[i].Arch ||
			a[i].Defects[0].MinTempC != b[i].Defects[0].MinTempC ||
			a[i].Defects[0].BaseFreqPerMin != b[i].Defects[0].BaseFreqPerMin {
			t.Fatalf("study set not deterministic at %d", i)
		}
	}
}

func TestStudySetHalfAllCores(t *testing.T) {
	// Observation 4: about half of faulty processors have all physical
	// cores defective.
	set := StudySet(simrand.New(4))
	all := 0
	for _, p := range set {
		if p.Defects[0].AllCores {
			all++
		}
	}
	if all < 7 || all > 20 {
		t.Errorf("all-core processors = %d/27, want about half", all)
	}
}

func TestFleetFaultyReproducible(t *testing.T) {
	gen := NewFleetGenerator(simrand.New(5))
	a := gen.Faulty("cpu-000123", "M8")
	b := NewFleetGenerator(simrand.New(5)).Faulty("cpu-000123", "M8")
	if a.CPUID != b.CPUID || a.Defects[0].MinTempC != b.Defects[0].MinTempC {
		t.Error("Faulty not reproducible for same serial")
	}
	c := gen.Faulty("cpu-000124", "M8")
	if a.Defects[0].MinTempC == c.Defects[0].MinTempC &&
		a.Defects[0].BaseFreqPerMin == c.Defects[0].BaseFreqPerMin {
		t.Error("distinct serials produced identical defects")
	}
}

func TestFleetFaultyArchCores(t *testing.T) {
	p := NewFleetGenerator(simrand.New(6)).Faulty("cpu-7", "M1")
	if p.Arch != "M1" {
		t.Errorf("arch = %s", p.Arch)
	}
	if p.TotalPCores != 8 {
		t.Errorf("M1 cores = %d, want 8", p.TotalPCores)
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
	// Defective cores within range.
	for _, d := range p.Defects {
		for _, c := range d.DefectiveCores(p.TotalPCores) {
			if c < 0 || c >= p.TotalPCores {
				t.Errorf("core %d out of range for M1", c)
			}
		}
	}
}

func TestProfileFeaturesAndDataTypes(t *testing.T) {
	lib := Library(simrand.New(1))
	mix1 := find(lib, "MIX1")
	feats := mix1.Features()
	if len(feats) != 3 {
		t.Errorf("MIX1 features = %v", feats)
	}
	dts := mix1.DataTypes()
	if len(dts) != 7 {
		t.Errorf("MIX1 datatypes = %v (want 7 per Table 3)", dts)
	}
	cnst1 := find(lib, "CNST1")
	if len(cnst1.DataTypes()) != 0 {
		t.Errorf("CNST1 datatypes = %v, want none (consistency)", cnst1.DataTypes())
	}
	if got := cnst1.Features(); len(got) != 2 {
		t.Errorf("CNST1 features = %v, want Cache+TrxMem", got)
	}
}

func TestProfileValidateRejects(t *testing.T) {
	lib := Library(simrand.New(1))
	p := find(lib, "FPU1")
	bad := *p
	bad.DefectivePCores = 5
	if err := bad.Validate(); err == nil {
		t.Error("mismatched DefectivePCores accepted")
	}
	bad2 := *p
	bad2.Defects = nil
	if err := bad2.Validate(); err == nil {
		t.Error("no-defect profile accepted")
	}
}

func TestTrickyDefectsExist(t *testing.T) {
	// SIMD2 and FPU4 are tricky: min trigger temp above typical
	// single-core test temperature, low frequency.
	lib := Library(simrand.New(1))
	for _, id := range []string{"SIMD2", "FPU4"} {
		d := find(lib, id).Defects[0]
		if d.MinTempC < 60 {
			t.Errorf("%s MinTemp = %v, want tricky (>=60)", id, d.MinTempC)
		}
		if d.BaseFreqPerMin > 0.1 {
			t.Errorf("%s base freq = %v, want low", id, d.BaseFreqPerMin)
		}
	}
	// MIX1 is apparent: detectable near idle temperatures.
	mix1 := find(lib, "MIX1").Defects[0]
	if mix1.MinTempC > 50 {
		t.Errorf("MIX1 MinTemp = %v, want apparent (<=50)", mix1.MinTempC)
	}
}

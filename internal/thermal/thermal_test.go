package thermal

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"farron/internal/simrand"
)

func newPkg(t *testing.T, cores int) *Package {
	t.Helper()
	return New(DefaultConfig(), cores, simrand.New(1))
}

func TestIdleTemperature(t *testing.T) {
	p := newPkg(t, 16)
	idle := p.PackageTempC()
	if idle < 40 || idle > 50 {
		t.Errorf("idle package temp = %v, want ~45 (paper's idle)", idle)
	}
}

func TestSingleCoreLoadTemp(t *testing.T) {
	p := newPkg(t, 16)
	p.SetLoad(3, 1, 1)
	for i := 0; i < 600; i++ {
		p.Step(time.Second)
	}
	core := p.CoreTempC(3)
	if core < 52 || core > 65 {
		t.Errorf("busy core temp = %v, want ~55-60", core)
	}
	// The busy core must read hotter than an idle sibling.
	idleSibling := p.CoreTempC(7)
	if core <= idleSibling {
		t.Errorf("busy core %v not hotter than idle sibling %v", core, idleSibling)
	}
}

func TestAllCoreBurnIn(t *testing.T) {
	p := newPkg(t, 16)
	for i := 0; i < 16; i++ {
		p.SetLoad(i, 1, 1)
	}
	for i := 0; i < 900; i++ {
		p.Step(time.Second)
	}
	temp := p.PackageTempC()
	if temp < 80 || temp > 100 {
		t.Errorf("burn-in package temp = %v, want ~85-95", temp)
	}
}

func TestSharedCoolingNeighbourEffect(t *testing.T) {
	// Observation 10: a defective core heats up when *other* cores are
	// busy, because cooling is shared.
	p := newPkg(t, 16)
	defectiveIdle := func() float64 {
		for i := 0; i < 600; i++ {
			p.Step(time.Second)
		}
		return p.CoreTempC(0)
	}
	aloneTemp := defectiveIdle()
	// More busy neighbours, monotonically hotter defective core.
	prev := aloneTemp
	for busy := 4; busy <= 15; busy += 4 {
		for i := 1; i <= busy; i++ {
			p.SetLoad(i, 1, 1)
		}
		temp := defectiveIdle()
		if temp <= prev {
			t.Errorf("with %d busy neighbours, core0 temp %v not above %v", busy, temp, prev)
		}
		prev = temp
	}
	if prev-aloneTemp < 10 {
		t.Errorf("15 busy neighbours only raised core0 by %v degC", prev-aloneTemp)
	}
}

func TestRemainingHeat(t *testing.T) {
	// Observation 10: a hot testcase X leaves heat behind that testcase Y
	// benefits from.
	p := newPkg(t, 8)
	// Run "X": all cores, high intensity, 10 minutes.
	for i := 0; i < 8; i++ {
		p.SetLoad(i, 1, 1.3)
	}
	for i := 0; i < 600; i++ {
		p.Step(time.Second)
	}
	p.ClearLoads()
	p.SetLoad(0, 1, 0.5) // light testcase Y
	p.Step(10 * time.Second)
	afterX := p.CoreTempC(0)

	// Same light testcase Y from cold.
	q := newPkg(t, 8)
	q.SetLoad(0, 1, 0.5)
	q.Step(10 * time.Second)
	cold := q.CoreTempC(0)

	if afterX-cold < 10 {
		t.Errorf("remaining heat effect too small: afterX=%v cold=%v", afterX, cold)
	}
}

func TestFrameworkScaleCools(t *testing.T) {
	// Observation 10: a more efficient toolchain framework runs cooler.
	hot := newPkg(t, 8)
	cool := newPkg(t, 8)
	cool.SetFrameworkScale(0.7)
	for i := 0; i < 8; i++ {
		hot.SetLoad(i, 1, 1)
		cool.SetLoad(i, 1, 1)
	}
	for i := 0; i < 600; i++ {
		hot.Step(time.Second)
		cool.Step(time.Second)
	}
	if cool.PackageTempC() >= hot.PackageTempC() {
		t.Errorf("efficient framework temp %v not below %v", cool.PackageTempC(), hot.PackageTempC())
	}
}

func TestCoolingBoost(t *testing.T) {
	p := newPkg(t, 8)
	for i := 0; i < 8; i++ {
		p.SetLoad(i, 1, 1)
	}
	noBoost := p.SteadyStateC()
	p.SetCoolingBoost(0.5)
	boosted := p.SteadyStateC()
	if boosted >= noBoost {
		t.Errorf("cooling boost did not lower steady state: %v >= %v", boosted, noBoost)
	}
}

func TestMonotoneApproach(t *testing.T) {
	// Property: temperature approaches steady state monotonically under
	// constant load.
	f := func(loadRaw, startRaw uint8) bool {
		p := New(DefaultConfig(), 8, simrand.New(2))
		util := float64(loadRaw%101) / 100
		for i := 0; i < 8; i++ {
			p.SetLoad(i, util, 1)
		}
		p.ForceTemp(25 + float64(startRaw%76))
		ss := p.SteadyStateC()
		prevGap := math.Abs(p.PackageTempC() - ss)
		for i := 0; i < 50; i++ {
			p.Step(5 * time.Second)
			gap := math.Abs(p.PackageTempC() - ss)
			if gap > prevGap+1e-9 {
				return false
			}
			prevGap = gap
		}
		return prevGap < 1 // converged
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNeverExceedsMax(t *testing.T) {
	cfg := DefaultConfig()
	p := New(cfg, 4, simrand.New(3))
	for i := 0; i < 4; i++ {
		p.SetLoad(i, 1, 3) // absurd intensity
	}
	for i := 0; i < 2000; i++ {
		p.Step(time.Second)
		if p.PackageTempC() > cfg.MaxTempC+1e-9 {
			t.Fatalf("package temp %v exceeded max %v", p.PackageTempC(), cfg.MaxTempC)
		}
	}
	for c := 0; c < 4; c++ {
		if p.CoreTempC(c) > cfg.MaxTempC+1e-9 {
			t.Errorf("core %d temp %v exceeds max", c, p.CoreTempC(c))
		}
	}
}

func TestPreheat(t *testing.T) {
	p := newPkg(t, 8)
	dur := p.PreheatTo(70, time.Hour)
	if p.PackageTempC() < 70 {
		t.Errorf("preheat reached only %v", p.PackageTempC())
	}
	if dur <= 0 || dur > time.Hour {
		t.Errorf("preheat duration = %v", dur)
	}
	// Loads restored (idle), so it should cool back down.
	for i := 0; i < 600; i++ {
		p.Step(time.Second)
	}
	if p.PackageTempC() > 50 {
		t.Errorf("after preheat+idle, temp = %v, want back near idle", p.PackageTempC())
	}
}

func TestPreheatTimeout(t *testing.T) {
	p := newPkg(t, 8)
	dur := p.PreheatTo(1000, 30*time.Second) // unreachable target
	if dur != 30*time.Second {
		t.Errorf("preheat timeout = %v, want 30s", dur)
	}
}

func TestSetLoadValidation(t *testing.T) {
	p := newPkg(t, 4)
	defer func() {
		const want = "thermal: core 4 out of range [0,4)"
		if got := fmt.Sprint(recover()); got != want {
			t.Errorf("SetLoad(4) panic = %q, want %q", got, want)
		}
	}()
	p.SetLoad(4, 1, 1)
}

func TestCoreTempValidation(t *testing.T) {
	p := newPkg(t, 4)
	for _, core := range []int{-1, 4} {
		func() {
			defer func() {
				want := fmt.Sprintf("thermal: core %d out of range [0,4)", core)
				if got := fmt.Sprint(recover()); got != want {
					t.Errorf("CoreTempC(%d) panic = %q, want %q", core, got, want)
				}
			}()
			p.CoreTempC(core)
		}()
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with 0 cores should panic")
		}
	}()
	New(DefaultConfig(), 0, simrand.New(1))
}

func TestIdleTempCRestoresLoads(t *testing.T) {
	p := newPkg(t, 4)
	p.SetLoad(2, 0.8, 1.1)
	before := p.PowerW()
	idle := p.IdleTempC()
	if idle < 40 || idle > 50 {
		t.Errorf("IdleTempC = %v", idle)
	}
	if p.PowerW() != before {
		t.Error("IdleTempC did not restore loads")
	}
}

func TestStepZeroDuration(t *testing.T) {
	p := newPkg(t, 4)
	before := p.PackageTempC()
	p.Step(0)
	p.Step(-time.Second)
	if p.PackageTempC() != before {
		t.Error("zero/negative Step changed temperature")
	}
}

func TestFrameworkScalePanics(t *testing.T) {
	p := newPkg(t, 4)
	defer func() {
		if recover() == nil {
			t.Error("SetFrameworkScale(0) should panic")
		}
	}()
	p.SetFrameworkScale(0)
}

func TestLoadClamping(t *testing.T) {
	p := newPkg(t, 4)
	p.SetLoad(0, 2.5, 1) // util clamped to 1
	p.SetLoad(1, -1, 1)  // clamped to 0
	pw := p.PowerW()
	q := newPkg(t, 4)
	q.SetLoad(0, 1, 1)
	if math.Abs(pw-q.PowerW()) > 1e-9 {
		t.Errorf("clamped power %v != expected %v", pw, q.PowerW())
	}
}

// stepOracle is Step as written before exp(−dt/τ) was memoized.
func stepOracle(p *Package, dt time.Duration) {
	if dt <= 0 {
		return
	}
	ss := p.SteadyStateC()
	tau := p.cfg.TimeConstant.Seconds()
	a := math.Exp(-dt.Seconds() / tau)
	p.tempC = ss + (p.tempC-ss)*a
	if p.tempC > p.cfg.MaxTempC {
		p.tempC = p.cfg.MaxTempC
	}
}

// The memoized Step must track the unmemoized one bit for bit when the
// step length alternates — the runner's full slices interleaved with a
// run's shorter remainder slice — and across load changes and no-op steps.
func TestStepMemoAlternatingDt(t *testing.T) {
	dts := []time.Duration{
		5 * time.Second, 5 * time.Second, 2 * time.Second, 5 * time.Second, 2 * time.Second,
		2 * time.Second, 0, -time.Second, 10 * time.Second, 5 * time.Second, 1500 * time.Millisecond,
	}
	memo, oracle := newPkg(t, 8), newPkg(t, 8)
	for i := 0; i < 400; i++ {
		core, util, intensity := i%8, float64(i%5)/4, 0.5+float64(i%7)/3
		memo.SetLoad(core, util, intensity)
		oracle.SetLoad(core, util, intensity)
		dt := dts[i%len(dts)]
		memo.Step(dt)
		stepOracle(oracle, dt)
		if math.Float64bits(memo.PackageTempC()) != math.Float64bits(oracle.PackageTempC()) {
			t.Fatalf("step %d (dt %v): memoized %v degC, oracle %v degC", i, dt, memo.PackageTempC(), oracle.PackageTempC())
		}
		for c := 0; c < 8; c++ {
			if memo.CoreTempC(c) != oracle.CoreTempC(c) {
				t.Fatalf("step %d core %d: memoized %v degC, oracle %v degC", i, c, memo.CoreTempC(c), oracle.CoreTempC(c))
			}
		}
	}
}

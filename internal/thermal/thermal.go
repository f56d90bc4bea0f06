// Package thermal models processor package temperature with a lumped
// RC (resistance-capacitance) network and a shared cooling device.
//
// The model reproduces the thermal phenomena of Observation 10:
//
//   - cores share a cooling device, so a busy neighbour raises a defective
//     core's temperature even though the defective component is private;
//   - heat persists after a load is removed (the "remaining heat" anomaly,
//     where testcase Y only fails when run right after the hot testcase X);
//   - a more efficient framework draws less power and thus runs cooler
//     (the "toolchain update" anomaly).
//
// Temperature follows dT/dt = (P·R(T) − (T − T_amb)) / τ with a cooling
// resistance that drops as the package heats (fans spin up):
// R_eff(ΔT) = R₀ / (1 + k·ΔT). Steady state solves the quadratic
// k·ΔT² + ΔT − R₀·P = 0. Busy cores additionally read a local hotspot
// offset above package temperature.
package thermal

import (
	"fmt"
	"math"
	"time"

	"farron/internal/simrand"
)

// Config holds the physical constants of a package's thermal network.
// DefaultConfig returns values calibrated so that an idle package sits near
// 45 ℃ (the paper's reported idle), a single fully-loaded core reads
// ≈55-60 ℃, and an all-core burn-in reaches ≈85-95 ℃.
type Config struct {
	// AmbientC is datacenter inlet temperature (℃). Alibaba Cloud keeps
	// environment variations minimal (Section 2.1), so this is constant.
	AmbientC float64
	// IdlePowerW is package power draw at idle.
	IdlePowerW float64
	// TDPW is the all-core full-load power budget; each core's peak draw
	// is TDPW / nCores.
	TDPW float64
	// R0 is the cooling thermal resistance at low temperature (℃/W).
	R0 float64
	// CoolingK is the fan-response coefficient: effective resistance is
	// R0 / (1 + CoolingK·ΔT).
	CoolingK float64
	// TimeConstant is the RC time constant of the package.
	TimeConstant time.Duration
	// LocalHotspotC is the extra temperature a fully-loaded core reads
	// above package temperature.
	LocalHotspotC float64
	// MaxTempC is the throttle ceiling; the package never exceeds it.
	MaxTempC float64
	// CoreOffsetSpreadC is the standard deviation of static per-core
	// sensor offsets (manufacturing variation).
	CoreOffsetSpreadC float64
}

// DefaultConfig returns the calibrated defaults described above.
func DefaultConfig() Config {
	return Config{
		AmbientC:          25,
		IdlePowerW:        20,
		TDPW:              120,
		R0:                2.2,
		CoolingK:          0.06,
		TimeConstant:      45 * time.Second,
		LocalHotspotC:     8,
		MaxTempC:          100,
		CoreOffsetSpreadC: 0.8,
	}
}

// Package is the thermal state of one processor package.
type Package struct {
	cfg    Config
	nCores int
	// tempC is the current package temperature.
	tempC float64
	// load[i] in [0,1] is core i's utilization; intensity[i] scales its
	// power draw (a heavy AVX testcase burns more than a pointer chase).
	load      []float64
	intensity []float64
	// offset[i] is core i's static sensor offset.
	offset []float64
	// coolingBoost > 0 strengthens cooling (cooling-device control);
	// frameworkScale scales all dynamic power (toolchain efficiency).
	coolingBoost   float64
	frameworkScale float64
	// stepDt and stepDecay memoize Step's exp(−dt/τ) for the last step
	// length: callers step in fixed slices, and a hit needs an equal dt
	// (τ is fixed at construction). The zero value never hits — Step
	// returns before the lookup for dt <= 0.
	stepDt    time.Duration
	stepDecay float64
}

// New creates a package with nCores cores at thermal equilibrium (idle
// steady state). The rng seeds static per-core offsets.
func New(cfg Config, nCores int, rng *simrand.Source) *Package {
	if nCores <= 0 {
		panic("thermal: package needs at least one core")
	}
	p := &Package{
		cfg:            cfg,
		nCores:         nCores,
		load:           make([]float64, nCores),
		intensity:      make([]float64, nCores),
		offset:         make([]float64, nCores),
		frameworkScale: 1,
	}
	for i := range p.offset {
		p.offset[i] = rng.Norm(0, cfg.CoreOffsetSpreadC)
	}
	p.tempC = p.SteadyStateC()
	return p
}

// NCores returns the number of cores.
func (p *Package) NCores() int { return p.nCores }

// SetLoad sets core's utilization (0..1) and workload power intensity
// (1 = nominal; heavy vector code > 1). Out-of-range cores panic.
func (p *Package) SetLoad(core int, util, intensity float64) {
	if uint(core) >= uint(p.nCores) {
		panic(coreRangeError{core, p.nCores})
	}
	p.load[core] = clamp(util, 0, 1)
	p.intensity[core] = max(intensity, 0)
}

// ClearLoads idles every core.
func (p *Package) ClearLoads() {
	for i := range p.load {
		p.load[i] = 0
		p.intensity[i] = 0
	}
}

// SetCoolingBoost adds extra cooling capacity b >= 0 (0 = nominal). This
// models cooling-device control (ACPI [7] in the paper); Farron primarily
// uses workload backoff instead, as cooling control "is not widely
// applicable in Alibaba Cloud yet".
func (p *Package) SetCoolingBoost(b float64) { p.coolingBoost = max(b, 0) }

// SetFrameworkScale scales dynamic power by s (the toolchain-update anomaly:
// a more efficient framework produced less heat). s must be positive.
func (p *Package) SetFrameworkScale(s float64) {
	if s <= 0 {
		panic("thermal: framework scale must be positive")
	}
	p.frameworkScale = s
}

// MeanUtil returns the mean core utilization across the package — the
// "CPU utilization" of the Section 5 stress-separation experiment.
func (p *Package) MeanUtil() float64 {
	sum := 0.0
	for _, u := range p.load {
		sum += u
	}
	return sum / float64(p.nCores)
}

// PowerW returns the current total package power draw.
func (p *Package) PowerW() float64 {
	perCore := p.cfg.TDPW / float64(p.nCores)
	dynamic := 0.0
	for i := range p.load {
		dynamic += p.load[i] * p.intensity[i] * perCore
	}
	return p.cfg.IdlePowerW + dynamic*p.frameworkScale
}

// SteadyStateC returns the package temperature the current load converges
// to: the positive root of CoolingK·ΔT² + ΔT − R₀·P/(1+boost) = 0.
func (p *Package) SteadyStateC() float64 {
	rp := p.cfg.R0 * p.PowerW() / (1 + p.coolingBoost)
	k := p.cfg.CoolingK
	var dt float64
	if k <= 0 {
		dt = rp
	} else {
		dt = (-1 + math.Sqrt(1+4*k*rp)) / (2 * k)
	}
	t := p.cfg.AmbientC + dt
	return min(t, p.cfg.MaxTempC)
}

// Step advances the thermal state by dt using the exact exponential
// relaxation toward the current steady state.
func (p *Package) Step(dt time.Duration) {
	if dt <= 0 {
		return
	}
	if dt != p.stepDt {
		p.stepDt, p.stepDecay = dt, math.Exp(-dt.Seconds()/p.cfg.TimeConstant.Seconds())
	}
	ss := p.SteadyStateC()
	p.tempC = ss + (p.tempC-ss)*p.stepDecay
	if p.tempC > p.cfg.MaxTempC {
		p.tempC = p.cfg.MaxTempC
	}
}

// PackageTempC returns the current package temperature.
func (p *Package) PackageTempC() float64 { return p.tempC }

// CoreTempC returns the temperature core reads: package temperature plus
// its static offset plus the local hotspot contribution of its own load.
func (p *Package) CoreTempC(core int) float64 {
	if uint(core) >= uint(p.nCores) {
		panic(coreRangeError{core, p.nCores})
	}
	t := p.tempC + p.offset[core] + p.cfg.LocalHotspotC*p.load[core]*min(p.intensity[core], 1.5)
	return min(t, p.cfg.MaxTempC)
}

// coreRangeError is the panic value for an out-of-range core. Its message
// is formatted out of line, in Error, so CoreTempC — called per core per
// step — stays within the inlining budget.
type coreRangeError struct{ core, nCores int }

func (e coreRangeError) Error() string {
	return fmt.Sprintf("thermal: core %d out of range [0,%d)", e.core, e.nCores)
}

// ForceTemp sets the package temperature directly (test hook / preheat).
func (p *Package) ForceTemp(t float64) { p.tempC = clamp(t, p.cfg.AmbientC, p.cfg.MaxTempC) }

// PreheatTo runs a full-package synthetic stress load (the Linux "stress"
// tool of Section 5) in simulated steps until the package reaches target or
// maxDur elapses. It returns the simulated time spent. Loads are restored
// afterwards.
func (p *Package) PreheatTo(target float64, maxDur time.Duration) time.Duration {
	savedLoad := append([]float64(nil), p.load...)
	savedIntensity := append([]float64(nil), p.intensity...)
	for i := 0; i < p.nCores; i++ {
		p.SetLoad(i, 1, 1.3)
	}
	const step = time.Second
	var elapsed time.Duration
	for p.tempC < target && elapsed < maxDur {
		p.Step(step)
		elapsed += step
	}
	copy(p.load, savedLoad)
	copy(p.intensity, savedIntensity)
	return elapsed
}

// IdleTempC returns the steady-state temperature with all cores idle.
func (p *Package) IdleTempC() float64 {
	savedLoad := append([]float64(nil), p.load...)
	savedIntensity := append([]float64(nil), p.intensity...)
	p.ClearLoads()
	t := p.SteadyStateC()
	copy(p.load, savedLoad)
	copy(p.intensity, savedIntensity)
	return t
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

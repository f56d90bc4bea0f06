package core

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"farron/internal/cpu"
	"farron/internal/simrand"
	"farron/internal/testkit"
	"farron/internal/thermal"
)

// naiveOnline is the uncompiled Online loop, kept as the oracle the
// compiled loop must reproduce draw for draw: it reads each core's
// temperature once per (defect, core) pair and evaluates
// Defect.RatePerMin for every pair, zero multipliers included.
func naiveOnline(f *Farron, dur time.Duration, app AppProfile, protect bool, rng *simrand.Source) OnlineReport {
	var rep OnlineReport
	cores := f.appCores(app)
	if len(cores) == 0 {
		return rep
	}
	pkg := f.runner.Thermal()
	proc := f.runner.Processor()
	pkg.ClearLoads()

	burstLeft := 0
	backingOff := false
	for elapsed := time.Duration(0); elapsed < dur; elapsed += onlineTick {
		util := app.BaseUtil
		if burstLeft > 0 {
			util = app.BurstUtil
			burstLeft--
		} else if rng.Bool(app.BurstProb) {
			burstLeft = app.BurstTicks
			util = app.BurstUtil
		}
		if backingOff {
			util *= 0.1
		}
		for _, c := range cores {
			pkg.SetLoad(c, util, app.Intensity)
		}
		pkg.Step(onlineTick)

		var temp float64
		for _, c := range cores {
			if t := pkg.CoreTempC(c); t > temp {
				temp = t
			}
		}
		action := ActionNone
		if protect {
			action = f.boundary.Record(temp)
			backingOff = action == ActionBackoff || action == ActionCooling
		}
		rep.Backoff.Observe(action, onlineTick, temp)

		minutes := onlineTick.Minutes()
		for _, d := range proc.Defects() {
			for _, c := range cores {
				rate := d.RatePerMin(c, pkg.CoreTempC(c), app.Stress*util)
				rep.SDCs += rng.Poisson(rate * minutes)
			}
		}
	}
	pkg.ClearLoads()
	rep.BoundaryFinalC = f.boundary.Current()
	rep.BoundaryRaises = f.boundary.Raises()
	return rep
}

// burstyApp is an adversarial bursty workload on a three-core subset, so
// both the subset placement and the hot-burst regime are exercised.
func burstyApp() AppProfile {
	app := DefaultAppProfile()
	app.Stress = 1
	app.BurstProb = 0.002
	app.BurstTicks = 18
	app.Cores = 3
	return app
}

func TestOnlineMatchesNaiveOracle(t *testing.T) {
	fx := newEvalFixture(t)
	ids := make([]string, 0, len(fx.profiles))
	for id := range fx.profiles {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	allCores := DefaultAppProfile()
	allCores.Cores = 0
	apps := []struct {
		name string
		app  AppProfile
	}{
		{"default", DefaultAppProfile()},
		{"bursty-subset", burstyApp()},
		{"all-cores", allCores},
	}
	totalSDCs := 0
	for _, id := range ids {
		for _, a := range apps {
			for _, protect := range []bool{true, false} {
				build := func() *Farron {
					fa := New(DefaultConfig(), fx.runner(t, id), appFeaturesFor(fx.profiles[id]), nil)
					fa.state = StateOnline
					return fa
				}
				compiled, oracle := build(), build()
				rc, ro := simrand.New(77), simrand.New(77)
				got := compiled.Online(12*time.Hour, a.app, protect, rc)
				want := naiveOnline(oracle, 12*time.Hour, a.app, protect, ro)
				if got != want {
					t.Errorf("%s %s protect=%v: compiled %+v, oracle %+v", id, a.name, protect, got, want)
				}
				if c, o := rc.Uint64(), ro.Uint64(); c != o {
					t.Errorf("%s %s protect=%v: next draw %#x, oracle %#x", id, a.name, protect, c, o)
				}
				if c, o := compiled.runner.Thermal().PackageTempC(), oracle.runner.Thermal().PackageTempC(); c != o {
					t.Errorf("%s %s protect=%v: package at %v degC, oracle %v", id, a.name, protect, c, o)
				}
				totalSDCs += got.SDCs
			}
		}
	}
	if totalSDCs == 0 {
		t.Fatal("no run absorbed an SDC; the comparison is vacuous")
	}
}

// Online compiles its exposure walk once per call, so its allocations must
// not grow with the simulated duration.
func TestOnlineAllocs(t *testing.T) {
	fx := newEvalFixture(t)
	fa := New(DefaultConfig(), fx.runner(t, "SIMD2"), appFeaturesFor(fx.profiles["SIMD2"]), nil)
	fa.state = StateOnline
	rng := simrand.New(5)
	allocs := func(dur time.Duration) float64 {
		return testing.AllocsPerRun(5, func() { fa.Online(dur, burstyApp(), true, rng) })
	}
	short, long := allocs(time.Hour), allocs(48*time.Hour)
	if long > short {
		t.Fatalf("Online allocates %v times over 48h but %v over 1h; allocations grow with duration", long, short)
	}
}

// roundBytes returns the bytes one RegularRound allocates, averaged over
// rounds after two warm-up rounds, and the SDCs those rounds counted. The
// first round marks detections suspected and the second runs them at full
// duration, growing the runner's arena to its steady size.
func roundBytes(fa *Farron, rounds int) (bytesPerRound float64, sdcs int) {
	fa.RegularRound()
	fa.RegularRound()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		sdcs += fa.RegularRound().SDCs
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds), sdcs
}

// A regular round counts SDCs instead of copying their records, so the
// bytes it allocates must not grow with how many SDCs it observes. A
// heavily defective processor and a healthy one of the same shape run the
// same plan (same suite, app features and active testcases); the faulty
// round may allocate only the few map entries its detections add on top.
func TestRegularRoundBytesIndependentOfSDCs(t *testing.T) {
	fx := newEvalFixture(t)
	const id = "MIX1"
	p := fx.profiles[id]
	faulty := New(DefaultConfig(), fx.runner(t, id), appFeaturesFor(p), fx.knownErrs(id))
	proc := cpu.NewHealthy("healthy-"+id, p.Arch, p.TotalPCores, p.ThreadsPerCore)
	pkg := thermal.New(thermal.DefaultConfig(), proc.PhysCores, fx.rng.Derive("th-healthy", id))
	healthy := New(DefaultConfig(), testkit.NewRunner(fx.suite, proc, pkg), appFeaturesFor(p), fx.knownErrs(id))

	faultyBytes, faultySDCs := roundBytes(faulty, 3)
	healthyBytes, healthySDCs := roundBytes(healthy, 3)
	t.Logf("faulty: %.0f B/round over %d SDCs; healthy: %.0f B/round over %d SDCs",
		faultyBytes, faultySDCs, healthyBytes, healthySDCs)
	if healthySDCs != 0 || faultySDCs < 3000 {
		t.Fatalf("faulty rounds saw %d SDCs, healthy %d: not enough contrast to pin anything", faultySDCs, healthySDCs)
	}
	if faultyBytes > healthyBytes+16<<10 {
		t.Errorf("faulty round allocates %.0f B, healthy round %.0f B: bytes grow with the SDC count", faultyBytes, healthyBytes)
	}
}
